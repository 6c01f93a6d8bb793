"""Small shared helpers: exact arithmetic utilities and JSON encoding."""
from __future__ import annotations

import math
from fractions import Fraction


def extgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        k, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def ln_fraction(fr: Fraction) -> float:
    """log of a positive rational without overflowing floats."""
    if fr <= 0:
        raise ValueError("ln_fraction needs a positive rational")
    return math.log(fr.numerator) - math.log(fr.denominator)


def frac_str(fr: Fraction | int) -> str:
    fr = Fraction(fr)
    return f"{fr.numerator}/{fr.denominator}"


def json_ready(obj):
    """Recursively convert Fractions (and tuples) for json.dumps."""
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, dict):
        return {k: json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    return obj
