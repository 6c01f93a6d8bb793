"""Primitive vectors, rational targets, wedge coordinates and exact norms.

Everything downstream works with primitive integer vectors v = ((p1, p2), q),
q > 0, which represent the rational point (p1/q, p2/q) at height q.  The
wedge of two such vectors is kept as the integer triple of 2x2 minors
(m12, m13, m23); the pair (m13, m23) is what all the distance formulas use.

The value types of the package (here and in the other modules) are named
tuples: immutable, hashable and cheap to define at import.  Each is its own
tuple, so equality is tuple equality (PrimVec(1, 2, 3) == Wedge2(1, 2, 3)
== (1, 2, 3)), and they iterate, index and order as tuples.  Types that
check or coerce their fields do it in __new__ of a thin subclass of the
named tuple; _make and _replace skip that, and nothing here calls them.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple


class _RatPointFields(NamedTuple):
    x1: Fraction
    x2: Fraction

    def common_denominator(self) -> tuple[int, int, int]:
        """Return (n1, n2, D) with x = (n1/D, n2/D), D > 0 minimal.

        Computed once, when the point is made; height scans ask for it at
        every height.
        """
        return self._common


class RatPoint(_RatPointFields):
    """Exact rational target in the plane, with Fraction coordinates."""

    def __new__(cls, x1, x2):
        self = tuple.__new__(cls, (Fraction(x1), Fraction(x2)))
        x1, x2 = self
        d = math.lcm(x1.denominator, x2.denominator)
        # an instance attribute, not a field: no part of repr or equality
        self._common = (
            x1.numerator * (d // x1.denominator),
            x2.numerator * (d // x2.denominator), d)
        return self


class _PrimVecFields(NamedTuple):
    p1: int
    p2: int
    q: int

    def proj(self) -> RatPoint:
        return RatPoint(Fraction(self.p1, self.q), Fraction(self.p2, self.q))

    def __str__(self) -> str:
        return f"(({self.p1},{self.p2}),{self.q})"


class PrimVec(_PrimVecFields):
    """Primitive integer vector (p1, p2, q) with q > 0."""

    __slots__ = ()

    def __new__(cls, p1: int, p2: int, q: int):
        if q <= 0:
            raise ValueError(f"height must be positive, got {q}")
        if math.gcd(p1, p2, q) != 1:
            raise ValueError(f"vector {(p1, p2, q)} is not primitive")
        return tuple.__new__(cls, (p1, p2, q))


def pvec(p1: int, p2: int, q: int) -> PrimVec:
    return PrimVec(p1, p2, q)


class Wedge2(NamedTuple):
    """Wedge u ^ v of two integer 3-vectors, stored as the minor triple."""

    m12: int
    m13: int
    m23: int

    def neg(self) -> "Wedge2":
        return Wedge2(-self.m12, -self.m13, -self.m23)


def wedge(u: PrimVec, v: PrimVec) -> Wedge2:
    """Minor triple of u ^ v (rows (u1,u2,u3) = (p1,p2,q))."""
    u1, u2, u3 = u
    v1, v2, v3 = v
    return Wedge2(u1 * v2 - u2 * v1, u1 * v3 - u3 * v1, u2 * v3 - u3 * v2)


def seminorm(w: Wedge2) -> int:
    """Sup size of the pair part (m13, m23).

    This vanishes only on multiples of a common direction, and for wedges of
    distinct primitive vectors it is a genuine positive integer.
    """
    return max(abs(w.m13), abs(w.m23))


def residual(x: RatPoint, v: PrimVec) -> Fraction:
    """Approximation residual ||q*x - p|| of v at target x, in the sup norm.

    Exact; zero exactly when x is the projective point of v.
    """
    return max(abs(v.q * x.x1 - v.p1), abs(v.q * x.x2 - v.p2))


def proj_dist(u: PrimVec, v: PrimVec) -> Fraction:
    """Sup distance between the projective points of u and v.

    In the affine chart both points live in, this is exactly
    seminorm(u ^ v) / (q_u * q_v), which is how it is computed.
    """
    return Fraction(seminorm(wedge(u, v)), u.q * v.q)
