"""Primitive vectors, rational targets, wedge coordinates and exact norms.

Everything downstream works with primitive integer vectors v = ((p1, p2), q),
q > 0, which represent the rational point (p1/q, p2/q) at height q.  The
wedge of two such vectors is kept as the integer triple of 2x2 minors
(m12, m13, m23); the pair (m13, m23) is what all the distance formulas use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class RatPoint:
    """Exact rational target in the plane."""

    x1: Fraction
    x2: Fraction
    _common: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x1, x2 = Fraction(self.x1), Fraction(self.x2)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)
        d = math.lcm(x1.denominator, x2.denominator)
        object.__setattr__(self, "_common", (
            x1.numerator * (d // x1.denominator),
            x2.numerator * (d // x2.denominator), d))

    @property
    def coords(self) -> tuple[Fraction, Fraction]:
        return (self.x1, self.x2)

    def common_denominator(self) -> tuple[int, int, int]:
        """Return (n1, n2, D) with x = (n1/D, n2/D), D > 0 minimal.

        Computed once, when the point is made; height scans ask for it at
        every height.
        """
        return self._common


@dataclass(frozen=True)
class PrimVec:
    """Primitive integer vector (p1, p2, q) with q > 0."""

    p1: int
    p2: int
    q: int

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError(f"height must be positive, got {self.q}")
        if math.gcd(self.p1, self.p2, self.q) != 1:
            raise ValueError(f"vector {(self.p1, self.p2, self.q)} is not primitive")

    def proj(self) -> RatPoint:
        return RatPoint(Fraction(self.p1, self.q), Fraction(self.p2, self.q))

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.p1, self.p2, self.q)

    def __str__(self) -> str:
        return f"(({self.p1},{self.p2}),{self.q})"


def pvec(p1: int, p2: int, q: int) -> PrimVec:
    return PrimVec(p1, p2, q)


@dataclass(frozen=True)
class Wedge2:
    """Wedge u ^ v of two integer 3-vectors, stored as the minor triple."""

    m12: int
    m13: int
    m23: int

    @property
    def pair(self) -> tuple[int, int]:
        return (self.m13, self.m23)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.m12, self.m13, self.m23)

    def neg(self) -> "Wedge2":
        return Wedge2(-self.m12, -self.m13, -self.m23)

    def is_zero(self) -> bool:
        return self.m12 == 0 and self.m13 == 0 and self.m23 == 0


def wedge(u: PrimVec, v: PrimVec) -> Wedge2:
    """Minor triple of u ^ v (rows (u1,u2,u3) = (p1,p2,q))."""
    return Wedge2(
        u.p1 * v.p2 - u.p2 * v.p1,
        u.p1 * v.q - u.q * v.p1,
        u.p2 * v.q - u.q * v.p2,
    )


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
