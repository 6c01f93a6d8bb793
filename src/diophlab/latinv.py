"""Pair-coordinate lattice of a primitive vector and its shortest classes.

For v = ((p1, p2), q), the wedges {u ^ v : u in Z^3} form a rank-2 lattice.
Projecting a wedge to its pair part (m13, m23) identifies that lattice with

    Lam(v) = {(x, y) in Z^2 : q divides x*p2 - y*p1},

an index-q sublattice of Z^2, and the discarded minor is recovered exactly as
m12 = (x*p2 - y*p1)/q.  A wedge is primitive (its 2-dimensional sublattice of
Z^3 is saturated) iff gcd(m12, m13, m23) = 1.  All minima computations happen
in Lam(v) with exact integers.

L(v) is the shortest primitive class, Hhat(v) the shortest class off the line
of L(v); ties are broken by the canonical key documented at `class_key`.

A short primitive wedge certifies L(v) without a reduction.  Let w = u ^ v be
primitive with 2|w|^2 < |v| (sup norm on the pair part; as m12 is linear in
the pair part, gcd(m12, m13, m23) = 1 makes w primitive in Lam(v) too).
Lam(v) has covolume |v|, so det(w, w') is a nonzero multiple of |v| for
every w' in Lam(v) off the line of w, while |det(w, w')| <= 2|w||w'|.  Hence
|w'| >= |v|/(2|w|) > |w|, and +-w is the unique shortest class: L(v) = +-w,
with no tie to break.  `absL_from_wedge` applies this to a tree child and
its parent.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .core import PrimVec, Wedge2, seminorm, wedge
from .util import extgcd, frac_str, ln_fraction

Pair = tuple[int, int]


def pair_in_lattice(v: PrimVec, x: int, y: int) -> bool:
    return (x * v.p2 - y * v.p1) % v.q == 0


def wedge_from_pair(v: PrimVec, x: int, y: int) -> Wedge2:
    """Lift a pair-lattice element back to its full wedge triple."""
    t = x * v.p2 - y * v.p1
    if t % v.q != 0:
        raise ValueError(f"({x},{y}) is not in the pair lattice of {v}")
    return Wedge2(t // v.q, x, y)


def wedge_constraint_ok(w: Wedge2, v: PrimVec) -> bool:
    """Whether w lies in the wedge image of v (the linear Pluecker relation)."""
    return w.m12 * v.q - w.m13 * v.p2 + w.m23 * v.p1 == 0


def class_key(x: int, y: int) -> tuple[int, int, int, int]:
    """Ordering key for +-classes of pair-lattice elements: the one sign
    rule and the one order of both minima routes.

    Sign-normalize (y > 0, or y = 0 and x > 0), then order by sup norm,
    squared Euclidean norm, y, x.  Deterministic and total on classes, and
    the key (sup, e2, y, x) carries the normalized pair itself, so
    wedge_from_pair(v, x, y) of a key's pair is signed by this rule.
    """
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    ax = abs(x)  # the sup norm is max(ax, y), as y >= 0 now
    return (ax if ax > y else y, x * x + y * y, y, x)


def pair_basis(v: PrimVec) -> tuple[Pair, Pair]:
    """An exact basis of Lam(v): ((g, y0), (0, q/g)) with g = gcd(q, p1)."""
    g, s, t = extgcd(v.q, v.p1)
    h = v.q // g
    return ((g, (t * v.p2) % h), (0, h))


def _lagrange_reduce(b1: Pair, b2: Pair) -> tuple[Pair, Pair]:
    """Gauss/Lagrange reduction in the Euclidean norm, exact arithmetic.

    Returns (a, b) with ||a|| <= ||b|| and |<a,b>| <= ||a||^2 / 2.
    """
    def e2(u):
        return u[0] * u[0] + u[1] * u[1]

    a, b = (b1, b2) if e2(b1) <= e2(b2) else (b2, b1)
    while True:
        na = e2(a)
        dot = a[0] * b[0] + a[1] * b[1]
        # nearest integer to dot/na
        m = (2 * dot + na) // (2 * na)
        b = (b[0] - m * a[0], b[1] - m * a[1])
        if e2(b) >= na:
            return a, b
        a, b = b, a


def _line_candidates(base: Pair, step: Pair) -> list[Pair]:
    """Every point of the line base + n*step that can rank first or second
    on it by `class_key`, in increasing n.

    The sup norm along the line is convex and piecewise linear in n.  When
    both forms vary, its real minimum lies where their absolute values
    cross: anywhere else the larger one is nonzero (the line misses the
    origin), and moving toward its zero lowers the sup norm.  When one
    form is constant, the minimum is attained at the other's zero.  So the
    integer minimum s is at the floor or the ceiling of one of these
    points, and {n : sup <= s} is an interval [lo, hi].  Inside it the
    squared Euclidean norm, a convex quadratic, ranks the points from its
    real minimizer outwards; outside it the sup norm rises strictly, so
    lo - 1 and hi + 1 beat every other point off the bottom.  All
    arithmetic is on integers.
    """
    A, B = base
    C, D = step
    s = min([max(abs(A + n * C), abs(B + n * D))
             for num, den in (((B - A, C - D), (-B - A, C + D)) if C and D
                              else ((-B, D),) if D else ((-A, C),)) if den
             for n in (num // den, num // den + 1)])
    lo = hi = None
    for K, S in ((A, C), (B, D)):
        if S:
            if S < 0:
                K, S = -K, -S
            n, m = -((s + K) // S), (s - K) // S
            if lo is None or n > lo:
                lo = n
            if hi is None or m < hi:
                hi = m
    # the floor of the Euclidean minimizer, clamped into the bottom: the
    # best two points of the bottom lie in f-1..f+1
    f = -(A * C + B * D) // (C * C + D * D)
    f = lo if f < lo else hi if f > hi else f
    return [(A + n * C, B + n * D)
            for n in (lo - 1, *range(max(f - 1, lo), min(f + 1, hi) + 1), hi + 1)]


def lattice_minima(v: PrimVec) -> tuple[Wedge2, Wedge2]:
    """The two shortest primitive classes (L, Hhat) of the pair lattice.

    Reduction plus a bounded slice enumeration: in a Lagrange-reduced basis
    (a, b) every point with sup norm up to the second minimum has b-coefficient
    in {-1, 0, 1}, because ||a|| ||b|| <= (2/sqrt3) covol and the orthogonal
    part of b is covol/||a||.  The b-coefficient 0 contributes only a (its
    multiples are longer).  The line -b + Z*a is the negation of b + Z*a,
    and +-classes identify the two, so ranking a together with the best two
    points of the single line b + Z*a finds both minima: whichever of L and
    Hhat is not a lies on that line, and so does the runner-up when L does.
    The at most six candidates are ranked as a sorted set of class keys, so
    the sign rule and the tie order are `class_key`'s, as in `scan_minima`.
    """
    a, b = _lagrange_reduce(*pair_basis(v))
    ranked = sorted({class_key(*p) for p in (a, *_line_candidates(b, a))})
    _, _, ly, lx = ranked[0]
    Hk = next((k for k in ranked if lx * k[2] != ly * k[3]), None)
    if Hk is None:  # pragma: no cover - enumeration always spans two lines
        raise RuntimeError(f"minima enumeration failed for {v}")
    _, _, hy, hx = Hk
    L = wedge_from_pair(v, lx, ly)
    H = wedge_from_pair(v, hx, hy)
    if math.gcd(*L) != 1 or math.gcd(*H) != 1:
        # impossible: an imprimitive element at a minimum level would yield a
        # strictly shorter lattice point below that level
        raise RuntimeError(f"imprimitive minimum for {v}")
    if abs(lx * hy - ly * hx) != v.q:
        raise RuntimeError(f"minima of {v} do not span the pair lattice")
    return L, H


def scan_minima(v: PrimVec) -> tuple[Wedge2, Wedge2]:
    """Independent O(|v|) verification route for lattice_minima.

    Walks the residue classes k*(p1,p2) + qZ^2 for k = 0..q//2 (the rest
    are their negatives) and keys every lift with both coordinates in
    [-q, q] (0 and +-q for a zero residue) except the origin.  L is the
    least `class_key`, Hhat the least key off L's line.  Used by the audits
    as a second opinion and by the test suite as an oracle.  Not for large
    heights.
    """
    q = v.q
    if q == 1:
        return wedge_from_pair(v, 1, 0), wedge_from_pair(v, 0, 1)

    def lifts(r: int) -> list[int]:
        # all representatives of r mod q with absolute value <= q
        r %= q
        return [0, q, -q] if r == 0 else [r, r - q]

    keys = [class_key(x, y) for k in range(q // 2 + 1)
            for x in lifts(k * v.p1) for y in lifts(k * v.p2) if x or y]
    _, _, ly, lx = min(keys)
    _, _, hy, hx = min([k for k in keys if lx * k[2] != ly * k[3]])
    return wedge_from_pair(v, lx, ly), wedge_from_pair(v, hx, hy)


class Invariants(NamedTuple):
    """Shortest-class data of the pair lattice of v.

    eps3 is the exact cube of the distortion eps(v); eps(v)^{3/2} itself is
    irrational in general, so exact fields carry squares/cubes and the float
    conveniences carry the roots.  exp3tau = e^{3 tau(v)} = |v|^2 / absL.
    """

    v: PrimVec
    L: Wedge2
    Lhat: Wedge2
    absL: int
    absLhat: int
    eps3: Fraction
    exp3tau: Fraction

    @property
    def eps(self) -> float:
        return math.exp(ln_fraction(self.eps3) / 3)

    @property
    def eps32(self) -> float:
        """eps(v)^{3/2} = absL / |v|^{1/2}."""
        return math.exp(ln_fraction(self.eps3) / 2)

    @property
    def tau(self) -> float:
        return ln_fraction(self.exp3tau) / 3

    def to_jsonable(self) -> dict:
        return {
            "v": [self.v.p1, self.v.p2, self.v.q],
            "L": list(self.L),
            "Lhat": list(self.Lhat),
            "absL": self.absL,
            "absLhat": self.absLhat,
            "eps_cubed": frac_str(self.eps3),
            "exp_3tau": frac_str(self.exp3tau),
            "eps_float": self.eps,
            "delta_float": self.eps32,
            "tau_float": self.tau,
        }


@functools.cache
def invariants(v: PrimVec) -> Invariants:
    """Shortest-class data of v, computed once per vector.

    The result is memoized for the life of the process and shared by every
    caller; `Invariants` is a named tuple, so callers cannot alter it.
    """
    L, H = lattice_minima(v)
    absL, absH = seminorm(L), seminorm(H)
    assert absL <= absH
    return Invariants(
        v=v, L=L, Lhat=H, absL=absL, absLhat=absH,
        eps3=Fraction(absL * absL, v.q),
        exp3tau=Fraction(v.q * v.q, absL),
    )


def absL_from_wedge(v: PrimVec, w: Wedge2) -> int:
    """|L(v)|, certified from w = +-(u ^ v) when w is primitive, 2|w|^2 < |v|.

    Then +-w is the unique shortest class of Lam(v), for any u: a w' off
    the line of w has |det(w, w')| >= |v| (the covolume) and |det(w, w')|
    <= 2|w||w'|, so |w'| >= |v|/(2|w|) > |w|.  So |L(v)| = |w| with no
    reduction.  Otherwise this falls back to invariants(v).absL.  A tree
    child whose shortest class is its wedge with the parent always passes
    the test, since a child in the band has |L|^2 < eps^3 |v| < |v|/8.
    """
    s = seminorm(w)
    if 2 * s * s < v.q and math.gcd(*w) == 1:
        return s
    return invariants(v).absL


def cube_below(absL: int, q: int, eps: Fraction) -> bool:
    """eps(v)^3 = absL^2/q < eps^3, exactly: with eps = n/d, iff
    absL^2 d^3 < n^3 q."""
    return absL * absL * eps.denominator**3 < eps.numerator**3 * q


def distortion_below(v: PrimVec, eps: Fraction) -> bool:
    """Strict test eps(v) < eps by exact comparison of cubes (`cube_below`)."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    return cube_below(invariants(v).absL, v.q, eps)


def wedge_residue(u: PrimVec, target: Wedge2) -> int:
    """Height residue class (mod |u|) forced by the wedge equation.

    A height h admits a vector v with wedge(v, u) = target exactly when
    h lies in this class; the numerators are then determined.
    """
    d, s, t = extgcd(u.p1, u.p2)
    g, e, _ = extgcd(d, u.q)
    if g != 1:
        raise ValueError(f"{u} is not primitive")
    alpha, beta = e * s, e * t
    return (-(alpha * target.m13 + beta * target.m23)) % u.q


def vector_with_wedge(u: PrimVec, target: Wedge2, h: int) -> PrimVec:
    """The vector v of height h with wedge(v, u) = target, exactly."""
    num1 = target.m13 + h * u.p1
    num2 = target.m23 + h * u.p2
    if num1 % u.q or num2 % u.q:
        raise ValueError(f"height {h} is not in the residue class of the target")
    v = PrimVec(num1 // u.q, num2 // u.q, h)
    assert wedge(v, u) == target
    return v


def companion_pair(v: PrimVec, L: Wedge2) -> tuple[PrimVec, PrimVec]:
    """The unique u_+, u_- with u_+ ^ v = L, u_- ^ v = -L, heights in (0, |v|].

    Verifies the sum dichotomy: u_+ + u_- equals v when the heights are
    below |v|, and 2v when both heights equal |v|.
    """
    if not wedge_constraint_ok(L, v):
        raise ValueError(f"{L} is not a wedge with {v}")
    up, um = (
        vector_with_wedge(v, T, wedge_residue(v, T) or v.q) for T in (L, L.neg())
    )
    if up.q < v.q:
        assert (up.p1 + um.p1, up.p2 + um.p2, up.q + um.q) == v
    else:
        total = (up.p1 + um.p1, up.p2 + um.p2, up.q + um.q)
        assert total == (2 * v.p1, 2 * v.p2, 2 * v.q)
    return up, um
