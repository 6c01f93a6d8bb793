"""Domains of approximation: the set of targets a given vector best-approximates.

For a primitive vector v the domain is the set of x that admit v as a
best approximation.  It is sandwiched between two sup-norm balls around
the rational point of v, with exactly computable radii, and membership
itself is decidable exactly, by enumerating the lattice points of one box
of lower heights.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .bestapprox import BestApproxSeq, Breakpoint, _box_heights, height_minimum
from .core import PrimVec, RatPoint, residual, seminorm, wedge
from .latinv import invariants
from .util import frac_str


class BallBounds(NamedTuple):
    """Inner and outer sup-norm balls around v's rational point.

    r = |L(v)|/|v|^2; the domain of v contains the ball of radius r/2 and
    is contained in the ball of radius 2r.
    """

    center: RatPoint
    r: Fraction

    @property
    def inner(self) -> Fraction:
        return self.r / 2

    @property
    def outer(self) -> Fraction:
        return 2 * self.r

    def to_jsonable(self) -> dict:
        return {
            "center": [frac_str(c) for c in self.center],
            "r": frac_str(self.r),
            "inner": frac_str(self.inner),
            "outer": frac_str(self.outer),
        }


def _radius_numerator(v: PrimVec) -> int:
    """|L(v)|, the numerator of r = |L(v)|/|v|^2; the balls need |v| > 1."""
    if v.q <= 1:
        raise ValueError("ball bounds need height > 1")
    return invariants(v).absL


def ball_bounds(v: PrimVec) -> BallBounds:
    return BallBounds(v.proj(), Fraction(_radius_numerator(v), v.q * v.q))


def in_domain(x: RatPoint, v: PrimVec) -> bool:
    """Exact membership: is v a best approximation to x?

    No height below |v| may reach v's residual (strict comparison), and
    no numerator pair at height |v| may beat it (weak comparison).  The
    lower heights are searched as the lattice points of one box (below).

    A zero residual puts x at v's rational point, whose reduced
    denominator is |v| because v is primitive, so no lower height
    reaches it.  Minkowski's theorem settles large boxes without a
    search: the body |q| <= 1/r^2, ||q x - p|| <= r has volume 8, so for
    r < 1 it holds an integer point with 0 < q <= 1/r^2 and residual at
    most r (and for r >= 1/2 height 1 already reaches r).  So v is no
    member once (|v| - 1) res_v^2 >= 1, and a box that is searched has
    volume 4 (|v| - 1) res_v^2 < 4.  in_domain_scan is the
    height-by-height oracle.

    Every test runs in integers scaled by the common denominator D of
    x = (n1/D, n2/D), with res_v = R/D, R = max_i |q n_i - p_i D|: the
    zero residual is R = 0, the Minkowski test is (|v| - 1) R^2 >= D^2,
    the box is bestapprox._box_heights(n1, n2, D, |v| - 1, R), and the
    last test compares R with max_i min(q n_i mod D, D - q n_i mod D),
    the residual numerator at height |v|.
    """
    return _member(*x.common_denominator(), v)


def _member(n1: int, n2: int, den: int, v: PrimVec) -> bool:
    """in_domain at x = (n1/den, n2/den), for any den > 0.

    The triple is first divided by its gcd, so a non-minimal den enters
    the same lattice as the minimal one.
    """
    g = math.gcd(n1, n2, den)
    n1, n2, den = n1 // g, n2 // g, den // g
    p1, p2, q = v
    R = max(abs(q * n1 - p1 * den), abs(q * n2 - p2 * den))
    if R == 0:
        return True
    if (q - 1) * R * R >= den * den:
        return False
    # at |v| = 1 there is no lower height to search
    if q > 1 and next(_box_heights(n1, n2, den, q - 1, R), None) is not None:
        return False
    t1, t2 = q * n1 % den, q * n2 % den
    return max(min(t1, den - t1), min(t2, den - t2)) >= R


def in_domain_scan(x: RatPoint, v: PrimVec) -> bool:
    """in_domain by scanning every height up to |v|: the oracle that the
    lattice-box route is tested against."""
    res_v = residual(x, v)
    for q in range(1, v.q):
        if height_minimum(x, q)[0] <= res_v:
            return False
    return height_minimum(x, v.q)[0] >= res_v


def crossing(x: RatPoint, u: PrimVec, v: PrimVec) -> Breakpoint:
    """Exact crossing data for a lower-height u against a domain member v.

    Returns the crossing as a profile breakpoint: the stored pair
    (|v|, residual of u) determines the crossing time T = |v|/residual
    and the cubed crossing value |v| * residual^2 exactly.
    """
    if u.q >= v.q:
        raise ValueError("need |u| < |v|")
    res_u = residual(x, u)
    if res_u == 0:
        raise ValueError("u is an exact hit; no crossing")
    if not in_domain(x, v):
        raise ValueError("x is not in the domain of v")
    return Breakpoint("max", v.q, res_u)


def _grid(v: PrimVec, k: int, lo: int, step: int, n: int) -> list[tuple[int, int]]:
    """Numerators (n1, n2) over D = k|v| of the n x n grid of points
    v_dot + (lo + i step, lo + j step)/D, 0 <= i, j < n, with i outer."""
    c1, c2 = k * v.p1 + lo, k * v.p2 + lo
    return [(c1 + i * step, c2 + j * step) for i in range(n) for j in range(n)]


def _inner_grid(v: PrimVec, L: int) -> tuple[int, list[tuple[int, int]]]:
    """audit_ball_sandwich's inner grid, domain_samples(v, r/2), as
    (D, numerator pairs) over D = 6|v|^2, for r = L/|v|^2."""
    return 6 * v.q * v.q, _grid(v, 6 * v.q, -2 * L, L, 5)


def _outer_grid(v: PrimVec, L: int) -> tuple[int, list[tuple[int, int]]]:
    """audit_ball_sandwich's 6x6 sweep of the 4r box, from v_dot - 4r in
    steps of 8r/5, as (D, numerator pairs) over D = 5|v|^2."""
    return 5 * v.q * v.q, _grid(v, 5 * v.q, -20 * L, 8 * L, 6)


def domain_samples(v: PrimVec, radius: Fraction, steps: int = 5) -> list[RatPoint]:
    """Deterministic (steps x steps) rational grid in the open ball B(v_dot, radius)."""
    half = (steps - 1) // 2
    s = Fraction(radius) / (half + 1)
    den, step = v.q * s.denominator, v.q * s.numerator
    return [RatPoint(Fraction(n1, den), Fraction(n2, den))
            for n1, n2 in _grid(v, s.denominator, -half * step, step, steps)]


def audit_ball_sandwich(v: PrimVec) -> dict:
    """Sampled check of the two-sided ball inclusion for one vector.

    Every point of a 5x5 grid inside the inner ball must be a member;
    every member found on a 6x6 sweep of the 4r box must lie within the
    outer ball.  All comparisons exact, in integers: with r = |L|/|v|^2,
    the inner grid (domain_samples at radius r/2, step r/6) is numerators
    over 6|v|^2, the outer sweep (from v_dot - 4r in steps of 8r/5) is
    numerators over 5|v|^2, on which the outer radius 2r is 10|L|.  Each
    point goes to the integer core of in_domain (see there: R, D,
    (|v| - 1) R^2 >= D^2, the box pair (Q D, R)); outer points within the
    outer ball are not tested.  Raises ValueError for |v| <= 1, as
    ball_bounds does.
    """
    L = _radius_numerator(v)
    den, pts = _inner_grid(v, L)
    inner_ok = all(_member(n1, n2, den, v) for n1, n2 in pts)
    den, pts = _outer_grid(v, L)
    c1, c2 = 5 * v.q * v.p1, 5 * v.q * v.p2
    outer_ok = not any(
        max(abs(n1 - c1), abs(n2 - c2)) > 10 * L and _member(n1, n2, den, v)
        for n1, n2 in pts
    )
    return {
        "v": str(v),
        "inner_ok": inner_ok,
        "outer_ok": outer_ok,
        "pass": inner_ok and outer_ok,
    }


def half_domain_witness_ok(x: RatPoint, u: PrimVec, v: PrimVec) -> bool:
    """Exact check of dist(x, u) > dist(w, u) with w = u + v, on {hor(u) > hor(v)}.

    The precondition is the pairwise domain membership (u loses to v at
    x); callers must also keep |u| <= |v|, as the bound fails without it.
    The sum w need not be primitive; only its rational point matters.
    """
    if u.q > v.q:
        raise ValueError("need |u| <= |v|")
    if residual(x, u) <= residual(x, v):
        raise ValueError("x must lie where u loses to v")
    wq = u.q + v.q
    wdot = RatPoint(Fraction(u.p1 + v.p1, wq), Fraction(u.p2 + v.p2, wq))
    udot = u.proj()
    dxu = max(abs(x.x1 - udot.x1), abs(x.x2 - udot.x2))
    dwu = max(abs(wdot.x1 - udot.x1), abs(wdot.x2 - udot.x2))
    return dxu > dwu


def di_tail_check(seq: BestApproxSeq, delta: Fraction) -> dict:
    """Per-step smallness report for the crossing sizes of a sequence.

    Row j compares delta_j = |v_j|^(1/2) * residual(v_{j-1}) against the
    threshold (squared comparison, exact), reports the intrinsic proxy
    |v_{j-1} ^ v_j| / |v_j|^(1/2), and checks the factor-2 bracket tying
    the two together.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("threshold must be positive")
    rows = []
    for j in range(1, len(seq.items)):
        u, v = seq.items[j - 1], seq.items[j]
        res_u = seq.residuals[j - 1]
        delta_sq = v.q * res_u * res_u
        labs = seminorm(wedge(u, v))
        proxy_sq = Fraction(labs * labs, v.q)
        # bracket: (1/2) proxy <= delta_j <= 2 proxy, squared form
        bracket_ok = proxy_sq <= 4 * delta_sq and delta_sq <= 4 * proxy_sq
        rows.append(
            {
                "j": j,
                "height": v.q,
                "delta_sq": frac_str(delta_sq),
                "below": delta_sq < delta * delta,
                "proxy_sq": frac_str(proxy_sq),
                "bracket_ok": bracket_ok,
            }
        )
    return {
        "target": [frac_str(c) for c in seq.target],
        "delta": frac_str(delta),
        "rows": rows,
        "all_below": all(r["below"] for r in rows),
        "exact_hit_tail": seq.exact_hit,
    }
