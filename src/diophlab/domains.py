"""Domains of approximation: the set of targets a given vector best-approximates.

For a primitive vector v the domain is the set of x that admit v as a
best approximation.  It is sandwiched between two sup-norm balls around
the rational point of v, with exactly computable radii, and membership
itself is decidable exactly, by enumerating the lattice points of one box
of lower heights.
"""

from __future__ import annotations

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
    lower heights are searched as the lattice points of one box (see
    _members, which decides a whole set of points at once).

    A zero residual puts x at v's rational point, whose reduced
    denominator is |v| because v is primitive, so no lower height
    reaches it.  Minkowski's theorem settles large boxes without a
    search: the body |q| <= 1/r^2, ||q x - p|| <= r has volume 8, so for
    r < 1 it holds an integer point with 0 < q <= 1/r^2 and residual at
    most r (and for r >= 1/2 height 1 already reaches r).  So v is no
    member once (|v| - 1) res_v^2 >= 1.  in_domain_scan is the
    height-by-height oracle.
    """
    n1, n2, den = x.common_denominator()
    return _members(v, den, [(n1, n2)])[0]


def _members(v: PrimVec, den: int, pts: list[tuple[int, int]]) -> list[bool]:
    """in_domain at each point (n1/den, n2/den) of pts, for any den > 0.

    Every test runs in integers over den.  Point j has v's residual
    R_j/den, R_j = max_i |q n_i - p_i den| for v = (p1, p2, q): R_j = 0
    makes it a member and (q - 1) R_j^2 >= den^2 a non-member (see
    in_domain).  The points left share one box of lower heights around
    v_dot = (p1/q, p2/q): _box_heights(p1, p2, q, q - 1, r) with
    r = ceil(max_j R_j (2q - 1)/den).  A height h < q with residual at
    most R_j/den at x_j has residual at most R_j (1 + h/q)/den at v_dot,
    because |x_j - v_dot| = R_j/(q den), so the box holds every height
    that could beat v at any of the points.  Its volume (q - 1) r^2/q^2
    stays under about 4, as (q - 1) R_j^2 < den^2.  A point is no member
    when its own residual numerator at some box height is at most R_j,
    and otherwise a member when its residual numerator at height q is at
    least R_j.
    """
    p1, p2, q = v
    Rs = [max(abs(q * n1 - p1 * den), abs(q * n2 - p2 * den)) for n1, n2 in pts]
    out = [R == 0 for R in Rs]
    todo = [j for j, R in enumerate(Rs) if R and (q - 1) * R * R < den * den]
    heights = ()
    if todo and q > 1:  # at |v| = 1 there is no lower height to search
        r = -(-max(Rs[j] for j in todo) * (2 * q - 1) // den)
        heights = {h for h, _ in _box_heights(p1, p2, q, q - 1, r)}
    for j in todo:
        n1, n2 = pts[j]
        out[j] = (all(_residual_numerator(h, n1, n2, den) > Rs[j] for h in heights)
                  and _residual_numerator(q, n1, n2, den) >= Rs[j])
    return out


def _residual_numerator(h: int, n1: int, n2: int, den: int) -> int:
    """den times the least residual ||h x - p|| at x = (n1/den, n2/den)."""
    t1, t2 = h * n1 % den, h * n2 % den
    return max(min(t1, den - t1), min(t2, den - t2))


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
    """audit_ball_sandwich's inner grid, v_dot + (i, j) r/6 for |i|, |j| <= 2,
    as (D, numerator pairs) over D = 6|v|^2, for r = L/|v|^2."""
    return 6 * v.q * v.q, _grid(v, 6 * v.q, -2 * L, L, 5)


def _outer_grid(v: PrimVec, L: int) -> tuple[int, list[tuple[int, int]]]:
    """audit_ball_sandwich's 6x6 sweep of the 4r box, from v_dot - 4r in
    steps of 8r/5, as (D, numerator pairs) over D = 5|v|^2."""
    return 5 * v.q * v.q, _grid(v, 5 * v.q, -20 * L, 8 * L, 6)


def audit_ball_sandwich(v: PrimVec) -> dict:
    """Sampled check of the two-sided ball inclusion for one vector.

    Every point of a 5x5 grid inside the inner ball must be a member;
    every member found on a 6x6 sweep of the 4r box must lie within the
    outer ball.  All comparisons exact, in integers: with r = |L|/|v|^2,
    the inner grid (in the ball of radius r/2, step r/6) is numerators
    over 6|v|^2, the outer sweep (from v_dot - 4r in steps of 8r/5) is
    numerators over 5|v|^2, on which the outer radius 2r is 10|L|.  Each
    grid goes to _members in one call, so one box of lower heights around
    v_dot decides all its points (see there); outer points within the
    outer ball are not tested.  Raises ValueError for |v| <= 1, as
    ball_bounds does.
    """
    L = _radius_numerator(v)
    den, pts = _inner_grid(v, L)
    inner_ok = all(_members(v, den, pts))
    den, pts = _outer_grid(v, L)
    c1, c2 = 5 * v.q * v.p1, 5 * v.q * v.p2
    far = [(n1, n2) for n1, n2 in pts if max(abs(n1 - c1), abs(n2 - c2)) > 10 * L]
    outer_ok = not any(_members(v, den, far))
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
