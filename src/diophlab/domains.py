"""Domains of approximation: the set of targets a given vector best-approximates.

For a primitive vector v the domain is the set of x that admit v as a
best approximation.  It is sandwiched between two sup-norm balls around
the rational point of v, with exactly computable radii, and membership
itself is decidable exactly, by enumerating the lattice points of one box
of lower heights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bestapprox import BestApproxSeq, Breakpoint, box_points, height_minimum
from .core import PrimVec, RatPoint, residual, seminorm, wedge
from .latinv import invariants
from .util import frac_str


@dataclass(frozen=True)
class BallBounds:
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
            "center": [frac_str(c) for c in self.center.coords],
            "r": frac_str(self.r),
            "inner": frac_str(self.inner),
            "outer": frac_str(self.outer),
        }


def ball_bounds(v: PrimVec) -> BallBounds:
    if v.q <= 1:
        raise ValueError("ball bounds need height > 1")
    inv = invariants(v)
    return BallBounds(v.proj(), Fraction(inv.absL, v.q * v.q))


def in_domain(x: RatPoint, v: PrimVec) -> bool:
    """Exact membership: is v a best approximation to x?

    No height below |v| may reach v's residual (strict comparison), and
    no numerator pair at height |v| may beat it (weak comparison).  The
    lower heights are searched as lattice points: any of them that
    reaches the residual shows up in box_points(x, |v| - 1, res_v).

    A zero residual puts x at v's rational point, whose reduced
    denominator is |v| because v is primitive, so no lower height
    reaches it.  Minkowski's theorem settles large boxes without a
    search: the body |q| <= 1/r^2, ||q x - p|| <= r has volume 8, so for
    r < 1 it holds an integer point with 0 < q <= 1/r^2 and residual at
    most r (and for r >= 1/2 height 1 already reaches r).  So v is no
    member once (|v| - 1) res_v^2 >= 1, and a box that is searched has
    volume 4 (|v| - 1) res_v^2 < 4.  in_domain_scan is the
    height-by-height oracle.
    """
    res_v = residual(x, v)
    if res_v == 0:
        return True
    if (v.q - 1) * res_v * res_v >= 1:
        return False
    if next(box_points(x, v.q - 1, res_v), None) is not None:
        return False
    return height_minimum(x, v.q)[0] >= res_v


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


def domain_samples(v: PrimVec, radius: Fraction, steps: int = 5) -> list[RatPoint]:
    """Deterministic (steps x steps) rational grid in the open ball B(v_dot, radius)."""
    c = v.proj()
    half = (steps - 1) // 2
    s = radius / (half + 1)
    pts = []
    for i in range(-half, steps - half):
        for j in range(-half, steps - half):
            pts.append(RatPoint(c.x1 + i * s, c.x2 + j * s))
    return pts


def audit_ball_sandwich(v: PrimVec, rejects: int = 40) -> dict:
    """Sampled check of the two-sided ball inclusion for one vector.

    Every point of a 5x5 grid inside the inner ball must be a member;
    every member found on a deterministic coarse sweep of the 4r box must
    lie within the outer ball.  All comparisons exact.
    """
    if rejects < 0:
        raise ValueError(f"rejects must be nonnegative, got {rejects}")
    bb = ball_bounds(v)
    c = bb.center
    inner_ok = all(in_domain(p, v) for p in domain_samples(v, bb.inner))
    outer_ok = True
    n = max(3, int(rejects**0.5))
    step = 2 * bb.outer * 2 / (n - 1)  # sweep the box of radius 4r = 2*outer
    for i in range(n):
        for j in range(n):
            p = RatPoint(
                c.x1 - 2 * bb.outer + i * step, c.x2 - 2 * bb.outer + j * step
            )
            if in_domain(p, v):
                d = max(abs(p.x1 - c.x1), abs(p.x2 - c.x2))
                if d > bb.outer:
                    outer_ok = False
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
        "target": [frac_str(c) for c in seq.target.coords],
        "delta": frac_str(delta),
        "rows": rows,
        "all_below": all(r["below"] for r in rows),
        "exact_hit_tail": seq.exact_hit,
    }
