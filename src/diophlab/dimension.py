"""Self-similar covering dimension machinery.

Covering trees are trees of closed rational intervals (`CoverNode`).
Upper bounds come from per-node covering sums on a finite tree; lower
bounds from certificate conditions (child counts, containment, spacing,
power sums) checked with one global spacing ratio rho.  Two tree
families are built here: the distorted Cantor sets (`cantor_tree`) and
the quotient intervals I_N(v) of the large-quotient families
(`dn_tree`).  Closed-form analyses of both are provided alongside, with
bisection as the only root-finding method.

Containment and spacing comparisons are exact, on the rational
endpoints.  Powers with a real exponent are evaluated in binary64, and
the unit comparisons of the power sums carry a 1e-9 relative slack.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .cfrac import dn_children, quotient_interval
from .util import frac_str, ln_fraction

IV_REL_TOL = 1e-9
# Deepest binary interval tree built.  The tree holds 2^(depth+1) - 1
# nodes, so its cost doubles with each level: on a 2-core x86-64 host
# 'dims cantor --depth' took 0.15 s at depth 10, 2.4 s at 14 and 10 s
# (92 MB peak) at 16.
MAX_TREE_DEPTH = 12

# Known limiting dimensions this package deliberately does not recompute.
# The full values concern infinite constructions (the set of singular
# planar targets, and the reals whose partial quotients diverge); no
# finite run reproduces them.  What the suites certify instead is every
# finite ingredient those limits are assembled from: the exact Cantor
# dimension and its two bounds, the quotient-level brackets shrinking to
# 1/2, and the nested/spaced tree constructions at fixed depth.
KNOWN_LIMIT_DIMENSIONS = {
    "singular_planar_targets": Fraction(4, 3),
    "divergent_quotient_reals": Fraction(1, 2),
}


class CoverNode:
    """A node of a covering tree: the closed interval [lo, hi] with its
    children.  The endpoints are converted to Fraction; lo < hi is
    required, so every diameter is positive."""

    def __init__(self, id: str, lo, hi, children: list[CoverNode] | None = None):
        self.id = id
        self.lo, self.hi = Fraction(lo), Fraction(hi)
        if self.hi <= self.lo:
            raise ValueError("empty interval")
        self.children = [] if children is None else children

    @property
    def diam(self) -> Fraction:
        return self.hi - self.lo


def set_distance(a: CoverNode, b: CoverNode) -> Fraction:
    """Exact distance between the intervals of two nodes."""
    return max(Fraction(0), b.lo - a.hi, a.lo - b.hi)


def set_contains(parent: CoverNode, child: CoverNode) -> bool:
    return parent.lo <= child.lo and child.hi <= parent.hi


class DimResult(NamedTuple):
    s: float
    residual: float
    method: str

    def to_jsonable(self) -> dict:
        return {"s": self.s, "residual": self.residual, "method": self.method}


def _bisect(below, lo: float, hi: float) -> float:
    """Where below turns false in [lo, hi]: 200 halvings, each moving lo
    up to a midpoint where below holds and hi down to any other; the
    final midpoint is returned."""
    for _ in range(200):
        mid = (lo + hi) / 2
        if below(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _solve_sum_pow(ratios: list[float]) -> tuple[float, float]:
    """The s with sum(r^s) = 1 for ratios in (0,1), by bisection."""
    if len(ratios) == 1:
        return 0.0, 0.0

    def f(s: float) -> float:
        return sum(r**s for r in ratios) - 1.0

    lo, hi = 0.0, 1.0
    while f(hi) > 0:
        hi *= 2
        if hi > 2**40:
            raise RuntimeError("covering sum does not drop below one")
    s = _bisect(lambda s: f(s) > 0, lo, hi)
    return s, abs(f(s))


def _internal_nodes(root: CoverNode):
    stack = [root]
    while stack:
        n = stack.pop()
        if n.children:
            yield n
            stack.extend(n.children)


def covering_s_estimate(tree: CoverNode) -> DimResult:
    """Supremum over internal nodes of the per-node covering exponent.
    Each distinct tuple of child ratios is solved once."""
    best, worst_res = 0.0, 0.0
    seen = False
    solved: dict[tuple[float, ...], tuple[float, float]] = {}
    for node in _internal_nodes(tree):
        ratios = []
        diam = node.diam
        for c in node.children:
            r = c.diam / diam
            if r >= 1:
                raise ValueError(f"child ratio >= 1 at node {node.id}")
            ratios.append(float(r))
        key = tuple(ratios)
        if key not in solved:
            solved[key] = _solve_sum_pow(ratios)
        s, res = solved[key]
        seen = True
        if s > best:
            best, worst_res = s, res
    if not seen:
        raise ValueError("tree has no internal node")
    return DimResult(best, worst_res, "covering")


def lower_cert(tree: CoverNode, s: float, rho) -> dict:
    """Certificate conditions for a dimension lower bound at exponent s.

    Checks at every internal node: (i) at least two children, each
    contained in the parent; (ii) strictly shrinking diameters; (iii)
    distances between adjacent children, sorted by lo, at least rho *
    parent diameter, which for disjoint intervals bounds every pair;
    (iv) sum of child diam^s at least parent diam^s.  rho must lie in
    (0, 1), else ValueError.

    Distances and containment are exact; the power sums accept a 1e-9
    relative shortfall.  Returns per-condition results, all violations,
    and the extremal measured ratios.
    """
    rho = Fraction(rho)
    if not 0 < rho < 1:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    violations = []
    min_gap_ratio = None
    min_sum_ratio = None
    for node in _internal_nodes(tree):
        kids, diam = node.children, node.diam
        if len(kids) < 2:
            violations.append({"node": node.id, "cond": "i", "detail": "fewer than 2 children"})
        for c in kids:
            if not set_contains(node, c):
                violations.append({"node": node.id, "cond": "i", "detail": f"{c.id} not contained"})
            if c.diam >= diam:
                violations.append({"node": node.id, "cond": "ii", "detail": f"{c.id} does not shrink"})
        floor = rho * diam
        srt = sorted(kids, key=lambda c: c.lo)
        for a, b in zip(srt, srt[1:]):
            d = set_distance(a, b)
            ratio = d / diam
            if min_gap_ratio is None or ratio < min_gap_ratio:
                min_gap_ratio = ratio
            if d < floor:
                violations.append(
                    {"node": node.id, "cond": "iii", "detail": f"gap {a.id}|{b.id} below floor"}
                )
        ratio = sum(float(c.diam / diam) ** s for c in kids)
        if min_sum_ratio is None or ratio < min_sum_ratio:
            min_sum_ratio = ratio
        if ratio < 1 - IV_REL_TOL:
            violations.append(
                {"node": node.id, "cond": "iv", "detail": f"power sum ratio {ratio:.6f}"}
            )
    return {
        "s": s,
        "pass": not violations,
        "violations": violations,
        "first_violation": violations[0] if violations else None,
        "min_gap_ratio": None if min_gap_ratio is None else float(min_gap_ratio),
        "min_sum_ratio": min_sum_ratio,
    }


def binary_interval_tree(depth: int, left_frac, right_frac) -> CoverNode:
    """Binary interval tree on [0,1]: children keep the given fractions
    of each parent, one flush left, one flush right.  Raises ValueError
    when depth exceeds MAX_TREE_DEPTH = 12."""
    if depth > MAX_TREE_DEPTH:
        raise ValueError(f"tree depth {depth} exceeds the cap of {MAX_TREE_DEPTH}")
    lf, rf = Fraction(left_frac), Fraction(right_frac)
    if not (0 < lf and 0 < rf and lf + rf < 1):
        raise ValueError("fractions must be positive with a gap remaining")

    def build(id: str, lo: Fraction, hi: Fraction, d: int) -> CoverNode:
        node = CoverNode(id, lo, hi)
        if d < depth:
            ln = hi - lo
            node.children = [
                build(id + "L", lo, lo + ln * lf, d + 1),
                build(id + "R", hi - ln * rf, hi, d + 1),
            ]
        return node

    return build("0", Fraction(0), Fraction(1), 0)


def cantor_tree(delta, depth: int) -> CoverNode:
    """The distorted Cantor construction: pieces delta/2 and 1/2."""
    delta = Fraction(delta)
    return binary_interval_tree(depth, delta / 2, Fraction(1, 2))


def cantor_exact_dim(delta) -> DimResult:
    """Root of 2^s = 1 + delta^s in (0, 1].

    delta^s is exp(s ln delta) with ln delta taken from the exact rational,
    so a delta below the binary64 range still gives its root."""
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    ln_d = ln_fraction(delta)

    def g(s: float) -> float:
        return 2.0**s - 1.0 - math.exp(s * ln_d)

    s = _bisect(lambda s: g(s) < 0, 1e-15, 1.0)
    return DimResult(s, abs(g(s)), "cantor")


def cantor_bounds(delta) -> tuple[float, float]:
    """Density and gap lower bounds (h_d, h_g) for the distorted Cantor set."""
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    h_d = math.log1p(float(delta)) / math.log(2)
    h_g = math.log(2) / (math.log(2) - ln_fraction(delta))
    return h_d, h_g


def bounds_crossing() -> dict:
    """Where the density and gap bounds cross, with the common value."""

    def density_below_gap(d: float) -> bool:
        h_d, h_g = cantor_bounds(d)
        return h_d < h_g

    delta = _bisect(density_below_gap, 0.05, 0.9)
    h_d, h_g = cantor_bounds(delta)
    return {"delta": delta, "h": h_d, "residual": abs(h_d - h_g)}


def _dn_equation(u: float, base_num: float) -> float:
    return math.log(base_num / u) / u


def dn_bounds(N: int) -> tuple[DimResult, DimResult]:
    """The bracketing exponents (s_minus, s_plus) for quotient level N.

    Each solves log N = (1/(2s-1)) log(base/(2s-1)) with base 1/6 and 4
    respectively, by bisection over s in (1/2, 1).
    """
    if N < 72:
        raise ValueError("defined for N >= 72")
    target = math.log(N)
    out = []
    for base, tag in ((1.0 / 6.0, "dn-minus"), (4.0, "dn-plus")):
        s = _bisect(lambda s: _dn_equation(2 * s - 1, base) > target,
                    0.5 + 1e-15, 1.0 - 1e-15)
        out.append(DimResult(s, abs(_dn_equation(2 * s - 1, base) - target), tag))
    return out[0], out[1]


def dn_exact_inversion(s: Fraction, kind: str) -> Fraction:
    """The exact N solving the defining equation at a rational s.

    Only defined when 1/(2s-1) is a positive integer, which is what makes
    the inversion exact; used as a self-test of the transcendental
    equations on rational points.
    """
    s = Fraction(s)
    u = 2 * s - 1
    if u <= 0:
        raise ValueError("need s > 1/2")
    expo = 1 / u
    if expo.denominator != 1:
        raise ValueError("1/(2s-1) must be an integer for the exact form")
    base = {"plus": Fraction(4), "minus": Fraction(1, 6)}[kind] / u
    return base ** int(expo)


def dn_asymptotic_ratio(s: float, N: int) -> float:
    """(2s-1) log N / log log N, the quantity tending to one."""
    return (2 * s - 1) * math.log(N) / math.log(math.log(N))


def dn_tree(
    root,
    N: int,
    depth: int,
    a_max: int | None = None,
    descend: int | None = None,
) -> CoverNode:
    """Covering tree of the quotient intervals I_N(v) below root, to the
    given depth; each node is the interval of v, with id frac_str(v).

    Every node above the bottom gets its full child list
    (`cfrac.dn_children`); `descend` caps how many of those children are
    recursively expanded in turn (evenly spread across the list), which
    keeps deep audits of wide trees affordable while still exercising
    every level.
    """

    def build(v: Fraction, d: int) -> CoverNode:
        iv = quotient_interval(v, N)
        node = CoverNode(frac_str(v), iv.lo, iv.hi)
        if d < depth:
            kids = dn_children(v, N, a_max)
            if descend is None or descend >= len(kids):
                picks = range(len(kids))
            else:
                step = len(kids) / descend
                picks = {int(i * step) for i in range(descend)}
            node.children = [build(c, d + 1 if i in picks else depth)
                             for i, c in enumerate(kids)]
        return node

    return build(Fraction(root), 0)
