"""Self-similar covering dimension machinery.

Upper bounds come from per-node covering sums on a finite tree; lower
bounds from certificate conditions (child counts, containment, spacing,
power sums), in a plain and a weighted variant.  Closed-form analyses of
the distorted Cantor sets and of the large-quotient interval families are
provided alongside, with bisection as the only root-finding method.

Geometry is exact where the inputs are exact: containment and spacing
comparisons run on rationals whenever nodes carry rational interval or
ball data.  Powers with a real exponent are evaluated in binary64, and
the unit comparisons of the power sums carry a 1e-9 relative slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .cfrac import DNNode
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


@dataclass
class CoverNode:
    """A node of a covering tree: a bounded set with its children.

    geom is ("interval", lo, hi) or ("ball", cx, cy, r) with sup-norm
    balls, and diam must match it; interval_node and ball_node build both.
    rho is the optional per-node weight for the weighted certificate.
    """

    id: str
    diam: Fraction
    geom: tuple
    children: list["CoverNode"] = field(default_factory=list)
    rho: Fraction | None = None


def interval_node(id: str, lo, hi, rho=None) -> CoverNode:
    lo, hi = Fraction(lo), Fraction(hi)
    if hi <= lo:
        raise ValueError("empty interval")
    return CoverNode(id, hi - lo, ("interval", lo, hi), rho=rho)


def ball_node(id: str, cx, cy, r, rho=None) -> CoverNode:
    r = Fraction(r)
    if r <= 0:
        raise ValueError("ball radius must be positive")
    return CoverNode(id, 2 * r, ("ball", Fraction(cx), Fraction(cy), r), rho=rho)


def set_distance(a: CoverNode, b: CoverNode):
    """Exact distance between the sets of two nodes."""
    if a.geom[0] == "interval" and b.geom[0] == "interval":
        _, alo, ahi = a.geom
        _, blo, bhi = b.geom
        return max(Fraction(0), blo - ahi, alo - bhi)
    if a.geom[0] == "ball" and b.geom[0] == "ball":
        _, ax, ay, ar = a.geom
        _, bx, by, br = b.geom
        center = max(abs(ax - bx), abs(ay - by))
        return max(Fraction(0), center - ar - br)
    raise ValueError("mixed geometries")


def set_contains(parent: CoverNode, child: CoverNode) -> bool:
    if parent.geom[0] == "interval" and child.geom[0] == "interval":
        _, plo, phi = parent.geom
        _, clo, chi = child.geom
        return plo <= clo and chi <= phi
    if parent.geom[0] == "ball" and child.geom[0] == "ball":
        _, px, py, pr = parent.geom
        _, cx, cy, cr = child.geom
        return max(abs(px - cx), abs(py - cy)) + cr <= pr
    raise ValueError("mixed geometries")


@dataclass(frozen=True)
class DimResult:
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
    """Supremum over internal nodes of the per-node covering exponent."""
    best, worst_res = 0.0, 0.0
    seen = False
    for node in _internal_nodes(tree):
        ratios = []
        for c in node.children:
            r = c.diam / node.diam
            if r >= 1:
                raise ValueError(f"child ratio >= 1 at node {node.id}")
            if r <= 0:
                raise ValueError(f"empty child at node {node.id}")
            ratios.append(float(r))
        s, res = _solve_sum_pow(ratios)
        seen = True
        if s > best:
            best, worst_res = s, res
    if not seen:
        raise ValueError("tree has no internal node")
    return DimResult(best, worst_res, "covering")


def lower_cert(tree: CoverNode, s: float, rho=None) -> dict:
    """Certificate conditions for a dimension lower bound at exponent s.

    With a global rho, checks at every internal node: (i) at least two
    children, each contained in the parent; (ii) strictly shrinking
    diameters; (iii) pairwise child distances at least rho * parent
    diameter; (iv) sum of child diam^s at least parent diam^s.  With
    rho=None the weighted variant runs instead, reading per-node weights
    off the nodes and weighting both sides of (iv) accordingly.

    Distances and containment are exact; the power sums accept a 1e-9
    relative shortfall.  Returns per-condition results, all violations,
    and the extremal measured ratios.
    """
    weighted = rho is None
    violations = []
    min_gap_ratio = None
    min_sum_ratio = None
    for node in _internal_nodes(tree):
        kids = node.children
        if len(kids) < 2:
            violations.append({"node": node.id, "cond": "i", "detail": "fewer than 2 children"})
        for c in kids:
            if not set_contains(node, c):
                violations.append({"node": node.id, "cond": "i", "detail": f"{c.id} not contained"})
            if c.diam >= node.diam:
                violations.append({"node": node.id, "cond": "ii", "detail": f"{c.id} does not shrink"})
        r = node.rho if weighted else rho
        if r is None or not 0 < r < 1:
            violations.append({"node": node.id, "cond": "iii", "detail": "missing or invalid weight"})
            r = None
        if r is not None and len(kids) >= 2:
            floor = r * node.diam
            interval_kids = all(c.geom[0] == "interval" for c in kids)
            if interval_kids:
                # disjoint intervals: adjacent gaps witness all pairs
                srt = sorted(kids, key=lambda c: c.geom[1])
                pairs = list(zip(srt, srt[1:]))
            else:
                pairs = [
                    (a, b) for i, a in enumerate(kids) for b in kids[i + 1 :]
                ]
            for a, b in pairs:
                d = set_distance(a, b)
                ratio = d / node.diam
                if min_gap_ratio is None or ratio < min_gap_ratio:
                    min_gap_ratio = ratio
                if d < floor:
                    violations.append(
                        {"node": node.id, "cond": "iii", "detail": f"gap {a.id}|{b.id} below floor"}
                    )
        if kids:
            if weighted:
                lhs = sum(float(c.rho * c.diam) ** s for c in kids if c.rho)
                rhs = float((node.rho or 0) * node.diam) ** s
            else:
                lhs = sum(float(c.diam) ** s for c in kids)
                rhs = float(node.diam) ** s
            ratio = lhs / rhs if rhs else float("inf")
            if min_sum_ratio is None or ratio < min_sum_ratio:
                min_sum_ratio = ratio
            if ratio < 1 - IV_REL_TOL:
                violations.append(
                    {"node": node.id, "cond": "iv", "detail": f"power sum ratio {ratio:.6f}"}
                )
    return {
        "s": s,
        "weighted": weighted,
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
        node = interval_node(id, lo, hi)
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


def dn_cover(node: DNNode) -> CoverNode:
    """Covering-tree view of a quotient-interval tree node."""
    cn = interval_node(frac_str(node.v), node.interval.lo, node.interval.hi)
    cn.children = [dn_cover(c) for c in node.children]
    return cn
