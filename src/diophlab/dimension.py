"""Self-similar covering dimension machinery.

Covering trees are trees of closed rational intervals (`CoverNode`).
Upper bounds come from per-node covering sums on a finite tree; lower
bounds from certificate conditions (child counts, containment, spacing,
power sums) checked with one global spacing ratio rho.  Two tree
families are built here: the distorted Cantor sets (`cantor_tree`) and
the quotient intervals I_N(v) of the large-quotient families
(`dn_tree`).  Closed-form analyses of both are provided alongside, with
bisection as the only root-finding method.

Containment, shrinking and spacing are integer cross-multiplications, in
`cfrac.family_faults`, which `cfrac.dn_gap_audit` shares.  Power-sum
terms are binary64 powers of integer diameter ratios, and the unit
comparisons of the power sums carry a 1e-9 relative slack.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .cfrac import _child_pairs, _interval_ends, diameter_ratios, family_faults
from .util import ln_fraction

IV_REL_TOL = 1e-9
# Deepest binary interval tree built.  The tree holds 2^(depth+1) - 1
# nodes, so its cost doubles with each level: on a 2-core x86-64 host
# 'dims cantor --depth' took 0.15 s at depth 10, 2.4 s at 14 and 10 s
# (92 MB peak) at 16.
MAX_TREE_DEPTH = 12

class CoverNode:
    """A node of a covering tree: the closed interval [lo, hi] with its
    children.  Endpoints that are not yet Fractions are converted; lo < hi
    is required, so every diameter is positive."""

    def __init__(self, id: str, lo, hi):
        self.id = id
        self.lo = lo if isinstance(lo, Fraction) else Fraction(lo)
        self.hi = hi if isinstance(hi, Fraction) else Fraction(hi)
        if self.hi <= self.lo:
            raise ValueError("empty interval")
        self.children = []

    @property
    def diam(self) -> Fraction:
        return self.hi - self.lo

    @property
    def ends(self) -> tuple[int, int, int, int]:  # in lowest terms
        return self.lo.numerator, self.lo.denominator, self.hi.numerator, self.hi.denominator


class DimResult(NamedTuple):
    s: float
    residual: float
    method: str

    def to_jsonable(self) -> dict:
        return {"s": self.s, "residual": self.residual, "method": self.method}


def _bisect(below, lo: float, hi: float) -> float:
    """Where below turns false in [lo, hi]: up to 200 halvings, each moving
    lo up to a midpoint where below holds and hi down to any other; the
    final midpoint is returned.

    The halving stops at its fixed point, the first one that would leave
    (lo, hi) unchanged: below is deterministic, so every later halving
    would repeat it, and the returned midpoint is the float that 200
    halvings return.  On a binary64 interval that takes about 55 calls
    of below, against 200."""
    for _ in range(200):
        mid = (lo + hi) / 2
        if below(mid):
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
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
    Each child's ratio is the float of its integer diameter ratio to the
    parent's (`cfrac.diameter_ratios`), and a ratio of 1 or more raises
    ValueError.  Each distinct tuple of child ratios is solved once."""
    best, worst_res = 0.0, 0.0
    seen = False
    solved: dict[tuple[float, ...], tuple[float, float]] = {}
    for node in _internal_nodes(tree):
        ratios = []
        for num, den in diameter_ratios(node.ends, [c.ends for c in node.children]):
            if num >= den:
                raise ValueError(f"child ratio >= 1 at node {node.id}")
            ratios.append(num / den)
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
    (0, 1), and the tree must have an internal node, else ValueError.

    Conditions (i)-(iii) are `cfrac.family_faults`, exact in integers,
    with the least gap ratio clamped at 0; each power-sum term is the
    float of an integer diameter ratio, with a 1e-9 relative slack.
    Returns per-condition results, all violations, and the extremal
    measured ratios.
    """
    rho = Fraction(rho)
    if not 0 < rho < 1:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    if not tree.children:
        raise ValueError("tree has no internal node")
    violations = []
    min_gap = None
    min_sum_ratio = None
    for node in _internal_nodes(tree):
        faults, shrink, least = family_faults(node.ends, [c.ends for c in node.children], rho)
        violations += ({"node": node.id, "cond": cond,
                        "detail": detail.format(*(node.children[k].id for k in at))}
                       for cond, detail, at in faults)
        if least and (min_gap is None or least[0] * min_gap[1] < min_gap[0] * least[1]):
            min_gap = least
        ratio = sum(r ** s for r in shrink)
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
        "min_gap_ratio": None if min_gap is None else max(min_gap[0], 0) / min_gap[1],
        "min_sum_ratio": min_sum_ratio,
    }


def binary_interval_tree(depth: int, left_frac, right_frac) -> CoverNode:
    """Binary interval tree on [0,1]: children keep the given fractions
    of each parent, one flush left, one flush right.  Raises ValueError
    when depth is negative or exceeds MAX_TREE_DEPTH = 12."""
    if not 0 <= depth <= MAX_TREE_DEPTH:
        raise ValueError(f"tree depth {depth} must lie in 0 to {MAX_TREE_DEPTH}, the cap")
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

    Every node above the bottom gets its full child list (the family of
    `cfrac.dn_children`, built as integer pairs); `descend` caps how many
    of those children are recursively expanded in turn (evenly spread
    across the list), which keeps deep audits of wide trees affordable
    while still exercising every level.  Raises ValueError when depth is
    negative or descend is below 1.
    """
    if depth < 0:
        raise ValueError(f"tree depth {depth} must be >= 0")
    if descend is not None and descend < 1:
        raise ValueError(f"descend {descend} must be >= 1")

    def build(p: int, q: int, d: int) -> CoverNode:
        lo_n, lo_d, hi_n, hi_d = _interval_ends(p, q, N)
        node = CoverNode(f"{p}/{q}", Fraction(lo_n, lo_d), Fraction(hi_n, hi_d))
        if d < depth:
            kids = _child_pairs(p, q, N, a_max)
            k = len(kids) if descend is None else min(descend, len(kids))
            step = len(kids) / k
            picks = {int(i * step) for i in range(k)}
            node.children = [build(n, m, d + 1 if i in picks else depth)
                             for i, (n, m) in enumerate(kids)]
        return node

    return build(*Fraction(root).as_integer_ratio(), 0)
