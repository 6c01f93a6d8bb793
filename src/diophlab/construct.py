"""Nested chains of approximation vectors with prescribed decay.

A chain starts from a seed vector and repeatedly adjoins a child whose
wedge with the tip is a prescribed element of the tip's pair lattice and
whose height sits in a prescribed slot.  One edge rule, `_edge_faults`,
checks every chain step and tree edge exactly with three predicates:
`admissible_successor` (the wedge is primitive and avoids the tip's
shortest class, and the height clears the distortion window),
`nesting_ok` (the child's domain nests strictly inside the parent's) and,
below a distorted parent, `growth_ok` (the height grows by the required
factor).

Three flavours of chain are built here, each by a plain loop that adjoins
every node through one audited append.  Fixed-distortion chains take the
lexicographically first admissible slot at a constant distortion bound.
Singular-type chains shrink the bound slowly along a fixed schedule.  Slow
chains follow a regularised step schedule so that the minima profile of
the limit point tracks a prescribed decay target.  Spaced families
enumerate every admissible slot, giving the Cantor-type branching whose
sibling domains repel each other.  Fixed and singular-type chains,
spaced families and expansion trees all take their slots and children
from one slot enumerator, `slot_children`; singular-type chains only
raise the lower end of each slot window.

The sandwich audit closes the loop: it compares the chain's own minima
envelope against a from-scratch lattice minimum at sampled times, in
exact arithmetic at each sample.
"""

from __future__ import annotations

import bisect
import functools
import math
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, NamedTuple

from .bestapprox import MAX_PROFILE_SAMPLES, BestApproxSeq, shortest_vector_reduced, wx_profile
from .core import PrimVec, Wedge2, residual, seminorm, wedge
from .latinv import (
    Invariants,
    absL_from_wedge,
    canonical_sign,
    cube_below,
    distortion_below,
    invariants,
    vector_with_wedge,
    wedge_constraint_ok,
    wedge_residue,
)
from .util import frac_str, ln_fraction

# Height slots are sampled on this arithmetic progression; the stride
# guarantees distinct slots produce children whose domains cannot meet.
SLOT_STRIDE = 20
# Caps that turn runaway slow-chain schedules into usage errors.
MAX_SCHEDULE_KNOTS = 10**4
MAX_EXP_ARG = 10**5
# Knots a regularised schedule materialises up front; the
# schedule-regularity audit item verifies exactly these.
SCHEDULE_KNOTS = 8
# A slow step may not make a height of more digits than this, the
# interpreter's default limit on printing an integer.
MAX_HEIGHT_DIGITS = 4300
# A slot's height multiplier may not exceed this.  Each tree level
# multiplies heights by about the multiplier, and the exact audits slow
# down with their digits: on a 2-core x86-64 host the default depth-3
# psi-tree from (-5,-4,13) took 7 s at eps = 10^-33 (multiplier near
# 10^100) and 548 s at eps = 10^-400 (near 10^1200).
MAX_SLOT_MULTIPLIER = 10**100
# Cap on tree_cost.  Children in the band [eps/2, eps) have slot multipliers
# near eps^-6 (a^2 more for slot pair (a, b)): heights gain 6 log10(1/eps)
# digits a level.  Fitted on 85 shapes timed, caps lifted, on a 2-core x86-64
# host: the README shape at depth 5 (0.7-1.5 s) costs 1.8 * 10^8, none under
# the cap took over 3.6 s, and all over 3.9 s (up to 123 s) are refused.
# The width^2 term overprices wide families: 10^4 children at depth 1 take
# 1.2 s and cost 10^12.
MAX_TREE_COST = 2 * 10**8
# Cap on a slow chain's cost samples * span^3, span = steps * max(1, y) over
# the schedule's knot values y: a step at y multiplies heights by about
# e^(6y), and each sample is one reduction at the tip's size.  On a 2-core
# x86-64 host log1p shapes at the cap took 9.2 s (292 steps, 2 samples),
# 2.8 s (107, 40), 2.3 s (62, 200) and 3.8 s (17, 10^4).
MAX_CHAIN_WORK = 5 * 10**7
# The singular-type schedule (see sing_chain): the constant c, the family
# size at step 0, the cap on every bound, and the factor by which each
# node's distortion cube must undercut its parent's.
SING_C = 1e-4
SING_START = 16
SING_EPS_CAP = Fraction(1, 4)
SING_SHRINK = Fraction(1023, 1024)


def coprime_pairs(n: int) -> Iterator[tuple[int, int]]:
    """Slot pairs (a, b) with 1 <= a <= n, a >= b >= 0, gcd(a, b) = 1, in
    lex order, generated lazily: the family has about 0.3 n^2 pairs.

    Only a = 1 admits the boundary values b = 0 and b = a; larger a
    contribute their phi(a) interior coprime residues.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return ((a, b) for a in range(1, n + 1) for b in range(a + 1) if math.gcd(a, b) == 1)


def slot_sublattice(u: PrimVec, a: int, b: int) -> Wedge2:
    """The wedge target a*Hhat(u) + b*L(u) for the slot pair (a, b)."""
    inv = invariants(u)
    return Wedge2(
        a * inv.Lhat.m12 + b * inv.L.m12,
        a * inv.Lhat.m13 + b * inv.L.m13,
        a * inv.Lhat.m23 + b * inv.L.m23,
    )


def height_window(u: PrimVec, target: Wedge2, eps) -> tuple[Fraction, Fraction]:
    """Open interval (M, 2M - 1) of admissible height multipliers for the
    slot whose wedge target is `target` (see slot_sublattice).

    M is the distortion threshold for the slot's sublattice: any child
    of height above M * |u| lands strictly below distortion eps.  Raises
    ValueError when M exceeds MAX_SLOT_MULTIPLIER = 10^100, which bounds
    the work of a tree at tiny eps.
    """
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise ValueError("distortion bound must lie in (0, 1/2)")
    m = Fraction(seminorm(target) ** 2, u.q) / eps**3
    if m > MAX_SLOT_MULTIPLIER:
        raise ValueError(
            "distortion bound too small: a slot's height multiplier "
            f"exceeds {MAX_SLOT_MULTIPLIER:.0e}"
        )
    return m, 2 * m - 1


def slot_children(u: PrimVec, eps, n: int = 1, per_pair: int | None = None,
                  eps3_cap: Fraction | None = None):
    """Yield ((a, b, c), child) for the admissible slots of u with a <= n,
    in lex order, each child equal to child_vector(u, a, b, c, eps).  Per
    pair, c runs over the first floor((M - 1)/stride) stride multiples
    above M, at most per_pair of them.  That count keeps every c inside
    the open window (M, 2M - 1): the first lies at most a stride above M,
    and exactly a stride only when M is a multiple of the stride, where
    the count falls short of (M - 1)/stride.  Each pair's wedge target,
    window and residue class are computed once, when the pair is reached;
    its window raises ValueError there.  The full family can be enormous
    away from small seeds (about M/stride heights per pair).

    Given eps3_cap, the lower end rises to max(M, M eps^3 / eps3_cap), and
    to eps^-6 too when u is below distortion eps.  The first bound makes
    eps(child)^3 < eps3_cap exact (the child's height exceeds c|u| and its
    shortest class is at most the slot wedge); the second is the growth
    the edge rule asks of a distorted parent.  This only drops multiples
    from the front: the last stays at first(M) + stride * (floor((M -
    1)/stride) - 1), inside the window.
    """
    if eps3_cap is not None:
        eps = Fraction(eps)
        scale = eps**3 / eps3_cap
        growth = eps**-6 if distortion_below(u, eps) else 0
    for a, b in coprime_pairs(n):
        target = slot_sublattice(u, a, b)
        m, _ = height_window(u, target, eps)
        first = SLOT_STRIDE * (m // SLOT_STRIDE + 1)
        heights = range(first, first + SLOT_STRIDE * ((m - 1) // SLOT_STRIDE), SLOT_STRIDE)
        if eps3_cap is not None:  # drop the multiples at or below the raised lower end
            heights = heights[max(0, (max(m * scale, growth) - first) // SLOT_STRIDE + 1):]
        z = wedge_residue(u, target)
        for c in islice(heights, per_pair):
            yield (a, b, c), vector_with_wedge(u, target, c * u.q + z)


def child_vector(u: PrimVec, a: int, b: int, c: int, eps) -> PrimVec:
    """The child of u in slot (a, b, c) at distortion bound eps.

    The child v is the unique vector with wedge(v, u) = a*Hhat + b*L and
    floor(|v| / |u|) = c.  The multiplier c must lie in the open window
    (M, 2M - 1) with M = eps^-3 |a*Hhat + b*L|^2 / |u|; heights above M
    put the child below distortion eps, and the cap keeps the sublattice
    recoverable from the child alone.  Raises ValueError on a slot
    outside the window.
    """
    if a < 1 or b < 0 or b > a or math.gcd(a, b) != 1:
        raise ValueError(f"slot pair ({a}, {b}) must be coprime with a >= b >= 0")
    target = slot_sublattice(u, a, b)
    m, hi = height_window(u, target, eps)
    if not m < c < hi:
        raise ValueError(
            f"height multiplier {c} outside the admissible window "
            f"({frac_str(m)}, {frac_str(hi)})"
        )
    assert wedge_constraint_ok(target, u)
    z = wedge_residue(u, target)
    v = vector_with_wedge(u, target, c * u.q + z)
    assert v.q // u.q == c
    return v


def spacing_floor(eps, n: int) -> Fraction:
    """Separation constant rho: sibling domains under a common parent
    stay at least rho * diam apart, where diam bounds the parent domain.
    Raises ValueError unless eps > 0 and n >= 1."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("distortion bound must be positive")
    if n < 1:
        raise ValueError("need n >= 1")
    return eps**9 / (2**11 * n**3)


@functools.cache
def _floor_terms(u: PrimVec, eps, n: int) -> tuple[int, int]:
    """The spacing floor under parent u as (fn, fd) in lowest terms:
    spacing_floor(eps, n) * diam, with diam = 4|L(u)|/|u|^2.  The domain of
    u lies within sup distance 2|L(u)|/|u|^2 of its rational point, so diam
    bounds its diameter.  Memoized like `invariants`: `verify_spacing` asks
    for the same parent's floor once per sibling pair."""
    floor_val = spacing_floor(eps, n) * Fraction(4 * invariants(u).absL, u.q * u.q)
    return floor_val.numerator, floor_val.denominator


def _pair_gap(va: PrimVec, la: int, vb: PrimVec, lb: int) -> tuple[int, int]:
    """Gap bound of two siblings with |L(va)| = la and |L(vb)| = lb as (num,
    den), den = |va|^2 |vb|^2: the sup distance of their rational points
    minus both outer radii 2|L(v)|/|v|^2."""
    qa, qb = va.q, vb.q
    # seminorm(wedge(va, vb)) inlined: this is the spacing audit's inner step
    dist = max(abs(va.p1 * qb - qa * vb.p1), abs(va.p2 * qb - qa * vb.p2))
    return dist * qa * qb - 2 * la * qb * qb - 2 * lb * qa * qa, (qa * qb) ** 2


def _sibling_spacing(u: PrimVec, kids: list[tuple[PrimVec, int]], eps, n: int):
    """Check every pair of u's children against the spacing floor; kids
    holds each child v with |L(v)|.

    A pair's gap bound (`_pair_gap`) must exceed the floor `_floor_terms`,
    spacing_floor(eps, n) * diam with diam = 4|L(u)|/|u|^2.  Returns the
    pair count k(k-1)/2, the count at or below the floor, and the least gap
    bound over the floor (a Fraction, None without pairs).

    Only pairs that could fail or be least are evaluated.  With rho(v) =
    proj_dist(u, v) and R(v) = 2|L(v)|/|v|^2, the triangle inequality gives
    dist(va, vb) >= |rho(va) - rho(vb)| on any lines, so in either order a
    gap is at least lo(vb) - hi(va) on the intervals [rho - R, rho + R].
    Swept in order of lo, row i stops at the first lo_j - hi_i >= T =
    max(floor, least gap so far): every later pair has gap > T, so neither
    fails nor is least.  The sweep counts in units of 2^-32 / fd for the
    floor fn / fd, rounding lo down, hi and T up: each stop stays exact,
    and the rounding costs under 2^-30 of the floor.
    """
    fn, fd = _floor_terms(u, eps, n)
    unit = fd << 32
    rows = []  # (lo rounded down, hi rounded up, v, |L(v)|) in units of 1/unit
    for v, lv in kids:
        rho, r = seminorm(wedge(u, v)) * unit // (u.q * v.q), -(-2 * lv * unit // (v.q * v.q))
        rows.append((rho - r, rho + 1 + r, v, lv))
    rows.sort(key=lambda r: r[0])
    failures = 0
    least = cut = None  # least gap bound (num, den); T, once a gap is known
    for i, (_, hi, a, la) in enumerate(rows):
        for lo, _, b, lb in rows[i + 1:]:
            if cut is not None and lo - hi >= cut:
                break
            num, den = _pair_gap(a, la, b, lb)
            if num * fd <= fn * den:
                failures += 1
            if least is None or num * least[1] < least[0] * den:
                least = (num, den)
                cut = max(fn << 32, -(-num * unit // den))
    pairs = len(kids) * (len(kids) - 1) // 2
    return pairs, failures, None if least is None else Fraction(least[0] * fd, least[1] * fn)


def _ratio_float(num: int, den: int) -> float:
    """A spacing ratio num/den as a correctly rounded float; ValueError when
    it leaves the float range, which a tiny eps does by shrinking the floor
    it is divided by."""
    try:
        return num / den
    except OverflowError:
        raise ValueError("spacing ratio exceeds the float range; eps is too small") from None


def verify_spacing(u: PrimVec, a: tuple[PrimVec, int], b: tuple[PrimVec, int], eps) -> bool:
    """Exact separation certificate for two children of u, each given with
    its |L| as `_sibling_spacing` takes them, a = (va, |L(va)|) and b =
    (vb, |L(vb)|):

        dist(domain(va), domain(vb)) >= rho * diam(domain(u))

    with rho = eps^9 / 2^11, on the gap bound of `_pair_gap`.  Both of
    its bounds err on the safe side, so True is a proof.  Raises
    ValueError when the children coincide or eps <= 0.
    """
    if a[0] == b[0]:
        raise ValueError("spacing needs two distinct children")
    fn, fd = _floor_terms(u, eps, 1)
    num, den = _pair_gap(*a, *b)
    return num * fd > den * fn


def admissible_successor(inv: Invariants, v: PrimVec, eps: Fraction) -> bool:
    """Whether v may follow u = inv.v, for the parent's `invariants` record
    inv and the distortion bound eps, a Fraction: the wedge w = v ^ u is
    primitive, differs from u's shortest class inv.L, and v's height
    exceeds eps^-3 |w|^2 (`cube_below(|w|, |v|, eps)`).  A zero wedge has
    gcd 0, so v = u is rejected."""
    w = wedge(v, inv.v)
    return (math.gcd(w.m12, w.m13, w.m23) == 1 and canonical_sign(w) != inv.L
            and cube_below(seminorm(w), v.q, eps))


def nesting_ok(inv: Invariants, v: PrimVec, lv: int) -> bool:
    """Strict nesting of v's domain inside the domain of u = inv.v, for the
    parent's `invariants` record inv and lv = |L(v)|, certified via the
    ball bounds: center distance plus v's outer radius must fall short of
    u's inner radius, |L(u)|/(2|u|^2) - proj_dist(u, v) - 2 lv/|v|^2 > 0,
    here times 2|u|^2|v|^2.  Valid for any parent height; the inner ball
    of a height-one parent is the direct half-residual box.  Raises
    ValueError when |v| < 2, where the outer bound does not hold.
    """
    u = inv.v
    if v.q < 2:
        raise ValueError("child height must exceed 1 for the outer bound")
    return (inv.absL * v.q**2 - 2 * seminorm(wedge(u, v)) * u.q * v.q
            - 4 * lv * u.q**2) > 0


def growth_ok(u: PrimVec, v: PrimVec, eps: Fraction) -> bool:
    """|v| > eps^-6 |u|, exactly, for parent u, child v and the distortion
    bound eps, a Fraction: the growth the edge rule asks of a child whose
    parent is below distortion eps."""
    return v.q * eps.numerator**6 > u.q * eps.denominator**6


def _edge_faults(inv: Invariants, v: PrimVec, lv: int, eps: Fraction,
                 distorted: bool) -> Iterator[str]:
    """The edge rule of chains and trees: yield, in order, the name of each
    check that inv.v -> v fails, for the parent's `invariants` inv and lv =
    |L(v)|: "membership" (`admissible_successor`), "nesting" (`nesting_ok`),
    and "growth" (`growth_ok`) when the parent is distorted.  Lazy, so a
    caller that stops at the first name skips the later checks."""
    if not admissible_successor(inv, v, eps):
        yield "membership"
    if not nesting_ok(inv, v, lv):
        yield "nesting"
    if distorted and not growth_ok(inv.v, v, eps):
        yield "growth"


def _proportional(a: Wedge2, b: Wedge2) -> bool:
    """Whether two wedge triples are parallel (all cross minors vanish)."""
    return (
        a[0] * b[1] == a[1] * b[0]
        and a[0] * b[2] == a[2] * b[0]
        and a[1] * b[2] == a[2] * b[1]
    )


class ChainNode(NamedTuple):
    """One link: the vector plus the parameters that admitted it."""

    u: PrimVec
    eps: Fraction | None = None
    slot: tuple[int, int, int] | None = None


class Chain:
    """A nested chain of approximation vectors."""

    def __init__(self, nodes: list[ChainNode]):
        self.nodes = nodes

    def vectors(self) -> list[PrimVec]:
        return [n.u for n in self.nodes]

    @property
    def tip(self) -> PrimVec:
        return self.nodes[-1].u

    def to_jsonable(self) -> list[dict]:
        rows = []
        for k, node in enumerate(self.nodes):
            inv = invariants(node.u)
            rows.append(
                {
                    "k": k,
                    "p": [node.u.p1, node.u.p2],
                    "q": node.u.q,
                    "eps": frac_str(node.eps) if node.eps is not None else None,
                    "slot": list(node.slot) if node.slot else None,
                    "eps_cubed": frac_str(inv.eps3),
                    "tau": inv.tau,
                }
            )
        return rows


def _append(chain: Chain, v: PrimVec, eps, slot=None) -> None:
    """Adjoin v to the chain once the edge from its tip passes the edge
    rule `_edge_faults` and leaves the tip's rational line, exactly.

    Raises RuntimeError naming the first failed check, leaving the chain
    unchanged.  The eps^-6 growth bound is a property of the slotted height
    window, so it is checked exactly when the edge has a slot (slow steps
    have none)."""
    u = chain.tip
    eps = Fraction(eps)
    distorted = slot is not None and distortion_below(u, eps)
    fault = next(_edge_faults(invariants(u), v, absL_from_wedge(v, u), eps, distorted), None)
    if fault is not None:
        raise RuntimeError(f"edge {u} -> {v}: fails the {fault} check at eps {float(eps):g}")
    if len(chain.nodes) >= 2 and _proportional(wedge(u, chain.nodes[-2].u), wedge(v, u)):
        raise RuntimeError(f"edge {u} -> {v}: consecutive steps share a rational line")
    chain.nodes.append(ChainNode(v, eps, slot))


def _adjoin_first(chain: Chain, eps: Fraction, n: int = 1,
                  eps3_cap: Fraction | None = None) -> None:
    """Adjoin the tip's first child from `slot_children`; raises
    RuntimeError when no slot is admissible or the edge fails its audit."""
    kid = next(slot_children(chain.tip, eps, n, eps3_cap=eps3_cap), None)
    if kid is None:
        raise RuntimeError(f"no admissible slots at distortion {eps}")
    slot, v = kid
    _append(chain, v, eps, slot)


def fixed_chain(u0: PrimVec, eps, depth: int) -> Chain:
    """Depth many lex-first extensions at a constant distortion bound;
    depth 0 gives the chain of the seed alone.  Raises RuntimeError when
    no slot is admissible or an edge fails its audit."""
    eps = Fraction(eps)
    chain = Chain([ChainNode(u0)])
    for _ in range(depth):
        _adjoin_first(chain, eps)
    return chain


def sing_params(step: int, prev_eps) -> tuple[Fraction, int]:
    """Distortion bound and family size for step k of a singular chain.

    The bound targets eps_k^6 * loglog(n_k) > SING_C with n_k =
    SING_START + k, using the doubled constant as headroom, capped at
    SING_EPS_CAP and clamped to stay nonincreasing.  Raises ValueError
    when the rounded bound loses the margin or would fall below half the
    previous one.
    """
    n_k = SING_START + step
    loglog = math.log(math.log(n_k))
    eps = Fraction((2 * SING_C / loglog) ** (1 / 6))
    if eps**6 * Fraction(loglog) <= Fraction(SING_C):
        raise ValueError("rounded bound lost the schedule margin")
    eps = min(eps, SING_EPS_CAP)
    if prev_eps is not None:
        eps = min(eps, prev_eps)
        if eps < prev_eps / 2:
            raise ValueError("schedule step shrinks faster than ratio 1/2")
    return eps, n_k


def sing_chain(u0: PrimVec, depth: int) -> Chain:
    """Singular-type chain of depth many steps with shrinking bounds.

    Step k uses the bound and family size of sing_params(k, eps_{k-1}),
    which keeps eps_k near 1/4 for small k, and takes the first child of
    `slot_children` under eps3_cap = SING_SHRINK times the tip's
    distortion cube.  So the node distortions decrease strictly by
    construction rather than by the band position of whichever slot comes
    first (the schedule's own decrement is smaller than the slot
    granularity).  Where a parent sits below its edge's bound, the growth
    floor of the window gives the edge the growth the edge rule asks for;
    without it, sing_chain(pvec(0, 0, 1), 8) fails the growth check.
    Raises RuntimeError when no slot is admissible or an edge fails its
    audit.
    """
    chain = Chain([ChainNode(u0)])
    eps = None
    for step in range(depth):
        eps, n = sing_params(step, eps)
        _adjoin_first(chain, eps, n, SING_SHRINK * invariants(chain.tip).eps3)
    return chain


def _exp_fraction(y: float) -> Fraction:
    """exp(y) as an exact dyadic rational, safe for large y.

    Raises ValueError unless |y| <= MAX_EXP_ARG = 10^5: the result is a
    power of a binary64 value, and its digits grow linearly in |y|.
    """
    if not abs(y) <= MAX_EXP_ARG:
        raise ValueError(f"exponent {y} is outside [-{MAX_EXP_ARG}, {MAX_EXP_ARG}]")
    m = max(1, math.ceil(abs(y) / 350.0))
    return Fraction(math.exp(y / m)) ** m


def _window_minima(chain: Chain, samples: int):
    """Yield (t, T, M, W) for both chain certificates: t runs evenly over
    the window [tau(v_1), tau(v_{k-1})], T = exp(3t) as an exact dyadic
    rational, M is the reduction-certified minimum over all of Z^3 of
    max(T * residual, height) at the tip's point, W = ln M - (2/3) ln T."""
    x = chain.tip.proj()
    t_lo, t_hi = invariants(chain.nodes[1].u).tau, invariants(chain.nodes[-2].u).tau
    for i in range(samples):
        t = t_lo + i * (t_hi - t_lo) / (samples - 1)
        big_t = _exp_fraction(3 * t)
        m = shortest_vector_reduced(x, big_t)[1]
        yield t, big_t, m, ln_fraction(m) - 2 * ln_fraction(big_t) / 3


def sandwich_audit(chain: Chain, samples: int = 50) -> dict:
    """Two-sided audit of the chain envelope against the true lattice
    minimum at the samples of `_window_minima`, plus a cap on the
    envelope's local maxima.  The report gives t and the window in tau
    units.  At each sample the exact checks, with eps the largest bound on
    the chain's edges, are

        M_lattice <= M_chain        (the chain can only overestimate)
        (1 - eps^6) M_chain <= M_lattice   (and not by much).

    M_chain is the `wx_profile` value of the chain read as a
    best-approximation sequence at the tip's point: every edge nests, so
    heights rise and residuals strictly fall there.  Each crossing maximum
    of that profile, cubed (height * residual^2), must stay below 4 eps^3.
    Claimed for fixed and singular chains; slow chains with bounds above
    1/2 can fail the lower check at the window's ends.  The chain needs
    depth >= 3 for a window and samples >= 2 to span it end to end.
    """
    vecs = chain.vectors()
    if len(vecs) < 4:
        raise ValueError("sandwich window needs chain depth >= 3")
    if samples < 2:
        raise ValueError(f"sandwich audit needs samples >= 2, got {samples}")
    eps = max(n.eps for n in chain.nodes[1:])
    x = chain.tip.proj()
    residuals = tuple(residual(x, v) for v in vecs)
    profile = wx_profile(BestApproxSeq(x, tuple(vecs), residuals, vecs[-1].q))

    slack = 1 - eps**6
    rows = []
    for t, big_t, m_lat, w_lat in _window_minima(chain, samples):
        m_chain = profile.value_at(big_t)
        rows.append(
            {
                "t": t,
                "w_chain": profile.log_length_at(big_t),
                "w_lattice": w_lat,
                "upper_ok": m_lat <= m_chain,
                "lower_ok": slack * m_chain <= m_lat,
            }
        )

    cap = 4 * eps**3
    crossings = [b for b in profile.breakpoints if b.kind == "max"]
    maxima = [
        {"k": k, "value_cubed": b.value_cubed, "ok": b.value_cubed <= cap}
        for k, b in enumerate(crossings)
    ]

    ok = (all(r["upper_ok"] and r["lower_ok"] for r in rows)
          and all(m["ok"] for m in maxima))
    return {
        "ok": ok,
        "eps": float(eps),
        "window": (invariants(vecs[1]).tau, invariants(vecs[-2]).tau),
        "sandwich": rows,
        "maxima": maxima,
    }


class Schedule:
    """A nondecreasing step function built by the regularised recursion.

    Knots (t_k, y_k) satisfy t_{k+1} = t_k + y_k and
    y_{k+1} = min(F(t_{k+1}), y_k + delta); the function takes the value
    y_k on [t_k, t_{k+1}).  Knots extend lazily on demand, up to
    MAX_SCHEDULE_KNOTS = 10^4 of them; a value_at that needs more raises
    ValueError.
    """

    def __init__(self, delta: Fraction, knots: list[tuple[Fraction, Fraction]],
                 target: Callable[[float], float]):
        self.delta = delta
        self.knots = knots
        self.target = target

    def _extend(self):
        t, y = self.knots[-1]
        t = t + y
        y = min(Fraction(self.target(float(t))), y + self.delta)
        self.knots.append((t, y))

    def value_at(self, t) -> Fraction:
        t = Fraction(t)
        if t < self.knots[0][0]:
            raise ValueError(f"schedule starts at {self.knots[0][0]}, got {t}")
        while self.knots[-1][0] + self.knots[-1][1] <= t:
            if len(self.knots) >= MAX_SCHEDULE_KNOTS:
                raise ValueError(
                    f"schedule needs more than {MAX_SCHEDULE_KNOTS} knots "
                    f"to reach t = {float(t)}"
                )
            self._extend()
        i = bisect.bisect_right(self.knots, t, key=lambda k: k[0])
        return self.knots[i - 1][1]

    def verify(self) -> dict:
        """Check the defining properties on the materialised knots: values
        never exceed the target, never decrease, and rise by at most delta
        per knot (so f(t + f(t)) <= f(t) + delta everywhere)."""
        below = all(
            y <= Fraction(self.target(float(t))) + Fraction(1, 10**12)
            for t, y in self.knots
        )
        ys = [y for _, y in self.knots]
        nondecreasing = all(b >= a for a, b in zip(ys, ys[1:]))
        slope = all(b <= a + self.delta for a, b in zip(ys, ys[1:]))
        return {
            "below_target": below,
            "nondecreasing": nondecreasing,
            "slope_ok": slope,
            "ok": below and nondecreasing and slope,
        }


def regularize_schedule(f_target, delta, t0) -> Schedule:
    """Regularise a nondecreasing target into a self-consistent step
    function: starting from t0, each knot advances time by the current
    value and lifts the value toward the target by at most delta.  The
    first SCHEDULE_KNOTS = 8 knots are materialised.

    The result never exceeds the target and satisfies
    f(t + f(t)) <= f(t) + delta.  Requires f_target(t0) > 0.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    t0 = Fraction(t0)
    y0 = f_target(float(t0))
    if not math.isfinite(y0):
        raise ValueError(f"target must be finite, got {y0}")
    y0 = Fraction(y0)
    if y0 <= 0:
        raise ValueError("target must be positive at the start")
    sched = Schedule(delta, [(t0, y0)], f_target)
    for _ in range(SCHEDULE_KNOTS - 1):
        sched._extend()
    return sched


def slow_step(u: PrimVec, eps_prime) -> tuple[PrimVec, dict]:
    """One slow extension: the shortest admissible child over the tip's
    second-minimum sublattice at distortion target eps_prime.

    The child is the minimal height h in the forced residue class strictly
    above eps_prime^-3 A^2 and the nesting floor |u|(A + sqrt(A^2 + 4AB))/B,
    with A = |Hhat(u)| and B = |L(u)|.  The floor nests the child's domain
    in u's: u ^ v lies in v's pair lattice, so |L(v)| <= A, and the slack
    of `nesting_ok` is at least B h^2 - 2A|u|h - 4A|u|^2 > 0.  Returns the
    child plus float gaps measuring how closely the child's distortion
    tracks eps_prime and how the log-height clock advanced.  Raises
    OverflowError when h has more than MAX_HEIGHT_DIGITS = 4300 digits.
    """
    eps_prime = Fraction(eps_prime)
    if not 0 < eps_prime < 1:
        raise ValueError("distortion target must lie in (0, 1)")
    inv = invariants(u)
    target = inv.Lhat
    A, B = inv.absLhat, inv.absL
    base = math.floor(Fraction(A * A) / eps_prime**3) + 1
    base = max(base, u.q * (A + math.isqrt(A * A + 4 * A * B) + 1) // B + 1)
    z = wedge_residue(u, target)
    h = base + ((z - base) % u.q)
    if h >= 10**MAX_HEIGHT_DIGITS:
        raise OverflowError(
            f"a slow step needs a height of more than {MAX_HEIGHT_DIGITS} "
            "digits, the integer output limit"
        )
    v = vector_with_wedge(u, target, h)
    inv_v = invariants(v)
    log_eps_v = ln_fraction(inv_v.eps3) / 3
    log_eps_p = ln_fraction(eps_prime)
    gap_eps = log_eps_v - log_eps_p
    gap_tau = inv_v.tau - inv.tau - 2 * abs(log_eps_p) - abs(ln_fraction(inv.eps3)) / 3
    return v, {"log_eps_gap": gap_eps, "tau_gap": gap_tau}


def slow_chain(
    u0: PrimVec,
    w_target: Callable[[float], float],
    delta,
    steps: int = 15,
    samples: int = 200,
) -> tuple[Chain, dict]:
    """Chain whose limit's minima profile tracks a decay target.

    w_target is the desired profile bound (nonpositive, nonincreasing on
    the relevant range); one third of the negated target is regularised
    into a step schedule and each extension solves for the distortion
    the schedule dictates at the current clock reading.  The returned
    certificate samples the true profile of the limit point at the times
    of `_window_minima`, the window the sandwich audit samples too, and
    checks it never dips below the target by more than the measured
    envelope 3 * (alignment bound) + (float defect).  The sampled window
    runs from the first child to the second-to-last node, so it needs
    steps >= 3; the samples span it end to end, so they need samples >= 2,
    and at most MAX_PROFILE_SAMPLES = 10^4.  Both are checked first.  Then,
    before any step, span = steps * max(1, y) over the schedule's knots
    raises OverflowError when the tip's digits, about 6 span / ln 10, pass
    MAX_HEIGHT_DIGITS, and ValueError when samples * span^3 passes
    MAX_CHAIN_WORK."""
    if steps < 3:
        raise ValueError(f"slow chain needs steps >= 3, got {steps}")
    if not 2 <= samples <= MAX_PROFILE_SAMPLES:
        raise ValueError(f"slow chain needs 2 to {MAX_PROFILE_SAMPLES} samples, got {samples}")
    sched = regularize_schedule(lambda t: -w_target(t) / 3, delta, Fraction(invariants(u0).tau))
    span = steps * max(1.0, *(float(y) for _, y in sched.knots))
    if (digits := 6 * span / math.log(10)) > MAX_HEIGHT_DIGITS:
        raise OverflowError(f"{steps} slow steps need heights of about {digits:.3g} digits, "
                            f"more than {MAX_HEIGHT_DIGITS} digits, the integer output limit")
    if samples * span**3 > MAX_CHAIN_WORK:
        raise ValueError(f"a slow chain of {steps} steps and {samples} samples costs samples "
                         f"* (steps * max(1, y))^3 = {samples * span**3:.3g} > {MAX_CHAIN_WORK}")
    chain = Chain([ChainNode(u0)])
    aligns = []
    for _ in range(steps):
        u = chain.tip
        inv_u = invariants(u)
        log_eps_u = ln_fraction(inv_u.eps3) / 3
        y = sched.value_at(Fraction(inv_u.tau + abs(log_eps_u)))
        eps_p = _exp_fraction(-float(y))
        if not eps_p < 1:
            raise ValueError("schedule produced a non-shrinking distortion")
        v, _gaps = slow_step(u, eps_p)
        _append(chain, v, eps_p)
        aligns.append(abs(float(sched.value_at(Fraction(inv_u.tau))) + log_eps_u))

    vecs = chain.vectors()
    invs = [invariants(v) for v in vecs]
    taus = [iv.tau for iv in invs]
    eps3s = [iv.eps3 for iv in invs]
    defects = [
        taus[k + 1] - taus[k] - abs(ln_fraction(eps3s[k]))
        for k in range(len(vecs) - 1)
    ]
    align_bound = max(aligns)
    eps_max = max(max(n.eps for n in chain.nodes[1:]), max(float(iv.eps) for iv in invs[1:]))
    float_defect = abs(math.log(1 - eps_max**6))
    envelope = 3 * align_bound + float_defect

    worst = 0.0
    rows = []
    for t, _, _, w_x in _window_minima(chain, samples):
        gap = w_target(t) - w_x
        worst = max(worst, gap)
        rows.append({"t": t, "w_x": w_x, "w_target": w_target(t)})
    cert = {
        "pass": worst <= envelope + 1e-9,
        "slack": worst,
        "alignment_bound": align_bound,
        "float_defect": float_defect,
        "envelope": envelope,
        "defects": defects,
        "defect_bound": max(abs(d) for d in defects),
        "strictly_decreasing_eps": all(b < a for a, b in zip(eps3s, eps3s[1:])),
        "constant_eps": len({n.eps for n in chain.nodes[1:]}) == 1,
        "window": (taus[1], taus[-2]),
        "samples": rows,
    }
    return chain, cert


class TreeNode:
    """One vertex of a branching family expansion."""

    def __init__(self, u: PrimVec, slot: tuple[int, int, int] | None):
        self.u = u
        self.slot = slot
        self.children = []
        self.expanded = False


def tree_cost(seed: PrimVec, eps, n: int, depth: int, expand: int, width: int) -> float:
    """The cost estimate of expansion_tree: over levels k, the node bound
    width * min(expand, width)^(k-1) times D_k^2.3 + width^2, where D_k =
    log10|seed| + (6k - 3) log10(1/eps) + 2k log10(a), a bounding the first
    slot pair entries reached; audits grow like D^2.3 in the digits, and the
    fitted width^2 overprices wide, shallow families.  Stops once over
    MAX_TREE_COST or out of nodes; eps outside (0, 1/2) is priced as 1/2."""
    gain = max(math.log10(2), -ln_fraction(eps) / math.log(10) if eps > 0 else 0)
    gain_a = 2 * math.log10(max(1, min(n, math.isqrt(4 * width) + 1)))
    cost, nodes, k = 0.0, width, 0
    while nodes and k < depth and cost <= MAX_TREE_COST:
        k += 1
        cost += nodes * ((math.log10(seed.q) + (6 * k - 3) * gain + k * gain_a) ** 2.3 + width**2)
        nodes *= min(expand, width)
    return cost


def expansion_tree(
    seed: PrimVec, eps, n: int = 1, depth: int = 3, expand: int = 5,
    width: int = 50,
) -> TreeNode:
    """Branching family: every expanded node materialises its lex-first
    `width` children, at most per_pair = max(1, width // pairs) from each
    slot pair in lex order (so once pairs outnumber `width`, the later
    pairs get no child), and the lex-first `expand` of those recurse until
    `depth` levels.  Only the kept children are built, only the slot pairs
    up to the last of them have their windows computed, and at most
    width + 1 pairs are enumerated whatever the family size n.  Raises
    ValueError when eps is so small that such a slot's height multiplier
    exceeds MAX_SLOT_MULTIPLIER = 10^100, and, before any work, when depth,
    expand or width is negative or tree_cost exceeds MAX_TREE_COST."""
    cost = math.inf if min(depth, expand, width) < 0 else tree_cost(
        seed, Fraction(eps), n, depth, expand, width)
    if cost > MAX_TREE_COST:
        raise ValueError(f"a tree needs nonnegative depth, expand and width and a tree_cost "
                         f"of at most {MAX_TREE_COST:.0e}; got depth {depth}, expand {expand}, "
                         f"width {width}, cost {cost:.3g}")
    # pairs past width + 1 leave width // pairs at 0, so they are not counted
    pairs = sum(1 for _ in islice(coprime_pairs(n), width + 1))
    per_pair = max(1, width // pairs)
    root = TreeNode(seed, None)
    frontier = [root]
    for _ in range(depth):
        nxt = []
        for node in frontier:
            kids = islice(slot_children(node.u, eps, n, per_pair), width)
            node.children = [TreeNode(v, s) for s, v in kids]
            node.expanded = True
            nxt.extend(node.children[:expand])
        if not (frontier := nxt):
            break
    return root


def iter_tree(root: TreeNode):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def tree_audit(root: TreeNode, eps, n: int = 1) -> dict:
    """Exact per-edge and per-sibling audit of an expansion tree.

    Every parent-child edge must pass the chain edge rule `_edge_faults`
    (membership, nesting, and growth below a distorted parent); every
    child must land in the half-open distortion band [eps/2, eps); and
    every sibling pair must clear the spacing floor.  Reports the worst
    margins alongside the pass flag.

    Only expanded nodes are reduced (`invariants`).  Each child's |L| is
    read once, from its wedge w with the parent (`absL_from_wedge`): when w
    is primitive and 2|w|^2 < |v|, +-w is the child's unique shortest class,
    which is the case for every child in the band whose shortest class is
    that wedge.  The band, nesting and spacing checks all use that value.
    """
    eps = Fraction(eps)
    half = eps / 2
    totals = dict.fromkeys(("nodes", "expanded", "edges", "growth_checked", "spacing_pairs"), 0)
    fails = dict.fromkeys(("membership", "band", "nesting", "growth", "spacing"), 0)
    min_ratio = min_kappa = None
    for node in iter_tree(root):
        totals["nodes"] += 1
        if not node.expanded:
            continue
        totals["expanded"] += 1
        u = node.u
        inv = invariants(u)
        kappa = Fraction(inv.absLhat * inv.absL, u.q)
        min_kappa = kappa if min_kappa is None else min(min_kappa, kappa)
        distorted = distortion_below(u, eps)  # once per parent, as is inv
        kids = [(ch.u, absL_from_wedge(ch.u, u)) for ch in node.children]
        for v, lv in kids:
            totals["edges"] += 1
            totals["growth_checked"] += distorted
            if not (cube_below(lv, v.q, eps) and not cube_below(lv, v.q, half)):
                fails["band"] += 1
            for fault in _edge_faults(inv, v, lv, eps, distorted):
                fails[fault] += 1
        pairs, failed, least = _sibling_spacing(u, kids, eps, n)
        totals["spacing_pairs"] += pairs
        fails["spacing"] += failed
        if least is not None and (min_ratio is None or least < min_ratio):
            min_ratio = least
    return {
        "totals": totals,
        "fails": fails,
        "pass": not any(fails.values()),
        "min_spacing_ratio": None if min_ratio is None else _ratio_float(
            min_ratio.numerator, min_ratio.denominator),
        "min_kappa": None if min_kappa is None else float(min_kappa),
    }
