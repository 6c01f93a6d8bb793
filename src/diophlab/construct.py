"""Nested chains of approximation vectors with prescribed decay.

A chain starts from a seed vector and repeatedly adjoins a child whose
wedge with the current tip is a prescribed element of the tip's pair
lattice and whose height sits in a prescribed slot.  Exact invariants are
enforced at every step: the wedge is primitive and avoids the tip's
shortest class, the height clears the distortion window, the child's
domain nests strictly inside the parent's, and (when the parent is
already distorted) the height grows by the required factor.

Three flavours of chain are built here, each by a plain loop that adjoins
every node through one audited append.  Fixed-distortion chains take the
lexicographically first admissible slot at a constant distortion bound.
Singular-type chains shrink the bound slowly along a fixed schedule.  Slow
chains follow a regularised step schedule so that the minima profile of
the limit point tracks a prescribed decay target.  Spaced families
enumerate every admissible slot, giving the Cantor-type branching whose
sibling domains repel each other.  Fixed chains, spaced families and
expansion trees all take their children from one slot enumerator,
`slot_children`.

The sandwich audit closes the loop: it compares the chain's own minima
envelope against a from-scratch lattice minimum at sampled times, in
exact arithmetic at each sample.
"""

from __future__ import annotations

import bisect
import functools
import math
from fractions import Fraction
from itertools import accumulate, islice
from typing import Callable, NamedTuple

from .bestapprox import shortest_vector_reduced
from .core import PrimVec, RatPoint, Wedge2, residual, seminorm, wedge
from .latinv import (
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
# The singular-type schedule (see sing_chain): the constant c, the family
# size at step 0, the cap on every bound, and the factor by which each
# node's distortion cube must undercut its parent's.
SING_C = 1e-4
SING_START = 16
SING_EPS_CAP = Fraction(1, 4)
SING_SHRINK = Fraction(1023, 1024)


def coprime_pairs(n: int) -> list[tuple[int, int]]:
    """Slot pairs (a, b) with 1 <= a <= n, a >= b >= 0, gcd(a, b) = 1.

    Only a = 1 admits the boundary values b = 0 and b = a; larger a
    contribute their phi(a) interior coprime residues.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    out = []
    for a in range(1, n + 1):
        for b in range(0, a + 1):
            if math.gcd(a, b) == 1:
                out.append((a, b))
    return out


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


def slot_children(u: PrimVec, eps, n: int = 1, per_pair: int | None = None):
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
    """
    for a, b in coprime_pairs(n):
        target = slot_sublattice(u, a, b)
        m, _ = height_window(u, target, eps)
        first = SLOT_STRIDE * (m // SLOT_STRIDE + 1)
        heights = range(first, first + SLOT_STRIDE * ((m - 1) // SLOT_STRIDE), SLOT_STRIDE)
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


def cantor_children(u: PrimVec, eps, n: int = 1) -> list[PrimVec]:
    """Every child of u over the admissible slots with a <= n, lex order."""
    return [v for _, v in slot_children(u, eps, n)]


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
    dist(va, vb) >= |rho(va) - rho(vb)| on any lines, so a gap is at least
    rho(vb) - rho(va) - R(va) - R(vb).  Swept in order of rho, row i stops
    once rho_j - rho_i - R_i - max_{k>i} R_k exceeds T = max(floor, least
    gap so far): every later pair has gap > T, so neither fails nor is
    least.  The sweep counts in units of 2^-32 / fd for the floor fn / fd,
    rounding rho down, R and T up, plus one unit for rho_i: each stop stays
    exact, and the rounding costs under 2^-30 of the floor.
    """
    fn, fd = _floor_terms(u, eps, n)
    unit = fd << 32
    rows = sorted(  # (rho rounded down, R rounded up, v, |L(v)|) in units of 1/unit
        ((seminorm(wedge(u, v)) * unit // (u.q * v.q),
          -(-2 * lv * unit // (v.q * v.q)), v, lv) for v, lv in kids),
        key=lambda r: r[0])
    # tops[i] = max R over rows i, i+1, ...
    tops = list(accumulate(reversed([r[1] for r in rows]), max, initial=0))[::-1]
    failures = 0
    least = cut = None  # least gap bound (num, den); T, once a gap is known
    for i, (rho_i, r_i, a, la) in enumerate(rows):
        base = rho_i + 1 + r_i + tops[i + 1]
        for rho_j, _, b, lb in rows[i + 1:]:
            if cut is not None and rho_j - base >= cut:
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


def verify_spacing(u: PrimVec, va: PrimVec, vb: PrimVec, eps, n: int = 1) -> dict:
    """Exact separation certificate for two children of u:

        dist(domain(va), domain(vb)) >= rho * diam(domain(u))

    with rho = eps^9 / (2^11 n^3), on the gap bound of `_pair_gap`.  Both
    of its bounds err on the safe side, so a pass is a proof.  Returns the
    pass flag and the gap bound over the floor.  Raises ValueError when
    the children coincide, eps <= 0, or the ratio leaves the float range.
    """
    if va == vb:
        raise ValueError("spacing needs two distinct children")
    fn, fd = _floor_terms(u, eps, n)
    num, den = _pair_gap(va, absL_from_wedge(va, u), vb, absL_from_wedge(vb, u))
    top, bottom = num * fd, den * fn
    return {"ok": top > bottom, "ratio": _ratio_float(top, bottom)}


def _successor_flags(
    u: PrimVec, v: PrimVec, L: Wedge2, e3n: int, e3d: int,
) -> tuple[bool, bool, bool]:
    """(wedge primitive, avoids the shortest class, height ok) for the edge
    u -> v, given L = canonical_sign(L(u)) and eps^3 = e3n/e3d.

    v's height must exceed eps^-3 |w|^2, w = v ^ u, i.e. |v| e3n > |w|^2 e3d.
    """
    w = wedge(v, u)
    if w.is_zero():
        return False, False, False
    s = seminorm(w)
    return (math.gcd(w.m12, w.m13, w.m23) == 1, canonical_sign(w) != L,
            v.q * e3n > s * s * e3d)


def admissible_successor(u: PrimVec, v: PrimVec, eps) -> dict:
    """Exact membership checks for v as a chain successor of u.

    The wedge of the two must be primitive and differ from the shortest
    class of u's pair lattice, and v's height must exceed eps^-3 times
    the squared wedge seminorm.
    """
    eps = Fraction(eps)
    prim, avoids, height_ok = _successor_flags(
        u, v, canonical_sign(invariants(u).L), eps.numerator**3, eps.denominator**3)
    return {
        "wedge_primitive": prim,
        "avoids_shortest": avoids,
        "height_ok": height_ok,
        "ok": prim and avoids and height_ok,
    }


def nesting_ok(u: PrimVec, v: PrimVec) -> dict:
    """Strict nesting of v's domain inside u's, certified via the ball
    bounds: center distance plus v's outer radius must fall short of u's
    inner radius.  Valid for any parent height; the inner ball of a
    height-one parent is the direct half-residual box.
    """
    num = _nesting_slack(u, v, absL_from_wedge(v, u))
    return {"ok": num > 0, "slack": Fraction(num, 2 * (u.q * v.q) ** 2)}


def _nesting_slack(u: PrimVec, v: PrimVec, lv: int) -> int:
    """nesting_ok's slack times 2|u|^2|v|^2, for a child v with |L(v)| = lv."""
    if v.q < 2:
        raise ValueError("child height must exceed 1 for the outer bound")
    # |L(u)|/(2|u|^2) - proj_dist(u, v) - 2|L(v)|/|v|^2 over 2|u|^2|v|^2
    return (invariants(u).absL * v.q**2 - 2 * seminorm(wedge(u, v)) * u.q * v.q
            - 4 * lv * u.q**2)


def growth_ok(u: PrimVec, v: PrimVec, eps) -> dict:
    """Conditional height growth: once the parent is below distortion
    eps, the child must be taller by a factor above eps^-6.  Parents not
    yet distorted are exempt (the check reports inapplicable)."""
    eps = Fraction(eps)
    applicable = distortion_below(u, eps)
    return {"applicable": applicable, "ok": _grows(u, v, eps) if applicable else None}


def _grows(u: PrimVec, v: PrimVec, eps: Fraction) -> bool:
    """|v| > eps^-6 |u|, exactly: the growth a child of a parent below
    distortion eps must show."""
    return v.q * eps.numerator**6 > u.q * eps.denominator**6


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


def _append(chain: Chain, v: PrimVec, eps, slot=None, check_growth: bool = True) -> None:
    """Adjoin v to the chain once the edge from its tip passes every chain
    invariant, exactly.

    Raises RuntimeError on any failure, leaving the chain unchanged.  The
    eps^-6 growth bound is a property of the slotted height window, so
    callers stepping by the minimal-height rule skip it.
    """
    u = chain.tip
    nodes = chain.nodes

    def fail(why: str) -> RuntimeError:
        return RuntimeError(f"edge {u} -> {v}: {why}")

    member = admissible_successor(u, v, eps)
    if not member["ok"]:
        raise fail(f"successor membership failed: {member}")
    if not nesting_ok(u, v)["ok"]:
        raise fail("child domain does not nest inside the parent")
    if check_growth:
        growth = growth_ok(u, v, eps)
        if growth["applicable"] and not growth["ok"]:
            raise fail(
                f"height grew by {Fraction(v.q, u.q)}, below the required {eps**-6}"
            )
    if len(nodes) >= 2 and _proportional(wedge(u, nodes[-2].u), wedge(v, u)):
        raise fail("consecutive steps share a rational line")
    nodes.append(ChainNode(v, eps, slot))


def fixed_chain(u0: PrimVec, eps, depth: int, n: int = 1) -> Chain:
    """Depth many lex-first extensions at a constant distortion bound;
    depth 0 gives the chain of the seed alone.  Raises RuntimeError when
    no slot is admissible or an edge fails its audit."""
    eps = Fraction(eps)
    chain = Chain([ChainNode(u0)])
    for _ in range(depth):
        kid = next(slot_children(chain.tip, eps, n, per_pair=1), None)
        if kid is None:
            raise RuntimeError(f"no admissible slots at distortion {eps}")
        slot, v = kid
        _append(chain, v, eps, slot)
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


def shrinking_slot(u: PrimVec, eps, n: int, eps3_cap: Fraction):
    """Lex-least admissible slot whose child is forced below the given
    distortion cube: the height floor c*|u| > |L'|^2 / eps3_cap makes
    eps(child)^3 < eps3_cap exact, since the child height only exceeds
    the floor and the child's shortest class is at most the slot wedge.
    When the parent sits below the working bound, the slot is also kept
    above the height-growth threshold that nested domains require."""
    eps = Fraction(eps)
    growth = eps**-6 if distortion_below(u, eps) else Fraction(0)
    for a, b in coprime_pairs(n):
        m, hi = height_window(u, slot_sublattice(u, a, b), eps)
        lo = max(m, m * eps**3 / eps3_cap, growth)
        c = SLOT_STRIDE * (lo // SLOT_STRIDE + 1)
        if lo < c < hi:
            return (a, b, int(c))
    return None


def sing_chain(u0: PrimVec, depth: int) -> Chain:
    """Singular-type chain of depth many steps with shrinking bounds.

    Step k uses the bound and family size of sing_params(k, eps_{k-1}),
    which keeps eps_k near 1/4 for small k.  The slot rule also forces
    each node's distortion cube below SING_SHRINK times its parent's, so
    the node distortions decrease strictly by construction rather than by
    the band position of whichever slot comes first (the schedule's own
    decrement is smaller than the slot granularity).  Each node lands just
    under the bound used for its edge while the next bound shrinks
    further, so parents sit above the later bounds and the conditional
    height-growth clause stays dormant; the slot rule enforces it anyway
    whenever it does apply.  Raises RuntimeError when no slot is
    admissible or an edge fails its audit.
    """
    chain = Chain([ChainNode(u0)])
    eps = None
    for step in range(depth):
        u = chain.tip
        eps, n = sing_params(step, eps)
        slot = shrinking_slot(u, eps, n, SING_SHRINK * invariants(u).eps3)
        if slot is None:
            raise RuntimeError(f"no admissible slots at distortion {eps}")
        _append(chain, child_vector(u, *slot, eps), eps, slot)
    return chain


def limit_box(chain: Chain) -> tuple[RatPoint, Fraction]:
    """Center and radius of a box containing the chain's limit points.

    Every continuation of the chain stays inside the tip's domain, which
    lies within twice the tip's radius r = |L|/|v|^2 of its rational point.
    """
    v = chain.tip
    if v.q <= 1:
        raise ValueError("chain too short: tip height must exceed 1")
    return v.proj(), Fraction(2 * invariants(v).absL, v.q * v.q)


def _exp_fraction(y: float) -> Fraction:
    """exp(y) as an exact dyadic rational, safe for large y.

    Raises ValueError unless |y| <= MAX_EXP_ARG = 10^5: the result is a
    power of a binary64 value, and its digits grow linearly in |y|.
    """
    if not abs(y) <= MAX_EXP_ARG:
        raise ValueError(f"exponent {y} is outside [-{MAX_EXP_ARG}, {MAX_EXP_ARG}]")
    m = max(1, math.ceil(abs(y) / 350.0))
    return Fraction(math.exp(y / m)) ** m


def chain_score(chain: Chain, x: RatPoint, t: Fraction) -> Fraction:
    """min over chain vectors of max(T * residual, height) at T = t."""
    return min(max(t * residual(x, v), Fraction(v.q)) for v in chain.vectors())


def sandwich_audit(chain: Chain, samples: int = 50) -> dict:
    """Two-sided audit of the chain envelope against the true lattice
    minimum at sampled times, plus a cap on the envelope's local maxima.

    At each sampled T inside the chain's window the exact checks are

        M_lattice <= M_chain        (the chain can only overestimate)
        (1 - eps^6) M_chain <= M_lattice   (and not by much),

    where M_chain minimises max(T * residual, height) over the chain and
    M_lattice is the reduction-certified minimum over all of Z^3.  The
    local maxima of the chain envelope sit at consecutive-pair crossings;
    each cubed crossing value height * residual^2 must stay below
    4 eps^3.  A single-vector chain passes vacuously; any other needs
    depth >= 3 for a window and samples >= 2 to span it end to end.
    """
    vecs = chain.vectors()
    if len(vecs) == 1:
        return {"vacuous": True, "ok": True, "sandwich": [], "maxima": []}
    if len(vecs) < 4:
        raise ValueError("sandwich window needs chain depth >= 3")
    if samples < 2:
        raise ValueError(f"sandwich audit needs samples >= 2, got {samples}")
    eps = max(n.eps for n in chain.nodes[1:])
    x, _ = limit_box(chain)
    invs = [invariants(v) for v in vecs]
    t_lo, t_hi = invs[1].exp3tau, invs[-2].exp3tau
    ln_lo, ln_hi = ln_fraction(t_lo), ln_fraction(t_hi)

    slack = 1 - eps**6
    rows = []
    for i in range(samples):
        if i == 0:
            t = t_lo
        elif i == samples - 1:
            t = t_hi
        else:
            t = _exp_fraction(ln_lo + i * (ln_hi - ln_lo) / (samples - 1))
        m_chain = chain_score(chain, x, t)
        _, m_lat = shortest_vector_reduced(x, t)
        ln_t = ln_fraction(t)
        rows.append(
            {
                "t": ln_t / 3,
                "w_chain": ln_fraction(m_chain) - 2 * ln_t / 3,
                "w_lattice": ln_fraction(m_lat) - 2 * ln_t / 3,
                "upper_ok": m_lat <= m_chain,
                "lower_ok": slack * m_chain <= m_lat,
            }
        )

    cap = 4 * eps**3
    maxima = []
    for k in range(len(vecs) - 1):
        value_cubed = vecs[k + 1].q * residual(x, vecs[k]) ** 2
        maxima.append(
            {
                "k": k,
                "value_cubed": value_cubed,
                "ok": value_cubed <= cap,
            }
        )

    ok = all(r["upper_ok"] and r["lower_ok"] for r in rows) and all(
        m["ok"] for m in maxima
    )
    return {
        "vacuous": False,
        "ok": ok,
        "eps": float(eps),
        "window": (ln_lo / 3, ln_hi / 3),
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

    The child is the minimal height in the forced residue class strictly
    above eps_prime^-3 |Hhat(u)|^2.  Returns the child plus float gaps
    measuring how closely the child's distortion tracks eps_prime and
    how the log-height clock advanced.  Raises OverflowError when that
    height has more than MAX_HEIGHT_DIGITS = 4300 digits.
    """
    eps_prime = Fraction(eps_prime)
    if not 0 < eps_prime < 1:
        raise ValueError("distortion target must lie in (0, 1)")
    inv = invariants(u)
    target = inv.Lhat
    bound = Fraction(inv.absLhat**2) / eps_prime**3
    base = math.floor(bound) + 1
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
    the schedule dictates at the current clock reading.  The returned certificate
    samples the true profile of the limit point and checks it never dips
    below the target by more than the measured envelope
    3 * (alignment bound) + (float defect).  The sampled window runs from
    the first child to the second-to-last node, so it needs steps >= 3;
    the samples span it end to end, so they need samples >= 2.
    """
    if steps < 3:
        raise ValueError(f"slow chain needs steps >= 3, got {steps}")
    if samples < 2:
        raise ValueError(f"slow chain needs samples >= 2, got {samples}")
    chain = Chain([ChainNode(u0)])
    inv0 = invariants(u0)
    f_third = lambda t: -w_target(t) / 3
    sched = regularize_schedule(f_third, delta, Fraction(inv0.tau))
    aligns = []
    eps_used = []
    for _ in range(steps):
        u = chain.tip
        inv_u = invariants(u)
        log_eps_u = ln_fraction(inv_u.eps3) / 3
        y = sched.value_at(Fraction(inv_u.tau + abs(log_eps_u)))
        eps_p = _exp_fraction(-float(y))
        if not eps_p < 1:
            raise ValueError("schedule produced a non-shrinking distortion")
        v, _gaps = slow_step(u, eps_p)
        _append(chain, v, eps_p, check_growth=False)
        aligns.append(abs(float(sched.value_at(Fraction(inv_u.tau))) + log_eps_u))
        eps_used.append(eps_p)

    vecs = chain.vectors()
    invs = [invariants(v) for v in vecs]
    taus = [iv.tau for iv in invs]
    eps3s = [iv.eps3 for iv in invs]
    defects = [
        taus[k + 1] - taus[k] - abs(ln_fraction(eps3s[k]))
        for k in range(len(vecs) - 1)
    ]
    align_bound = max(aligns)
    eps_max = max(max(eps_used), max(float(iv.eps) for iv in invs[1:]))
    float_defect = abs(math.log(1 - eps_max**6))
    envelope = 3 * align_bound + float_defect

    x, _ = limit_box(chain)
    t_lo, t_hi = taus[1], taus[-2]
    worst = 0.0
    rows = []
    for i in range(samples):
        t = t_lo + i * (t_hi - t_lo) / (samples - 1)
        big_t = _exp_fraction(3 * t)
        _, m_lat = shortest_vector_reduced(x, big_t)
        w_x = ln_fraction(m_lat) - 2 * ln_fraction(big_t) / 3
        gap = w_target(t) - w_x
        worst = max(worst, gap)
        rows.append({"t": t, "w_x": w_x, "w_target": w_target(t)})
    sing_like = all(b < a for a, b in zip(eps3s, eps3s[1:]))
    di_like = len(set(eps_used)) == 1
    cert = {
        "ok": worst <= envelope + 1e-9,
        "slack": worst,
        "alignment_bound": align_bound,
        "float_defect": float_defect,
        "envelope": envelope,
        "defects": defects,
        "defect_bound": max(abs(d) for d in defects),
        "sing_like": sing_like,
        "di_like": di_like,
        "window": (t_lo, t_hi),
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


def expansion_tree(
    seed: PrimVec, eps, n: int = 1, depth: int = 3, expand: int = 5,
    width: int = 50,
) -> TreeNode:
    """Branching family: every expanded node materialises its lex-first
    `width` children (split evenly across sublattice pairs), and the
    lex-first `expand` of those recurse until `depth` levels.  Only the
    kept children are built, and only the slot pairs up to the last of
    them have their windows computed.  Raises ValueError when eps is so
    small that such a slot's height multiplier exceeds
    MAX_SLOT_MULTIPLIER = 10^100."""
    if min(depth, expand, width) < 0:
        raise ValueError(
            f"depth, expand and width must be nonnegative, got {depth}, {expand}, {width}"
        )
    pairs = len(coprime_pairs(n))
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
        frontier = nxt
    return root


def iter_tree(root: TreeNode):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def tree_audit(root: TreeNode, eps, n: int = 1) -> dict:
    """Exact per-edge and per-sibling audit of an expansion tree.

    Every parent-child edge must pass successor membership, strict
    nesting, and (when the parent is distorted) the height growth bound;
    every child must land in the half-open distortion band
    [eps/2, eps); and every sibling pair must clear the spacing floor.
    Reports the worst margins alongside the pass flags.

    Only expanded nodes are reduced (`invariants`).  Each child's |L| is
    read once, from its wedge w with the parent (`absL_from_wedge`): when w
    is primitive and 2|w|^2 < |v|, +-w is the child's unique shortest class,
    which is the case for every child in the band whose shortest class is
    that wedge.  The band, nesting and spacing checks all use that value.
    """
    eps = Fraction(eps)
    half = eps / 2
    e3n, e3d = eps.numerator**3, eps.denominator**3
    totals = {
        "nodes": 0,
        "expanded": 0,
        "edges": 0,
        "growth_checked": 0,
        "spacing_pairs": 0,
    }
    fails = {"membership": 0, "band": 0, "nesting": 0, "growth": 0, "spacing": 0}
    min_spacing_ratio = None
    min_kappa = None
    for node in iter_tree(root):
        totals["nodes"] += 1
        if not node.expanded:
            continue
        totals["expanded"] += 1
        u = node.u
        inv = invariants(u)
        kappa = Fraction(inv.absLhat * inv.absL, u.q)
        min_kappa = kappa if min_kappa is None else min(min_kappa, kappa)
        distorted = distortion_below(u, eps)  # growth_ok's test, once per parent
        L = canonical_sign(inv.L)
        kids = [(ch.u, absL_from_wedge(ch.u, u)) for ch in node.children]
        for v, lv in kids:
            totals["edges"] += 1
            if not all(_successor_flags(u, v, L, e3n, e3d)):
                fails["membership"] += 1
            if not (cube_below(lv, v.q, eps) and not cube_below(lv, v.q, half)):
                fails["band"] += 1
            if _nesting_slack(u, v, lv) <= 0:
                fails["nesting"] += 1
            if distorted:
                totals["growth_checked"] += 1
                if not _grows(u, v, eps):
                    fails["growth"] += 1
        pairs, failed, least = _sibling_spacing(u, kids, eps, n)
        totals["spacing_pairs"] += pairs
        fails["spacing"] += failed
        if least is not None and (min_spacing_ratio is None or least < min_spacing_ratio):
            min_spacing_ratio = least
    return {
        "totals": totals,
        "fails": fails,
        "ok": not any(fails.values()),
        "min_spacing_ratio": _ratio_float(
            min_spacing_ratio.numerator, min_spacing_ratio.denominator)
        if min_spacing_ratio is not None
        else None,
        "min_kappa": float(min_kappa) if min_kappa is not None else None,
    }
