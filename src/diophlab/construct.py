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
sibling domains repel each other.

The sandwich audit closes the loop: it compares the chain's own minima
envelope against a from-scratch lattice minimum at sampled times, in
exact arithmetic at each sample.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .bestapprox import shortest_vector_reduced
from .core import PrimVec, RatPoint, Wedge2, proj_dist, residual, seminorm, wedge
from .latinv import (
    canonical_sign,
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


def height_window(u: PrimVec, a: int, b: int, eps) -> tuple[Fraction, Fraction]:
    """Open interval (M, 2M - 1) of admissible height multipliers.

    M is the distortion threshold for the slot's sublattice: any child
    of height above M * |u| lands strictly below distortion eps.  Raises
    ValueError when M exceeds MAX_SLOT_MULTIPLIER = 10^100, which bounds
    the work of a tree at tiny eps.
    """
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise ValueError("distortion bound must lie in (0, 1/2)")
    target = slot_sublattice(u, a, b)
    m = Fraction(seminorm(target) ** 2, u.q) / eps**3
    if m > MAX_SLOT_MULTIPLIER:
        raise ValueError(
            "distortion bound too small: a slot's height multiplier "
            f"exceeds {MAX_SLOT_MULTIPLIER:.0e}"
        )
    return m, 2 * m - 1


def slot_heights(u: PrimVec, a: int, b: int, eps, limit: int | None = None) -> list[int]:
    """Sampled height multipliers for the slot pair: the first
    floor((M - 1)/stride) multiples of the stride strictly above M.
    That count keeps every one inside the open window (M, 2M - 1): the
    first lies at most a stride above M, and exactly a stride only when
    M is a multiple of the stride, where the count falls short of
    (M - 1)/stride.  A limit returns just the first that many."""
    m, _ = height_window(u, a, b, eps)
    count = max(0, (m - 1) // SLOT_STRIDE)
    if limit is not None:
        count = min(count, limit)
    first = SLOT_STRIDE * (m // SLOT_STRIDE + 1)
    return list(range(first, first + SLOT_STRIDE * count, SLOT_STRIDE))


def admissible_slots(
    u: PrimVec, eps, n: int = 1, per_pair: int | None = None
) -> list[tuple[int, int, int]]:
    """Slots (a, b, c) admissible at distortion eps, in lex order.

    The full family can be enormous away from small seeds (the window
    above M holds about M/stride multipliers); per_pair caps the count
    taken from each sublattice pair.
    """
    out = []
    for a, b in coprime_pairs(n):
        for c in slot_heights(u, a, b, eps, per_pair):
            out.append((a, b, c))
    return out


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
    m, hi = height_window(u, a, b, eps)
    if not m < c < hi:
        raise ValueError(
            f"height multiplier {c} outside the admissible window "
            f"({frac_str(m)}, {frac_str(hi)})"
        )
    target = slot_sublattice(u, a, b)
    assert wedge_constraint_ok(target, u)
    z = wedge_residue(u, target)
    v = vector_with_wedge(u, target, c * u.q + z)
    assert v.q // u.q == c
    return v


def cantor_children(u: PrimVec, eps, n: int = 1) -> list[PrimVec]:
    """Every child of u over the admissible slots with a <= n, lex order."""
    return [child_vector(u, a, b, c, eps) for a, b, c in admissible_slots(u, eps, n)]


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


def _domain_radius(v: PrimVec) -> Fraction:
    """r = |L(v)| / |v|^2; the domain of v lies within sup distance 2r of
    the rational point and contains the ball of radius r/2 around it."""
    return Fraction(invariants(v).absL, v.q * v.q)


def _sibling_spacing(u: PrimVec, kids: list[PrimVec], eps, n: int):
    """Check every pair of u's children kids against the spacing floor.

    A pair's gap bound, the sup distance of its rational points minus both
    outer radii 2|L(v)|/|v|^2, must exceed rho * diam, with rho =
    spacing_floor(eps, n) and diam = 4 * radius(u) >= diam(domain(u)); the
    comparisons are exact integer cross-multiplications.  Returns the pair
    count, the count at or below the floor, and the least gap bound over
    the floor (a Fraction, None without pairs).
    """
    floor_val = spacing_floor(eps, n) * 4 * _domain_radius(u)
    fn, fd = floor_val.numerator, floor_val.denominator
    rows = [(v.p1, v.p2, v.q, 2 * invariants(v).absL) for v in kids]
    pairs = failures = 0
    least = None  # least gap bound (num, den), den = |va|^2 |vb|^2
    for i, (a1, a2, qa, ra) in enumerate(rows):
        for b1, b2, qb, rb in rows[i + 1:]:
            pairs += 1
            # seminorm(wedge(va, vb)) inlined: this loop dominates tree_audit
            dist = max(abs(a1 * qb - qa * b1), abs(a2 * qb - qa * b2))
            num, den = dist * qa * qb - ra * qb * qb - rb * qa * qa, (qa * qb) ** 2
            if num * fd <= fn * den:
                failures += 1
            if least is None or num * least[1] < least[0] * den:
                least = (num, den)
    return pairs, failures, None if least is None else Fraction(*least) / floor_val


def verify_spacing(u: PrimVec, va: PrimVec, vb: PrimVec, eps, n: int = 1) -> dict:
    """Exact separation certificate for two children of u:

        dist(domain(va), domain(vb)) >= rho * diam(domain(u))

    with rho = eps^9 / (2^11 n^3), checked by `_sibling_spacing`.  Both of
    its bounds err on the safe side, so a pass is a proof.  Returns the
    pass flag and the gap bound over the floor.  Raises ValueError when
    the children coincide or eps <= 0.
    """
    if va.as_tuple() == vb.as_tuple():
        raise ValueError("spacing needs two distinct children")
    _, failures, ratio = _sibling_spacing(u, [va, vb], eps, n)
    return {"ok": not failures, "ratio": float(ratio)}


def admissible_successor(u: PrimVec, v: PrimVec, eps) -> dict:
    """Exact membership checks for v as a chain successor of u.

    The wedge of the two must be primitive and differ from the shortest
    class of u's pair lattice, and v's height must exceed eps^-3 times
    the squared wedge seminorm.
    """
    eps = Fraction(eps)
    w = wedge(v, u)
    if w.is_zero():
        return {"wedge_primitive": False, "avoids_shortest": False,
                "height_ok": False, "ok": False}
    prim = math.gcd(w.m12, w.m13, w.m23) == 1
    inv = invariants(u)
    avoids = canonical_sign(w).as_tuple() != canonical_sign(inv.L).as_tuple()
    height_ok = Fraction(v.q) * eps**3 > seminorm(w) ** 2
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
    if v.q < 2:
        raise ValueError("child height must exceed 1 for the outer bound")
    r_u = _domain_radius(u)
    slack = r_u / 2 - proj_dist(u, v) - 2 * _domain_radius(v)
    return {"ok": slack > 0, "slack": slack}


def growth_ok(u: PrimVec, v: PrimVec, eps) -> dict:
    """Conditional height growth: once the parent is below distortion
    eps, the child must be taller by a factor above eps^-6.  Parents not
    yet distorted are exempt (the check reports inapplicable)."""
    eps = Fraction(eps)
    applicable = distortion_below(u, eps)
    ok = None
    if applicable:
        ok = Fraction(v.q) * eps**6 > u.q
    return {"applicable": applicable, "ok": ok}


def _proportional(w1: Wedge2, w2: Wedge2) -> bool:
    """Whether two wedge triples are parallel (all cross minors vanish)."""
    a = w1.as_tuple()
    b = w2.as_tuple()
    return (
        a[0] * b[1] == a[1] * b[0]
        and a[0] * b[2] == a[2] * b[0]
        and a[1] * b[2] == a[2] * b[1]
    )


@dataclass
class ChainNode:
    """One link: the vector plus the parameters that admitted it."""

    u: PrimVec
    eps: Fraction | None = None
    slot: tuple[int, int, int] | None = None


@dataclass
class Chain:
    """A nested chain of approximation vectors."""

    nodes: list[ChainNode]

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
        u = chain.tip
        slots = admissible_slots(u, eps, n, per_pair=1)
        if not slots:
            raise RuntimeError(f"no admissible slots at distortion {eps}")
        _append(chain, child_vector(u, *slots[0], eps), eps, slots[0])
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
        m, hi = height_window(u, a, b, eps)
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
    lies within twice the tip's radius of its rational point.
    """
    v = chain.tip
    if v.q <= 1:
        raise ValueError("chain too short: tip height must exceed 1")
    return v.proj(), 2 * _domain_radius(v)


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
    4 eps^3.  A single-vector chain passes vacuously.
    """
    vecs = chain.vectors()
    if len(vecs) == 1:
        return {"vacuous": True, "ok": True, "sandwich": [], "maxima": []}
    if len(vecs) < 4:
        raise ValueError("sandwich window needs chain depth >= 3")
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


@dataclass
class Schedule:
    """A nondecreasing step function built by the regularised recursion.

    Knots (t_k, y_k) satisfy t_{k+1} = t_k + y_k and
    y_{k+1} = min(F(t_{k+1}), y_k + delta); the function takes the value
    y_k on [t_k, t_{k+1}).  Knots extend lazily on demand, up to
    MAX_SCHEDULE_KNOTS = 10^4 of them; a value_at that needs more raises
    ValueError.
    """

    delta: Fraction
    knots: list[tuple[Fraction, Fraction]]
    target: Callable[[float], float] = field(repr=False)

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


def regularize_schedule(f_target, delta, t0, steps: int = 8) -> Schedule:
    """Regularise a nondecreasing target into a self-consistent step
    function: starting from t0, each knot advances time by the current
    value and lifts the value toward the target by at most delta.

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
    for _ in range(steps - 1):
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


@dataclass
class TreeNode:
    """One vertex of a branching family expansion."""

    u: PrimVec
    slot: tuple[int, int, int] | None
    children: list = field(default_factory=list)
    expanded: bool = False


def expansion_tree(
    seed: PrimVec, eps, n: int = 1, depth: int = 3, expand: int = 5,
    width: int = 50,
) -> TreeNode:
    """Branching family: every expanded node materialises its lex-first
    `width` children (split evenly across sublattice pairs), and the
    lex-first `expand` of those recurse until `depth` levels.  Raises
    ValueError when eps is so small that a slot's height multiplier
    exceeds MAX_SLOT_MULTIPLIER = 10^100."""
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
            slots = admissible_slots(node.u, eps, n, per_pair)[:width]
            node.children = [
                TreeNode(child_vector(node.u, *s, eps), s) for s in slots
            ]
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
    """
    eps = Fraction(eps)
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
        inv = invariants(node.u)
        kappa = Fraction(inv.absLhat * inv.absL, node.u.q)
        min_kappa = kappa if min_kappa is None else min(min_kappa, kappa)
        for ch in node.children:
            totals["edges"] += 1
            if not admissible_successor(node.u, ch.u, eps)["ok"]:
                fails["membership"] += 1
            if not (distortion_below(ch.u, eps) and not distortion_below(ch.u, eps / 2)):
                fails["band"] += 1
            if not nesting_ok(node.u, ch.u)["ok"]:
                fails["nesting"] += 1
            g = growth_ok(node.u, ch.u, eps)
            if g["applicable"]:
                totals["growth_checked"] += 1
                if not g["ok"]:
                    fails["growth"] += 1
        pairs, failed, least = _sibling_spacing(
            node.u, [ch.u for ch in node.children], eps, n
        )
        totals["spacing_pairs"] += pairs
        fails["spacing"] += failed
        if least is not None and (min_spacing_ratio is None or least < min_spacing_ratio):
            min_spacing_ratio = least
    if min_spacing_ratio is not None and min_spacing_ratio > sys.float_info.max:
        raise ValueError("min_spacing_ratio exceeds the float range; eps is too small")
    return {
        "totals": totals,
        "fails": fails,
        "ok": not any(fails.values()),
        "min_spacing_ratio": float(min_spacing_ratio)
        if min_spacing_ratio is not None
        else None,
        "min_kappa": float(min_kappa) if min_kappa is not None else None,
    }
