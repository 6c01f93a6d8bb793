import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diophlab import construct
from diophlab.bestapprox import (
    BestApproxSeq, shortest_vector_oracle, shortest_vector_reduced, wx_profile)
from diophlab.core import RatPoint, proj_dist, pvec, residual, seminorm, wedge
from diophlab.domains import in_domain
from diophlab.latinv import absL_from_wedge, distortion_below, invariants, lattice_minima
from diophlab.construct import (
    SING_C,
    Chain,
    ChainNode,
    admissible_successor,
    child_vector,
    coprime_pairs,
    expansion_tree,
    fixed_chain,
    growth_ok,
    height_window,
    iter_tree,
    nesting_ok,
    regularize_schedule,
    sandwich_audit,
    sing_chain,
    sing_params,
    slot_children,
    slot_sublattice,
    slow_chain,
    slow_step,
    spacing_floor,
    tree_audit,
    verify_spacing,
    _proportional,
)

F = Fraction
SEED = pvec(0, 0, 1)
EIGHTH = F(1, 8)


@pytest.fixture(scope="module")
def chain4():
    return fixed_chain(SEED, EIGHTH, 4)


@pytest.fixture(scope="module")
def slow15():
    u0 = pvec(67, 1, 1000)
    return slow_chain(u0, lambda t: -math.log(1 + t), 1, steps=15, samples=200)


@pytest.fixture(scope="module")
def sing6():
    return sing_chain(SEED, 6)


@pytest.fixture(scope="module")
def tree3():
    root = expansion_tree(SEED, EIGHTH, depth=3, expand=5, width=50)
    return root, tree_audit(root, EIGHTH)


# ---------------------------------------------------------------- slots


def test_coprime_pairs_small():
    assert list(coprime_pairs(1)) == [(1, 0), (1, 1)]
    assert list(coprime_pairs(2)) == [(1, 0), (1, 1), (2, 1)]
    assert list(coprime_pairs(3)) == [(1, 0), (1, 1), (2, 1), (3, 1), (3, 2)]


def test_coprime_pairs_counts_totient():
    def phi(a):
        return sum(1 for b in range(1, a + 1) if math.gcd(a, b) == 1)

    for n in range(1, 12):
        expected = 2 + sum(phi(a) for a in range(2, n + 1))
        assert len(list(coprime_pairs(n))) == expected


def test_height_window_seed():
    assert height_window(SEED, slot_sublattice(SEED, 1, 0), EIGHTH) == (F(512), F(1023))
    assert height_window(SEED, slot_sublattice(SEED, 1, 1), EIGHTH) == (F(512), F(1023))


def test_height_window_scales_with_slot_norm():
    u1 = child_vector(SEED, 1, 0, 520, EIGHTH)
    # slot wedge for (1,0) is the second minimum, norm 520
    assert height_window(u1, slot_sublattice(u1, 1, 0), EIGHTH) == (F(266240), F(532479))


def test_height_window_rejects_bad_eps():
    for bad in (F(0), F(1, 2), F(3, 5), F(-1, 8)):
        with pytest.raises(ValueError):
            height_window(SEED, slot_sublattice(SEED, 1, 0), bad)


def small_roots():
    return st.tuples(
        st.integers(1, 7), st.integers(0, 6), st.integers(0, 6)
    ).filter(lambda t: t[1] < t[0] and t[2] < t[0] and math.gcd(*t) == 1).map(
        lambda t: pvec(t[1], t[2], t[0]))


def pair_heights(u, a, b, eps, per_pair=None):
    return [c for (pa, pb, c), _ in slot_children(u, eps, a, per_pair)
            if (pa, pb) == (a, b)]


def test_slot_heights_seed():
    cs = pair_heights(SEED, 1, 0, EIGHTH)
    assert len(cs) == 25
    assert cs[0] == 520 and cs[-1] == 1000
    assert all(b - a == 20 for a, b in zip(cs, cs[1:]))
    assert all(512 < c < 1023 for c in cs)
    assert pair_heights(SEED, 1, 0, EIGHTH, per_pair=1) == [520]


def test_slot_heights_stay_inside_the_window():
    # eps 1/10 and 1/20 put the window's lower end M on a multiple of the
    # stride, where the first height sits a full stride above M
    lows = []
    for eps in (EIGHTH, F(3, 25), F(1, 10), F(1, 20)):
        for a, b in coprime_pairs(1):
            m, hi = height_window(SEED, slot_sublattice(SEED, a, b), eps)
            cs = pair_heights(SEED, a, b, eps)
            assert hi == 2 * m - 1 and cs, (eps, a, b)
            assert all(m < c < hi for c in cs), (eps, a, b)
            lows.append(m)
    assert 1000 in lows and 8000 in lows, lows


def test_admissible_slots_seed_fifty():
    slots = [s for s, _ in slot_children(SEED, EIGHTH)]
    assert len(slots) == 50
    assert slots[0] == (1, 0, 520)
    assert slots[-1] == (1, 1, 1000)
    assert len(list(slot_children(SEED, EIGHTH, per_pair=3))) == 6


def test_first_admissible_slot():
    assert next(slot_children(SEED, EIGHTH, per_pair=1)) == ((1, 0, 520), pvec(0, 1, 520))


@settings(max_examples=40, deadline=None)
@given(u=small_roots(), eps=st.sampled_from([EIGHTH, F(1, 5), F(2, 5), F(49, 100)]),
       n=st.sampled_from([1, 2]), per_pair=st.sampled_from([None, 1, 3]),
       shrink=st.sampled_from([None, F(1023, 1024), F(1, 2), F(1, 10)]))
# a distorted parent from a singular chain's first step, where eps^-6 lies
# above both M and the cube cap's bound: the growth floor sets the lower end
@example(u=pvec(14171, 16184, 21176), eps=sing_params(1, None)[0], n=1, per_pair=3,
         shrink=F(1023, 1024))
def test_slot_children_match_child_vector(u, eps, n, per_pair, shrink):
    # the enumerator against the validated single-slot constructor, with
    # the window's lower end raised by a cap of shrink times u's eps^3
    cap = None if shrink is None else shrink * invariants(u).eps3
    out = list(slot_children(u, eps, n, per_pair, eps3_cap=cap))
    slots = [s for s, _ in out]
    assert slots == sorted(set(slots))
    per_slot_pair = Counter(s[:2] for s in slots)
    assert per_pair is None or max(per_slot_pair.values(), default=0) <= per_pair
    floor = cap is not None and distortion_below(u, eps)
    for (a, b, c), v in out:
        m, hi = height_window(u, slot_sublattice(u, a, b), eps)
        assert m < c < hi
        assert v == child_vector(u, a, b, c, eps)
        assert cap is None or invariants(v).eps3 < cap
        assert not floor or v.q * eps**6 > u.q


# ------------------------------------------------------- child vectors


def test_child_vector_frozen_examples():
    assert child_vector(SEED, 1, 0, 520, EIGHTH) == pvec(0, 1, 520)
    assert child_vector(SEED, 1, 1, 520, EIGHTH) == pvec(1, 1, 520)
    assert child_vector(SEED, 1, 0, 1020, EIGHTH) == pvec(0, 1, 1020)
    # any integer inside the open window is a legal multiplier, slots
    # are just the audited sub-progression
    assert child_vector(SEED, 1, 0, 1022, EIGHTH) == pvec(0, 1, 1022)


def test_child_vector_window_rejects():
    for c in (512, 500, 1023, 1040):
        with pytest.raises(ValueError):
            child_vector(SEED, 1, 0, c, EIGHTH)


def test_child_vector_pair_validation():
    with pytest.raises(ValueError):
        child_vector(SEED, 2, 4, 520, EIGHTH)
    with pytest.raises(ValueError):
        child_vector(SEED, 0, 1, 520, EIGHTH)


def test_child_floor_and_band(chain4):
    vs = chain4.vectors()
    for node, u, v in zip(chain4.nodes[1:], vs, vs[1:]):
        a, b, c = node.slot
        assert v.q // u.q == c
        assert distortion_below(v, EIGHTH)
        assert not distortion_below(v, EIGHTH / 2)


def test_band_membership_is_razor_thin(chain4):
    # u2 clears the distortion bound by a single part in 13313
    u2 = chain4.vectors()[2]
    assert invariants(u2).eps3 == F(26, 13313)
    assert 26 * 512 == 13313 - 1


# ---------------------------------------------------------- the chain


def test_fixed_chain_frozen_nodes(chain4):
    vs = chain4.vectors()
    assert vs[1] == pvec(0, 1, 520)
    assert vs[2] == pvec(1, 266260, 138455200)
    assert vs[3] == pvec(262181, 69808313060, 36300322791199)
    assert vs[4] == pvec(68733632629, 18301017023797541, 9516528852374459159)
    assert [n.slot for n in chain4.nodes[1:]] == [
        (1, 0, 520),
        (1, 0, 266260),
        (1, 0, 262180),
        (1, 0, 262160),
    ]


def test_chain_minima_frozen(chain4):
    expected = [(1, 1), (1, 520), (520, 266260), (266260, 136333608),
                (136333608, 34903757396)]
    for v, (abs_l, abs_h) in zip(chain4.vectors(), expected):
        iv = invariants(v)
        assert iv.absL == abs_l
        assert iv.absLhat == abs_h


def test_last_slot_is_minimal(chain4):
    u3 = chain4.vectors()[3]
    m, hi = height_window(u3, slot_sublattice(u3, 1, 0), EIGHTH)
    assert m == F(9516468567192403968, 36300322791199)
    # 262160 is the first multiple of 20 strictly above the floor
    assert 262140 <= m < 262160 < hi


def test_growth_after_second_extension(chain4):
    vs = chain4.vectors()
    assert vs[2].q > 8**6 * vs[1].q
    assert 138455200 > 262144 * 520
    # membership margin at the next edge, fully expanded
    assert vs[3].q > 512 * 266260**2


def test_kappa_along_chain(chain4):
    vs = chain4.vectors()
    kappas = [
        F(invariants(v).absL * invariants(v).absLhat, v.q) for v in vs
    ]
    assert kappas[0] == 1 and kappas[1] == 1 and kappas[2] == 1
    assert all(F(1, 2) <= k <= 1 for k in kappas)
    # the tip sits essentially at the lower bound
    assert F(1, 2) < kappas[4] < F(51, 100)


def test_kappa_of_diagonal_child():
    v = child_vector(SEED, 1, 1, 520, EIGHTH)
    iv = invariants(v)
    assert F(iv.absL * iv.absLhat, v.q) == F(1, 2)


def test_seed_chain_singleton():
    ch = fixed_chain(SEED, EIGHTH, 0)
    assert ch.vectors() == [SEED]
    rows = ch.to_jsonable()
    assert len(rows) == 1
    assert rows[0]["eps"] is None and rows[0]["slot"] is None


def test_chain_jsonable_rows(chain4):
    rows = chain4.to_jsonable()
    assert list(rows[0].keys()) == ["k", "p", "q", "eps", "slot", "eps_cubed", "tau"]
    assert rows[1] == {
        "k": 1,
        "p": [0, 1],
        "q": 520,
        "eps": "1/8",
        "slot": [1, 0, 520],
        "eps_cubed": "1/520",
        "tau": pytest.approx(4.169219207716982),
    }


# --------------------------------------------- successor predicates


def radius(v):
    """|L(v)|/|v|^2 as a Fraction, from the reduced pair lattice."""
    return F(invariants(v).absL, v.q * v.q)


def nesting_slack(u, v):
    """The Fraction formula `nesting_ok` certifies as positive."""
    return radius(u) / 2 - proj_dist(u, v) - 2 * radius(v)


def test_admissible_successor_frozen_edge(chain4):
    vs = chain4.vectors()
    assert admissible_successor(invariants(vs[0]), vs[1], EIGHTH) is True


def test_admissible_successor_rejects_shortest_direction():
    # at height 1000 > 8^3 the height clause passes and both wedges are
    # primitive, so only the shortest class can reject: (1,0,1000) and
    # (-1,0,1000) give the wedges +L(seed) and -L(seed), the latter only
    # through canonical_sign; (0,1,1000) is the control off the class
    inv = invariants(SEED)
    for v in (pvec(1, 0, 1000), pvec(-1, 0, 1000)):
        w = wedge(v, SEED)
        assert math.gcd(*w) == 1 and F(v.q) * EIGHTH**3 > seminorm(w) ** 2
        assert off_shortest_class(SEED, w) is False
        assert admissible_successor(inv, v, EIGHTH) is False
    assert admissible_successor(inv, pvec(0, 1, 1000), EIGHTH) is True


def test_admissible_successor_low_height():
    # the same wedge passes at a looser bound, so only the height fails
    v = pvec(0, 1, 9)
    assert admissible_successor(invariants(SEED), v, EIGHTH) is False
    assert admissible_successor(invariants(SEED), v, F(1, 2)) is True


def test_admissible_successor_degenerate_self():
    assert admissible_successor(invariants(SEED), SEED, EIGHTH) is False


def test_nesting_frozen_edges(chain4):
    vs = chain4.vectors()
    for u, v in zip(vs, vs[1:]):
        assert nesting_slack(u, v) > 0
        assert nesting_ok(invariants(u), v, invariants(v).absL) is True


def test_nesting_rejects_sibling():
    u1a = child_vector(SEED, 1, 0, 520, EIGHTH)
    u1b = child_vector(SEED, 1, 1, 520, EIGHTH)
    assert nesting_slack(u1a, u1b) == F(-1043, 540800)
    assert nesting_ok(invariants(u1a), u1b, invariants(u1b).absL) is False


def test_nesting_needs_child_height():
    with pytest.raises(ValueError):
        nesting_ok(invariants(SEED), pvec(1, 0, 1), 1)


def test_growth_conditional(chain4):
    vs = chain4.vectors()
    # the seed is undistorted at 1/8, so no growth obligation there
    assert not distortion_below(vs[0], EIGHTH)
    assert distortion_below(vs[1], EIGHTH)
    assert growth_ok(vs[1], vs[2], EIGHTH) is True


@settings(max_examples=40, deadline=None)
@given(u=small_roots(), eps=st.sampled_from([EIGHTH, F(1, 10), F(3, 25)]))
def test_integer_edge_predicates_match_fraction_formulas(u, eps):
    # each predicate against the Fraction formula it replaced, on the
    # children of u and of two of them (distorted parents, so the growth
    # clause applies), at the construction's eps and at the band's eps/2
    def kids(w):
        return [v for _, v in slot_children(w, eps, 1, per_pair=3)]

    edges = [(u, v) for v in kids(u)]
    edges += [(v, w) for _, v in edges[:2] for w in kids(v)]
    for w, v in edges:
        assert nesting_ok(invariants(w), v, invariants(v).absL) == (nesting_slack(w, v) > 0)
        for e in (eps, eps / 2):
            assert distortion_below(v, e) == (invariants(v).eps3 < e**3)
            assert admissible_successor(invariants(w), v, e) == formula_admissible(w, v, e)
            assert growth_ok(w, v, e) == (F(v.q) * e**6 > w.q)


def off_shortest_class(u, w):
    """Whether the wedge w is neither +L(u) nor -L(u)."""
    return invariants(u).L not in (tuple(w), tuple(-m for m in w))


def formula_admissible(u, v, eps):
    """Membership of the edge u -> v from its definition: the wedge is
    primitive, off the shortest class of u, and eps^3 |v| > |wedge|^2."""
    w = wedge(v, u)
    return (math.gcd(*w) == 1 and off_shortest_class(u, w)
            and F(v.q) * eps**3 > seminorm(w) ** 2)


def formula_faults(u, v, eps):
    """The names of the edge checks u -> v fails, in the edge rule's order,
    each from its Fraction formula."""
    return [name for name, ok in (
        ("membership", formula_admissible(u, v, eps)),
        ("nesting", nesting_slack(u, v) > 0),
        ("growth", not invariants(u).eps3 < eps**3 or F(v.q) * eps**6 > u.q),
    ) if not ok]


def test_integer_predicates_keep_strict_ties():
    half = F(1, 2)
    # |L| = 1 at height 8: eps(v)^3 = 1/8 = (1/2)^3 exactly
    tie, above = pvec(0, 1, 8), pvec(0, 1, 9)
    assert invariants(tie).absL == invariants(above).absL == 1
    assert not distortion_below(tie, half)
    assert distortion_below(above, half)
    # |v| eps^3 = 1 = seminorm(wedge(v, seed))^2 at the tie
    assert not admissible_successor(invariants(SEED), tie, half)
    assert admissible_successor(invariants(SEED), above, half)
    # a parent of height 9 below 1/2 needs a child taller than 9 * 2^6 = 576
    assert not growth_ok(above, pvec(0, 1, 576), half)
    assert growth_ok(above, pvec(0, 1, 577), half)


# ------------------------------------------------------------ spacing


def test_spacing_floor_value():
    assert spacing_floor(EIGHTH, 1) == F(1, 2**38)


def reduced_records(kids):
    """The children paired with |L(v)| from the reduced pair lattice, a
    route apart from the wedge certificate the library reads, as
    `verify_spacing` takes them."""
    return [(v, invariants(v).absL) for v in kids]


def test_spacing_all_sibling_pairs():
    kids = reduced_records([v for _, v in slot_children(SEED, EIGHTH)])
    assert len(kids) == 50
    for i, a in enumerate(kids):
        for b in kids[i + 1:]:
            assert verify_spacing(SEED, a, b, EIGHTH) is True


def test_spacing_adjacent_same_pair():
    u1 = child_vector(SEED, 1, 0, 520, EIGHTH)
    u2 = child_vector(SEED, 1, 0, 540, EIGHTH)
    assert verify_spacing(SEED, *reduced_records([u1, u2]), EIGHTH) is True


@pytest.mark.parametrize("eps, spacing_fails", [(EIGHTH, 0), (F(49, 100), 58)])
def test_tree_audit_spacing_matches_verify_spacing(eps, spacing_fails):
    # an all-pairs Fraction reference apart from the library's integer
    # routine: each gap bound, the point distance minus both outer radii
    # 2|L(v)|/|v|^2, against rho * 4|L(u)|/|u|^2; at the loose eps many
    # sibling pairs miss the floor
    root = expansion_tree(SEED, EIGHTH, depth=2, width=8)
    rep = tree_audit(root, eps)
    ratios = []
    for node in iter_tree(root):
        kids = reduced_records([ch.u for ch in node.children])
        floor_val = spacing_floor(eps, 1) * 4 * radius(node.u)
        for i, a in enumerate(kids):
            for b in kids[i + 1:]:
                va, vb = a[0], b[0]
                ratio = (proj_dist(va, vb) - 2 * radius(va) - 2 * radius(vb)) / floor_val
                ratios.append(ratio)
                assert verify_spacing(node.u, a, b, eps) == (ratio > 1)
    assert len(ratios) == rep["totals"]["spacing_pairs"]
    assert sum(r <= 1 for r in ratios) == rep["fails"]["spacing"] == spacing_fails
    assert float(min(ratios)) == rep["min_spacing_ratio"]


def with_absL(u, kids):
    """The children paired with |L(v)| read through the wedge certificate,
    as `_sibling_spacing` takes them."""
    return [(v, absL_from_wedge(v, u)) for v in kids]


def all_pairs_spacing(u, kids, eps, n):
    """Every sibling pair through the exact integer gap bound: the oracle
    for the pruned sweep of `construct._sibling_spacing`."""
    floor_val = spacing_floor(eps, n) * 4 * F(invariants(u).absL, u.q * u.q)
    fn, fd = floor_val.numerator, floor_val.denominator
    rows = [(v.p1, v.p2, v.q, 2 * invariants(v).absL) for v in kids]
    pairs = failures = 0
    least = None  # least gap bound (num, den), den = |va|^2 |vb|^2
    for i, (a1, a2, qa, ra) in enumerate(rows):
        for b1, b2, qb, rb in rows[i + 1:]:
            pairs += 1
            dist = max(abs(a1 * qb - qa * b1), abs(a2 * qb - qa * b2))
            num, den = dist * qa * qb - ra * qb * qb - rb * qa * qa, (qa * qb) ** 2
            if num * fd <= fn * den:
                failures += 1
            if least is None or num * least[1] < least[0] * den:
                least = (num, den)
    return pairs, failures, None if least is None else F(*least) / floor_val


@settings(max_examples=40, deadline=None)
@given(u=small_roots(), width=st.integers(0, 16), n=st.integers(1, 2),
       eps=st.integers(1, 49).map(lambda k: F(k, 100)), rng=st.randoms())
@example(u=SEED, width=8, n=1, eps=F(49, 100), rng=random.Random(0))
def test_pruned_spacing_matches_all_pairs(u, width, n, eps, rng):
    # children built at 1/8 and checked at eps: near 1/2 the floor rises
    # above many sibling gaps (58 failures at 49/100 on the width-8 seed
    # tree), so failures and the least ratio are both compared; the input
    # order of the siblings must not matter
    root = expansion_tree(u, EIGHTH, depth=2, width=width)
    for node in iter_tree(root):
        kids = [ch.u for ch in node.children]
        rng.shuffle(kids)
        assert construct._sibling_spacing(node.u, with_absL(node.u, kids), eps, n) == (
            all_pairs_spacing(node.u, kids, eps, n))


@settings(max_examples=100, deadline=None)
@given(u=small_roots(), eps=st.integers(1, 49).map(lambda k: F(k, 100)),
       kids=st.lists(st.integers(1, 30).flatmap(lambda q: st.tuples(
           st.integers(-q, 2 * q - 1), st.integers(-q, 2 * q - 1), st.just(q))),
           max_size=12))
@example(u=SEED, eps=F(12, 100), kids=[(p, 0, 29) for p in range(1, 12)] + [(1, 1, 1)])
def test_pruned_spacing_matches_all_pairs_on_any_points(u, eps, kids):
    # the pruning argument uses only the triangle inequality, so it must
    # hold for any points, not just for children on their slot lines; these
    # lie in [-1, 2)^2, where the low ones' outer radii swallow their gaps.
    # In the example the child of outer radius 2 is last by distance from u
    # but first by the low end of its interval
    kids = [pvec(*t) for t in kids if math.gcd(*t) == 1]
    assert construct._sibling_spacing(u, with_absL(u, kids), eps, 1) == (
        all_pairs_spacing(u, kids, eps, 1))


@settings(max_examples=60, deadline=None)
@given(u=small_roots(), width=st.integers(0, 12),
       build=st.integers(5, 49).map(lambda k: F(k, 100)),
       audit=st.integers(1, 49).map(lambda k: F(k, 100)))
def test_tree_audit_matches_reduced_children(u, width, build, audit):
    # the wedge certificate of each child's |L| changes no audit figure:
    # the reference reads invariants(v).absL for every child, and auditing
    # at another eps than the build's gives band and spacing failures too
    root = expansion_tree(u, build, depth=2, width=width)
    got = tree_audit(root, audit)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "absL_from_wedge", lambda v, _: invariants(v).absL)
        assert got == tree_audit(root, audit)


def count_pair_gaps(monkeypatch):
    """A list that grows by one for each `_pair_gap` call from now on."""
    calls = []
    pair_gap = construct._pair_gap

    def counting(va, la, vb, lb):
        calls.append(None)
        return pair_gap(va, la, vb, lb)

    monkeypatch.setattr(construct, "_pair_gap", counting)
    return calls


def test_readme_tree_sweep_evaluates_few_pairs(tree3, monkeypatch):
    # the sweep evaluates 954 of the README tree's 37,975 sibling pairs;
    # one that fell back to all pairs would evaluate every one
    root, want = tree3
    invariants.cache_clear()
    calls = count_pair_gaps(monkeypatch)
    assert tree_audit(root, EIGHTH) == want
    assert want["totals"]["spacing_pairs"] == 37975
    assert len(calls) == 954


def test_wide_family_sweep_evaluates_few_pairs(monkeypatch):
    # one child from each of the first 2,000 slot pairs of family 10^9,
    # built from slot_children since tree_cost refuses the shape: each row
    # stops near its own interval, so the sweep evaluates 36,763 of the
    # 1,999,000 pairs, however large the radii far along the order
    kids = [v for _, v in islice(slot_children(SEED, EIGHTH, 10**9, 1), 2000)]
    calls = count_pair_gaps(monkeypatch)
    pairs, failed, _ = construct._sibling_spacing(SEED, with_absL(SEED, kids), EIGHTH, 10**9)
    assert (pairs, failed) == (1999000, 0)
    assert len(calls) <= 40000
    # and a family small enough for the oracle gets its exact figures
    kids = [v for _, v in islice(slot_children(SEED, EIGHTH, 1000, 1), 300)]
    assert construct._sibling_spacing(SEED, with_absL(SEED, kids), EIGHTH, 1000) == (
        all_pairs_spacing(SEED, kids, EIGHTH, 1000))


def test_readme_tree_computes_each_window_once(monkeypatch):
    # one height window per expanded node and slot pair: 31 nodes x 2 pairs;
    # building each child through child_vector would recompute its window
    calls = Counter()

    def counting(name):
        real = getattr(construct, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in ("height_window", "child_vector"):
        monkeypatch.setattr(construct, name, counting(name))
    root = expansion_tree(SEED, EIGHTH)
    assert sum(1 for node in iter_tree(root) if node.expanded) == 31
    assert calls == {"height_window": 62}


def test_wide_family_tree_builds_only_kept_children(monkeypatch):
    # family 20 has 129 slot pairs of one child each, far more than
    # `width`; only the lex-first `width` of them are built
    calls = []
    real = construct.vector_with_wedge

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(construct, "vector_with_wedge", counting)
    root = expansion_tree(SEED, EIGHTH, n=20, depth=2, expand=2, width=50)
    expanded = [node for node in iter_tree(root) if node.expanded]
    assert len(expanded) == 3
    assert len(calls) <= 50 * len(expanded)
    assert len(calls) == sum(len(node.children) for node in expanded)


def test_wide_family_tree_memory_does_not_grow_with_the_family():
    # family 1000 has about 3 * 10^5 slot pairs; a width-2 tree counts
    # only the first three of them
    tracemalloc.start()
    try:
        root = expansion_tree(SEED, EIGHTH, n=1000, depth=1, width=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [ch.slot for ch in root.children] == [(1, 0, 520), (1, 1, 520)]
    assert peak < 2**20, peak


def test_spacing_rejects_equal():
    a, b = reduced_records([child_vector(SEED, 1, 0, c, EIGHTH) for c in (520, 540)])
    with pytest.raises(ValueError):
        verify_spacing(SEED, a, a, EIGHTH)
    # a zero distortion bound gives a zero floor, which no ratio can use
    with pytest.raises(ValueError):
        verify_spacing(SEED, a, b, 0)
    # the exact verdict needs no float, so a tiny eps only tightens it
    assert verify_spacing(SEED, a, b, F(1, 10**40)) is True


def test_tree_audit_spacing_ratio_leaves_float_range():
    # a tiny eps shrinks the floor until the least gap ratio has no float
    root = expansion_tree(SEED, EIGHTH, depth=1, width=2)
    with pytest.raises(ValueError, match="float range"):
        tree_audit(root, F(1, 10**40))


# ------------------------------------------------- singular schedule


def test_sing_policy_values():
    eps0, n0 = sing_params(0, None)
    assert n0 == 16
    assert eps0**6 * F(math.log(math.log(16))) > F(SING_C)
    assert abs(float(eps0) - 0.241039) < 1e-5


def test_sing_policy_rejects():
    with pytest.raises(ValueError):
        sing_params(0, F(1))  # would shrink below half the previous


def test_sing_chain_frozen(sing6):
    assert [v.q for v in sing6.vectors()] == [
        1,
        80,
        513600,
        3318369599,
        21572679675179,
        148851751908906221,
        1042111093538254408443,
    ]
    assert [n.slot for n in sing6.nodes[1:]] == [
        (1, 0, 80),
        (1, 0, 6420),
        (1, 0, 6460),
        (1, 0, 6500),
        (2, 1, 6900),
        (2, 1, 7000),
    ]


def test_sing_chain_strictly_decreasing(sing6):
    e3 = [invariants(v).eps3 for v in sing6.vectors()]
    assert all(b < a for a, b in zip(e3, e3[1:]))


def test_sing_chain_growth_and_ratios(sing6):
    vs = sing6.vectors()
    for node, u, v in zip(sing6.nodes[1:], vs, vs[1:]):
        assert growth_ok(u, v, node.eps) or not distortion_below(u, node.eps)
    eps_used = [n.eps for n in sing6.nodes[1:]]
    for a, b in zip(eps_used, eps_used[1:]):
        assert F(1, 2) <= b / a <= 2


def test_sing_chain_radii_supergeometric(sing6):
    vs = sing6.vectors()[1:]
    radii = [F(2 * invariants(v).absL, v.q**2) for v in vs]
    ratios = [b / a for a, b in zip(radii, radii[1:])]
    assert all(r < F(1, 100000) for r in ratios)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def cube_capped_slot(u, eps, n, eps3_cap):
    # the slot rule singular chains used before they took their slots from
    # slot_children, kept verbatim: its own window, stride and lower bounds
    eps = F(eps)
    growth = eps**-6 if distortion_below(u, eps) else F(0)
    for a, b in coprime_pairs(n):
        m, hi = height_window(u, slot_sublattice(u, a, b), eps)
        lo = max(m, m * eps**3 / eps3_cap, growth)
        c = construct.SLOT_STRIDE * (lo // construct.SLOT_STRIDE + 1)
        if lo < c < hi:
            return (a, b, int(c))
    return None


def reference_sing_chain(u0, depth):
    chain = Chain([ChainNode(u0)])
    eps = None
    for step in range(depth):
        u = chain.tip
        eps, n = sing_params(step, eps)
        slot = cube_capped_slot(u, eps, n, construct.SING_SHRINK * invariants(u).eps3)
        if slot is None:
            raise RuntimeError(f"no admissible slots at distortion {eps}")
        construct._append(chain, child_vector(u, *slot, eps), eps, slot)
    return chain


def sing_pin_roots():
    rng = random.Random(29)
    roots = [SEED]
    while len(roots) < 60:
        q = rng.randint(2, 500)
        p1, p2 = rng.randrange(q), rng.randrange(q)
        if math.gcd(p1, p2, q) == 1:
            roots.append(pvec(p1, p2, q))
    return roots


def test_sing_chain_matches_the_cube_capped_slot_rule():
    # slot_children under eps3_cap must pick every slot the old rule picked:
    # same nodes, bounds and slots at every depth from every root
    for u0 in sing_pin_roots():
        for depth in range(1, 9):
            want = reference_sing_chain(u0, depth).nodes
            assert sing_chain(u0, depth).nodes == want, (u0, depth)


def test_slot_children_exact_cap():
    u1 = child_vector(SEED, 1, 0, 520, EIGHTH)
    cap = F(1023, 1024) * invariants(u1).eps3
    slot, child = next(slot_children(u1, EIGHTH, 1, eps3_cap=cap))
    assert slot == (1, 0, 270680)
    assert child == child_vector(u1, *slot, EIGHTH)
    assert invariants(child).eps3 < cap


# ---------------------------------------------------------- schedules


def test_regularize_frozen_knots():
    s = regularize_schedule(lambda t: F(t), 1, F(2))
    assert s.knots[:4] == [(F(2), F(2)), (F(4), F(3)), (F(7), F(4)), (F(11), F(5))]
    rep = s.verify()
    assert rep["ok"] and rep["below_target"] and rep["slope_ok"]


def test_schedule_lazy_extension():
    s = regularize_schedule(lambda t: F(t), 1, F(2))
    assert s.value_at(F(30)) == 8
    assert s.value_at(F(2)) == 2
    assert s.value_at(F(10)) == 4


def test_schedule_constant_target():
    s = regularize_schedule(lambda t: F(5), 1, F(0))
    assert s.value_at(F(100)) == 5
    assert s.verify()["ok"]


def test_schedule_rejects():
    with pytest.raises(ValueError):
        regularize_schedule(lambda t: F(t) - 3, 1, F(2))
    with pytest.raises(ValueError):
        regularize_schedule(lambda t: F(t), 0, F(2))
    s = regularize_schedule(lambda t: F(t), 1, F(2))
    with pytest.raises(ValueError):
        s.value_at(F(1))


# ---------------------------------------------------------- slow steps


def test_slow_step_frozen():
    v, gaps = slow_step(SEED, F(1, 2))
    assert v == pvec(0, 1, 9)
    # exact forms: ln2 - (2/3)ln3 and (4/3)ln3 - 2 ln2
    assert gaps["log_eps_gap"] == pytest.approx(
        math.log(2) - 2 * math.log(3) / 3, abs=1e-12)
    assert gaps["tau_gap"] == pytest.approx(
        4 * math.log(3) / 3 - 2 * math.log(2), abs=1e-12)
    v, gaps = slow_step(SEED, F(1, 8))
    assert v == pvec(0, 1, 513)
    assert gaps["log_eps_gap"] < 0 < gaps["tau_gap"]


def test_slow_step_minimality():
    # strict height bound: 9 > 2^3 while 8 fails, 513 > 8^3 while 512 fails
    v, _ = slow_step(SEED, F(1, 2))
    assert v.q == 9 > 8
    v, _ = slow_step(SEED, F(1, 8))
    assert v.q == 513 > 512


def test_slow_step_wedge_is_second_minimum():
    v, _ = slow_step(SEED, F(1, 2))
    w = wedge(SEED, v)
    h = lattice_minima(SEED)[1]
    assert abs(w.m13) == abs(h.m13) and abs(w.m23) == abs(h.m23)


def test_slow_step_rejects():
    for bad in (F(0), F(1), F(5, 4)):
        with pytest.raises(ValueError):
            slow_step(SEED, bad)


def test_slow_seed_invariants():
    iv = invariants(pvec(67, 1, 1000))
    assert iv.absL == 15 and iv.absLhat == 52
    assert iv.eps3 == F(9, 40)
    assert iv.tau == pytest.approx(3.7024867856206884)


# ---------------------------------------------------------- slow chain


def test_slow_chain_eps_strictly_decreasing(slow15):
    chain, _ = slow15
    e3 = [invariants(v).eps3 for v in chain.vectors()]
    assert len(e3) == 16
    assert all(b < a for a, b in zip(e3, e3[1:]))


def test_slow_chain_tau_and_defects(slow15):
    chain, cert = slow15
    taus = [invariants(v).tau for v in chain.vectors()]
    assert all(b > a for a, b in zip(taus, taus[1:]))
    assert len(cert["defects"]) == 15
    assert cert["defect_bound"] <= 5


def test_slow_chain_certificate(slow15):
    chain, cert = slow15
    assert cert["pass"]
    assert 0 <= cert["slack"] <= cert["envelope"] + 1e-9
    assert cert["envelope"] == pytest.approx(
        3 * cert["alignment_bound"] + cert["float_defect"])
    assert len(cert["samples"]) == 200
    lo, hi = cert["window"]
    taus = [invariants(v).tau for v in chain.vectors()]
    assert lo == pytest.approx(taus[1]) and hi == pytest.approx(taus[-2])
    for row in cert["samples"]:
        assert row["w_x"] >= row["w_target"] - cert["slack"] - 1e-9


def test_slow_chain_flags(slow15):
    chain, cert = slow15
    assert cert["strictly_decreasing_eps"] and not cert["constant_eps"]


@settings(max_examples=60, deadline=None)
@given(p1=st.integers(-20, 20), p2=st.integers(-20, 20), q=st.integers(2, 60),
       target=st.sampled_from([lambda t: -math.log1p(t), lambda t: -2.0]))
def test_slow_chain_edges_nest(p1, p2, q, target):
    # slow_step's nesting floor: every edge of a small-seed chain nests,
    # under both CLI targets (log1p and the default const level)
    assume(math.gcd(p1, p2, q) == 1)
    chain, _ = slow_chain(pvec(p1, p2, q), target, 1, steps=3, samples=2)
    vs = chain.vectors()
    for u, v in zip(vs, vs[1:]):
        assert nesting_ok(invariants(u), v, invariants(v).absL), (u, v)
    # so the tip's point lies in every node's domain, and the chain is a
    # best-approximation sequence there: sandwich_audit reads its envelope
    # from wx_profile on that sequence
    x = chain.tip.proj()
    assert all(in_domain(x, v) for v in vs), vs
    seq = BestApproxSeq(x, tuple(vs), tuple(residual(x, v) for v in vs), vs[-1].q)
    assert len([b for b in wx_profile(seq).breakpoints if b.kind == "max"]) == 3


# psi-tree shapes (eps, depth, expand, width, family) from (0, 0, 1) that
# took more than 3.9 s in fresh processes with the tree caps lifted, on a
# 2-core x86-64 host; the seconds are in the comments.  The two one-level
# families of 5,000 and 10^4 children take under 1.5 s, yet are refused:
# tree_cost's width^2 term overprices wide, shallow families
SLOW_TREES = [
    (F(1, 10**16), 100, 1, 1, 1),  # 123 s
    (F(1, 10**10), 14, 2, 2, 1),  # 122 s
    (EIGHTH, 17, 2, 2, 1),  # 49 s
    (F(1, 10**16), 12, 2, 2, 1),  # 48 s
    (F(1, 10**10), 100, 1, 1, 1),  # 40 s
    (EIGHTH, 1, 1, 10**4, 10**9),  # 1.1-1.3 s, one sibling sweep of 10^4 children
    (F(1, 5), 4, 30, 30, 100),  # 35 s
    (F(1, 10**5), 14, 2, 2, 1),  # 34 s
    (EIGHTH, 100, 1, 1999, 1),  # 24 s
    (EIGHTH, 16, 2, 2, 1),  # 23 s
    (F(1, 10**10), 12, 2, 2, 1),  # 19 s
    (F(1, 10**10), 70, 1, 1, 1),  # 12 s
    (EIGHTH, 400, 1, 1, 1),  # 12 s
    (EIGHTH, 15, 2, 2, 1),  # 11 s
    (F(1, 10**16), 50, 1, 1, 1),  # 9.1 s
    (F(1, 5), 5, 12, 12, 1),  # 8.1 s
    (F(1, 10**5), 100, 1, 1, 1),  # 7.9 s
    (EIGHTH, 4, 20, 20, 200),  # 7.5 s
    (EIGHTH, 3, 60, 60, 1000),  # 7.4 s
    (F(1, 10**16), 10, 2, 2, 1),  # 7.1 s
    (EIGHTH, 8, 4, 4, 3),  # 7.1 s
    (EIGHTH, 1, 1, 5000, 10**9),  # 0.5-0.6 s
    (EIGHTH, 350, 1, 1, 1),  # 6.3 s
    (F(1, 10**5), 12, 2, 2, 1),  # 6.0 s
    (EIGHTH, 5, 10, 10, 10),  # 5.7 s
    (EIGHTH, 300, 1, 1, 1),  # 5.0 s
    (EIGHTH, 6, 5, 50, 1),  # 5.0 s
    (EIGHTH, 14, 2, 2, 1),  # 5.0 s
    (F(1, 10**16), 40, 1, 1, 1),  # 4.1 s
    (F(1, 10**10), 50, 1, 1, 1),  # 4.0 s
]


def _golden_roots():
    # the depth-2 trees of the benchmark's tree workload, at eps 1/8
    return [pvec(p1, p2, q) for q in range(3, 7) for p1 in range(1, q)
            for p2 in range(p1, q) if math.gcd(p1, p2, q) == 1]


def test_tree_cost_refuses_the_slow_shapes_and_keeps_the_ones_in_use(monkeypatch):
    # the estimate alone: no slot is enumerated and no node is built
    def no_slots(*args, **kwargs):
        raise AssertionError("a slot was enumerated")

    monkeypatch.setattr(construct, "slot_children", no_slots)
    cost = construct.tree_cost
    for eps, depth, expand, width, n in SLOW_TREES:
        assert cost(SEED, eps, n, depth, expand, width) > construct.MAX_TREE_COST
    kept = [(SEED, eps, 1, 3, 5, 50) for eps in (EIGHTH, F(1, 9), F(1, 10), F(1, 12), F(3, 25))]
    kept += [(SEED, eps, 1, 5, 5, 50) for eps in (EIGHTH, F(1, 12))]  # 1.5 s and 1.1 s
    kept += [(u, EIGHTH, 1, 2, 5, 50) for u in _golden_roots()]
    kept += [(SEED, EIGHTH, 20, 2, 2, 50), (SEED, EIGHTH, 1000, 1, 5, 2),
             (SEED, EIGHTH, 1, 12, 2, 2), (SEED, F(1, 5), 1, 5, 10, 10)]  # 1.1 s, 3.3 s
    kept += [(pvec(19, 20, 60), eps, n, 2, 5, 16) for eps in (F(1, 100), F(49, 100))
             for n in (1, 2)]
    for args in kept:
        assert cost(*args) <= construct.MAX_TREE_COST, args
    # no branching ends the estimate at once at any depth, and a negative
    # or out-of-range eps is priced as 1/2, the cheapest valid bound
    assert cost(SEED, EIGHTH, 1, 10**9, 0, 50) == cost(SEED, EIGHTH, 1, 1, 0, 50)
    assert cost(SEED, EIGHTH, 1, 10**9, 5, 0) == 0
    for eps in (F(-1), F(0), F(1, 2), F(7)):
        assert cost(SEED, eps, 1, 100, 1, 1) == cost(SEED, F(1, 2), 1, 100, 1, 1)
    # eps = 10^-400 prices from its exact digits: 1,200 a level at level 1
    assert cost(SEED, F(1, 10**400), 1, 3, 5, 50) > construct.MAX_TREE_COST


def test_tree_without_branching_ends_at_once():
    # depth 10^9 with width 0 or expand 0: the build stops with the frontier
    root = expansion_tree(SEED, EIGHTH, depth=10**9, expand=0, width=3)
    assert len(root.children) == 2 and not any(ch.children for ch in root.children)
    assert expansion_tree(SEED, EIGHTH, depth=10**9, width=0).children == []
    with pytest.raises(ValueError, match="tree_cost of at most 2e\\+08"):
        expansion_tree(SEED, EIGHTH, depth=10**9, expand=1, width=1)


def test_slow_chain_cost_is_capped_before_any_step(monkeypatch):
    # the one estimate, span = steps * max(1, y) over the schedule's knots
    # y, is refused before the first step: as heights past the printing
    # limit when 6 * span / ln 10 passes 4300 digits, else on the cost
    # samples * span^3.  Log1p schedules from these seeds keep y below 1, so
    # span = steps there; a constant level L has y = |L| / 3, and level -10
    # gains about 8 digits a step.  The shapes in use pass (next test)
    def no_step(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(construct, "slow_step", no_step)
    log1p = lambda t: -math.log1p(t)
    for steps, samples in ((200, 200), (293, 2), (63, 200), (18, 10**4)):
        assert samples * steps**3 > construct.MAX_CHAIN_WORK
        with pytest.raises(ValueError, match="samples \\* \\(steps \\* max\\(1, y\\)\\)\\^3"):
            slow_chain(pvec(67, 1, 1000), log1p, 1, steps=steps, samples=samples)
    for level, steps, samples in ((-10, 292, 2), (-10, 88, 2), (-5, 20, 10**4)):
        with pytest.raises(ValueError, match="> 50000000"):
            slow_chain(pvec(67, 1, 1000), lambda t: level, 1, steps=steps, samples=samples)
    for target, steps in ((log1p, 10**9), (lambda t: -3000.0, 3), (lambda t: -20.0, 300)):
        with pytest.raises(OverflowError, match="more than 4300 digits"):
            slow_chain(pvec(67, 1, 1000), target, 1, steps=steps, samples=2)


def test_slow_chain_estimate_keeps_the_shapes_in_use(monkeypatch):
    # the README and golden chains (15 steps at 200 and 40 samples, log1p
    # and level -2, from seeds of height 2 to 2000), the test chains, the
    # largest log1p shapes under the cap, and level -10 at 87 steps and 2
    # samples (about 700 digits) all pass the estimate and reach a step
    class Stepped(Exception):
        pass

    def first_step(*args):
        raise Stepped

    monkeypatch.setattr(construct, "slow_step", first_step)
    shapes = [(level, steps, samples) for level in ("log1p", -2.0)
              for steps, samples in ((15, 200), (15, 40), (3, 2), (5, 40), (292, 2),
                                     (62, 200), (17, 10**4))]
    shapes += [(-10.0, 87, 2), (-5.0, 175, 2)]
    for level, steps, samples in shapes:
        target = (lambda t: -math.log1p(t)) if level == "log1p" else (lambda t: level)
        for seed in (pvec(67, 1, 1000), pvec(1, 1, 2), pvec(1613, 409, 1999)):
            with pytest.raises(Stepped):
                slow_chain(seed, target, 1, steps=steps, samples=samples)


def test_slow_chain_constant_target_is_di_like():
    chain, cert = slow_chain(pvec(67, 1, 1000), lambda t: -2.0, 1,
                             steps=5, samples=40)
    assert cert["constant_eps"]
    assert not cert["strictly_decreasing_eps"]
    assert cert["pass"]


# ------------------------------------------------------ sandwich audit


def test_sandwich_depth4(chain4):
    rep = sandwich_audit(chain4, samples=50)
    assert rep["ok"]
    assert len(rep["sandwich"]) == 50
    assert all(r["upper_ok"] and r["lower_ok"] for r in rep["sandwich"])
    assert len(rep["maxima"]) == 4
    bound = 4 * EIGHTH**3
    assert all(m["value_cubed"] <= bound for m in rep["maxima"])
    lo, hi = rep["window"]
    vs = chain4.vectors()
    assert lo == pytest.approx(invariants(vs[1]).tau)
    assert hi == pytest.approx(invariants(vs[3]).tau)


@pytest.mark.parametrize("build, depth", [
    (lambda: sing_chain(SEED, 8), 8),
    (lambda: fixed_chain(SEED, F(1, 10), 3), 3),
    (lambda: fixed_chain(SEED, F(3, 25), 3), 3),
], ids=["sing8", "fixed3-eps1_10", "fixed3-eps3_25"])
def test_sandwich_fixed_and_singular_chains(build, depth):
    chain = build()
    rep = sandwich_audit(chain, samples=20)
    assert rep["ok"] and len(rep["sandwich"]) == 20
    assert all(r["upper_ok"] and r["lower_ok"] for r in rep["sandwich"])
    cap = 4 * max(n.eps for n in chain.nodes[1:]) ** 3
    assert [m["k"] for m in rep["maxima"]] == list(range(depth))
    assert all(m["value_cubed"] <= cap for m in rep["maxima"])


def test_sandwich_samples_the_slow_chain_window():
    # both chain certificates take their samples from one generator
    chain, cert = slow_chain(pvec(67, 1, 1000), lambda t: -2.0, 1,
                             steps=5, samples=40)
    rep = sandwich_audit(chain, samples=40)
    assert rep["window"] == cert["window"]
    assert [r["t"] for r in rep["sandwich"]] == [r["t"] for r in cert["samples"]]
    assert [r["w_lattice"] for r in rep["sandwich"]] == [
        r["w_x"] for r in cert["samples"]]


def test_sandwich_needs_a_window():
    # a single vector has no window either: no chain passes vacuously
    for depth in (0, 1, 2):
        with pytest.raises(ValueError, match="chain depth >= 3"):
            sandwich_audit(fixed_chain(SEED, EIGHTH, depth))


def test_sandwich_needs_two_samples(chain4):
    # one sample would check only the window's start, none would check nothing
    for samples in (-1, 0, 1):
        with pytest.raises(ValueError, match="samples >= 2"):
            sandwich_audit(chain4, samples=samples)
    assert len(sandwich_audit(chain4, samples=2)["sandwich"]) == 2


# -------------------------------------------------------------- trees


def test_tree_depth1_children(tree3):
    root, _ = tree3
    assert len(root.children) == 50
    assert root.children[0].u == pvec(0, 1, 520)
    assert root.children[0].slot == (1, 0, 520)
    assert sum(1 for ch in root.children if ch.expanded) == 5


def test_tree_audit_clean(tree3):
    _, rep = tree3
    assert rep["totals"] == {
        "nodes": 1551,
        "expanded": 31,
        "edges": 1550,
        "growth_checked": 1500,
        "spacing_pairs": 37975,
    }
    assert all(v == 0 for v in rep["fails"].values())
    assert rep["min_kappa"] == 1
    assert rep["min_spacing_ratio"] > 1000


def test_iter_tree_matches_totals(tree3):
    root, rep = tree3
    assert sum(1 for _ in iter_tree(root)) == rep["totals"]["nodes"]


def test_tree_small_shape():
    root = expansion_tree(SEED, EIGHTH, depth=2, expand=2, width=6)
    rep = tree_audit(root, EIGHTH)
    assert len(root.children) == 6
    assert rep["totals"]["nodes"] == 19
    assert rep["totals"]["edges"] == 18
    assert all(v == 0 for v in rep["fails"].values())


@pytest.mark.parametrize("root_vec, width", [(SEED, 8), (pvec(1, 1, 3), 50)],
                         ids=["readme-root-width8", "root-1-1-3"])
def test_chains_and_trees_share_one_edge_rule(root_vec, width):
    # both depth-2 trees carry D3 growth failures; adjoining each child,
    # with its slot, to a one-node chain at its parent fails exactly when
    # the Fraction formula of one of the three checks rejects the edge,
    # naming the first, and tree_audit counts the same rejections
    root = expansion_tree(root_vec, EIGHTH, depth=2, width=width)
    counts = Counter()
    for node in iter_tree(root):
        u = node.u
        for ch in node.children:
            v = ch.u
            rejected = formula_faults(u, v, EIGHTH)
            counts.update(rejected)
            chain = Chain([ChainNode(u)])
            if rejected:
                with pytest.raises(RuntimeError) as err:
                    construct._append(chain, v, EIGHTH, ch.slot)
                assert str(err.value).startswith(
                    f"edge {u} -> {v}: fails the {rejected[0]} check")
                assert chain.vectors() == [u]
            else:
                construct._append(chain, v, EIGHTH, ch.slot)
                assert chain.vectors() == [u, v]
    assert counts["growth"] > 0
    fails = tree_audit(root, EIGHTH)["fails"]
    assert {k: counts[k] for k in ("membership", "nesting", "growth")} == {
        k: fails[k] for k in ("membership", "nesting", "growth")}


@pytest.mark.parametrize("predicate, name", [
    ("admissible_successor", "membership"), ("nesting_ok", "nesting"),
    ("growth_ok", "growth")])
def test_edge_rule_is_its_three_predicates(monkeypatch, chain4, predicate, name):
    # a predicate that rejects every edge makes tree_audit count every edge
    # it sees under its check's name, and a chain append raise naming it:
    # the edge rule reads each check from that predicate and nowhere else
    root = expansion_tree(SEED, EIGHTH, depth=2, width=8)
    vs, slot = chain4.vectors(), chain4.nodes[2].slot
    construct._append(Chain([ChainNode(vs[1])]), vs[2], EIGHTH, slot)
    before = tree_audit(root, EIGHTH)
    monkeypatch.setattr(construct, predicate, lambda *args: False)
    rep = tree_audit(root, EIGHTH)
    seen = rep["totals"]["growth_checked" if name == "growth" else "edges"]
    assert seen > 0 and rep["fails"][name] == seen
    assert {k: n for k, n in rep["fails"].items() if k != name} == {
        k: n for k, n in before["fails"].items() if k != name}
    # the edge vs[1] -> vs[2] passes every check, below a distorted parent
    chain = Chain([ChainNode(vs[1])])
    with pytest.raises(RuntimeError, match=f"fails the {name} check"):
        construct._append(chain, vs[2], EIGHTH, slot)
    assert chain.vectors() == [vs[1]]


@pytest.fixture
def parents_read(monkeypatch):
    """The vectors passed to construct's `invariants` from here on, counted."""
    calls = Counter()
    real = construct.invariants

    def counting(v):
        calls[v] += 1
        return real(v)

    monkeypatch.setattr(construct, "invariants", counting)
    return calls


def test_tree_audit_reads_each_parent_once(parents_read):
    # each expanded parent is read once for its edges and once more by the
    # spacing floor (`_floor_terms`, emptied here); children never are
    root = expansion_tree(SEED, EIGHTH, depth=2, width=8)
    parents_read.clear()
    construct._floor_terms.cache_clear()
    tree_audit(root, EIGHTH)
    expanded = [node.u for node in iter_tree(root) if node.expanded]
    assert parents_read == Counter({u: 2 for u in expanded})


def test_append_reads_the_tip_once(parents_read):
    chain = Chain([ChainNode(SEED)])
    slot, v = next(slot_children(SEED, EIGHTH))
    parents_read.clear()
    construct._append(chain, v, EIGHTH, slot)
    assert chain.vectors() == [SEED, v]
    assert parents_read == Counter({SEED: 1})


def test_fixed_chain_fails_the_growth_check_at_depth_five():
    # D3: the slot window lacks the eps^-6 growth floor
    with pytest.raises(RuntimeError, match="fails the growth check"):
        fixed_chain(SEED, EIGHTH, 5)


# --------------------------------------------------- wedge independence


def test_proportional_detector():
    w1 = wedge(SEED, pvec(0, 1, 9))   # (0, 0, -1)
    w2 = wedge(SEED, pvec(0, 2, 9))   # (0, 0, -2)
    w3 = wedge(SEED, pvec(1, 0, 1))   # (0, -1, 0)
    assert _proportional(w1, w2)
    assert _proportional(w1, wedge(pvec(0, 1, 9), pvec(0, 2, 19)))  # sign flip
    assert not _proportional(w1, w3)


def test_chain_wedges_independent(chain4):
    vs = chain4.vectors()
    wedges = [wedge(u, v) for u, v in zip(vs, vs[1:])]
    for a, b in zip(wedges, wedges[1:]):
        assert not _proportional(a, b)


# ------------------------------------------- reduced oracle cross-check


def _assert_realises(x, t_val, vec, score):
    # the returned vector is nonzero, canonical, and scores exactly `score`
    p1, p2, q = vec
    assert vec != (0, 0, 0)
    assert q > 0 or (q == 0 and (p1, p2) > (0, 0))
    x1, x2 = x
    assert max(t_val * abs(q * x1 - p1), t_val * abs(q * x2 - p2), abs(q)) == score


def test_reduced_matches_scan_oracle():
    rng = random.Random(20260819)
    for _ in range(20):
        den = rng.randint(7, 150)
        x = RatPoint(F(rng.randint(1, den - 1), den), F(rng.randint(1, den - 1), den))
        t_val = F(rng.randint(2, 4000))
        _, m_scan = shortest_vector_oracle(x, t_val)
        vec, m_red = shortest_vector_reduced(x, t_val)
        assert m_scan == m_red
        _assert_realises(x, t_val, vec, m_red)


def test_reduced_matches_scan_oracle_at_larger_minima():
    # minima near 10^3 exercise every enumeration bound of the reduction;
    # a range one step too short loses the minimizer on a few percent of
    # these inputs
    rng = random.Random(20261018)
    for _ in range(100):
        den = rng.randint(10**2, 10**5)
        x = RatPoint(F(rng.randint(1, den - 1), den), F(rng.randint(1, den - 1), den))
        t_val = F(rng.randint(1, 10**7), rng.randint(1, 50))
        _, m_scan = shortest_vector_oracle(x, t_val)
        vec, m_red = shortest_vector_reduced(x, t_val)
        assert m_scan == m_red, (x, t_val)
        _assert_realises(x, t_val, vec, m_red)


def test_reduced_handles_huge_scale():
    x = RatPoint(F(67, 97), F(31, 89))
    value, minimum = shortest_vector_reduced(x, F(5) * 10**21)
    assert minimum > 0
    # Minkowski-style upper bound for the sup score at scale T
    assert float(minimum) <= 2 * float(F(5) * 10**21) ** (1 / 3)
    _assert_realises(x, F(5) * 10**21, value, minimum)
    # far beyond the scanning oracle: 20-digit targets, T up to 10^30
    rng = random.Random(20261018)
    for _ in range(20):
        den = rng.randint(10**19, 10**20)
        x = RatPoint(F(rng.randint(0, den), den), F(rng.randint(0, den), den))
        t_val = F(rng.randint(1, 10**30), rng.randint(1, 1000))
        _assert_realises(x, t_val, *shortest_vector_reduced(x, t_val))
    # a rational point is reached exactly: the vector (p1, p2, q) with
    # x = (p1/q, p2/q) scores q once T is large enough
    vec, minimum = shortest_vector_reduced(RatPoint(F(2, 7), F(3, 7)), 10**30)
    assert vec == (2, 3, 7) and minimum == 7
    # below T = 1 a horizontal vector wins, and the sign rule applies at q = 0
    vec, minimum = shortest_vector_reduced(x, F(1, 3))
    assert vec[2] == 0 and minimum == F(1, 3)
    _assert_realises(x, F(1, 3), vec, minimum)
