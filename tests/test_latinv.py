import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diophlab import latinv
from diophlab.construct import expansion_tree, iter_tree, tree_audit
from diophlab.core import PrimVec, Wedge2, pvec, wedge
from diophlab.latinv import (
    Invariants,
    absL_from_wedge,
    class_key,
    companion_pair,
    distortion_below,
    invariants,
    lattice_minima,
    pair_basis,
    pair_in_lattice,
    scan_minima,
    wedge_constraint_ok,
    wedge_from_pair,
)


def brute_minima_box(v):
    """Third route: plain box enumeration, no reduction, no class walk.

    Only usable for small heights; returns (L, Hhat) wedge triples.
    """
    # sup norm of the second minimum is at most max over the pair basis
    b1, b2 = pair_basis(v)
    bound = max(abs(c) for b in (b1, b2) for c in b)
    pts = []
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if (x, y) == (0, 0) or not pair_in_lattice(v, x, y):
                continue
            if y < 0 or (y == 0 and x < 0):
                continue  # one representative per +- class
            pts.append((max(abs(x), abs(y)), x * x + y * y, y, x))
    pts.sort()
    L = (pts[0][3], pts[0][2])
    H = next((p[3], p[2]) for p in pts if L[0] * p[2] - L[1] * p[3] != 0)
    return wedge_from_pair(v, *L), wedge_from_pair(v, *H)


def test_unit_lattice_minima():
    L, H = lattice_minima(pvec(0, 0, 1))
    assert L == (0, 1, 0)
    assert H == (0, 0, 1)


def test_skew_node_minima():
    v = pvec(0, 1, 520)
    L, H = lattice_minima(v)
    assert L == (0, 0, 1)
    assert H == (1, 520, 0)


def test_diagonal_node_second_minimum_half_covolume():
    # Under the sup norm the product |Hhat| * |L| can be half the height:
    # ((1,1),520) has L at pair (1,1) and Hhat at pair (-260,260).  The
    # Euclidean-geometry bound |Hhat| >= |v|/|L| does not survive the sup
    # norm here, which is why growth audits follow the axis-type nodes.
    inv = invariants(pvec(1, 1, 520))
    assert inv.absL == 1
    assert inv.L == (0, 1, 1)
    assert inv.absLhat == 260
    assert inv.absLhat * inv.absL * 2 == inv.v.q


def test_slow_seed_minima():
    inv = invariants(pvec(67, 1, 1000))
    assert inv.L == (-1, 5, 15)
    assert inv.absL == 15
    assert inv.Lhat == (-3, -52, 44)
    assert inv.eps3 == Fraction(225, 1000)
    assert inv.exp3tau == Fraction(10 ** 6, 15)
    assert abs(inv.tau - math.log(10 ** 6 / 15) / 3) < 1e-12


def test_invariants_unit():
    inv = invariants(pvec(0, 0, 1))
    assert inv.absL == 1
    assert inv.eps3 == 1
    assert inv.exp3tau == 1
    assert inv.eps == 1.0
    assert inv.tau == 0.0
    assert inv.eps32 == 1.0


def test_invariants_psi_output_window():
    # a child with unit wedge at height 520: eps^{3/2} = 1/sqrt(520), so
    # 1/16 < eps < 1/8 (the half-open distortion window at eps = 1/8)
    inv = invariants(pvec(0, 1, 520))
    assert inv.eps3 == Fraction(1, 520)
    assert Fraction(1, 8) ** 3 > inv.eps3 > Fraction(1, 16) ** 3
    assert distortion_below(pvec(0, 1, 520), Fraction(1, 8))
    assert not distortion_below(pvec(0, 1, 520), Fraction(1, 16))


def test_invariants_classes_are_sign_normalised():
    # lattice_minima signs both classes by class_key, the one sign rule:
    # the key's pair is the class's own (m13, m23), so the edge rule can
    # test a wedge w against a parent's inv.L as it stands, by w and -w
    for q in range(1, 11):
        for p1 in range(-q, 2 * q):
            for p2 in range(-q, 2 * q):
                if math.gcd(p1, p2, q) == 1:
                    inv = invariants(pvec(p1, p2, q))
                    for w in (inv.L, inv.Lhat):
                        _, _, y, x = class_key(w.m13, w.m23)
                        assert (x, y) == (w.m13, w.m23), (inv.v, w)


@pytest.fixture
def reduced(monkeypatch):
    """The vectors that lattice_minima reduces from here on, in call order,
    with the invariants cache emptied."""
    seen = []

    def counting(v):
        seen.append(v)
        return lattice_minima(v)

    invariants.cache_clear()
    monkeypatch.setattr(latinv, "lattice_minima", counting)
    return seen


def test_tree_computes_each_vector_once(reduced):
    # parents read the memoized invariants(v); every child's |L| is
    # certified from its wedge with the parent, so only the 3 expanded
    # nodes of the 19 reach lattice_minima, each once
    eps = Fraction(1, 8)
    root = expansion_tree(pvec(0, 0, 1), eps, depth=2, expand=2, width=6)
    assert tree_audit(root, eps)["pass"]
    expanded = [node.u for node in iter_tree(root) if node.expanded]
    assert sum(1 for _ in iter_tree(root)) == 19
    assert reduced == expanded and len(set(reduced)) == 3


def test_readme_tree_reduces_31_lattices(reduced):
    # the README tree (eps 1/8, depth 3, width 50, expand 5): 1,551 nodes,
    # of which the 31 expanded parents are the only ones reduced
    eps = Fraction(1, 8)
    root = expansion_tree(pvec(0, 0, 1), eps)
    assert tree_audit(root, eps)["pass"]
    assert sum(1 for _ in iter_tree(root)) == 1551
    assert len(reduced) == len(set(reduced)) == 31


@st.composite
def vector_pairs(draw):
    """A primitive u of height <= 9 and a primitive v = c*u + r with a
    small offset r: a small c gives a v unrelated to u, a large c a v whose
    wedge with u is short against |v|, as a tree child's is."""
    def prim(t):
        return math.gcd(*t) == 1 and t[2] > 0

    small = st.tuples(*[st.integers(-9, 9)] * 3)
    u = pvec(*draw(small.filter(prim)))
    c = draw(st.one_of(st.integers(0, 100), st.integers(10**4, 10**6)))
    r = draw(small)
    v = tuple(c * a + b for a, b in zip(u, r))
    assume(prim(v))
    return u, pvec(*v)


@settings(max_examples=300, deadline=None)
@given(vector_pairs())
def test_absL_from_wedge_matches_invariants(pair):
    u, v = pair
    assert absL_from_wedge(v, wedge(v, u)) == invariants(v).absL


@pytest.mark.parametrize("v, u, absL, falls_back", [
    # w = (0, 1, 0) and 2|w|^2 = 2 < 3: (1, 0) is the unique shortest class
    (pvec(1, 0, 3), pvec(0, 0, 1), 1, False),
    # 2|w|^2 = |v| exactly: the boundary falls back
    (pvec(1, 1, 2), pvec(0, 0, 1), 1, True),
    # w = 2 * (0, 1, 0) is imprimitive, and |L| = 1 < |w| = 2 although 8 < 9
    (pvec(2, 0, 9), pvec(0, 0, 1), 1, True),
    # u = v gives w = 0, whose gcd is 0
    (pvec(67, 1, 1000), pvec(67, 1, 1000), 15, True),
])
def test_absL_from_wedge_fallbacks(reduced, v, u, absL, falls_back):
    assert absL_from_wedge(v, wedge(v, u)) == absL
    assert reduced == ([v] if falls_back else [])


def test_boundary_wedge_ties_with_another_class():
    # at 2|w|^2 = |v| the lattice {x = y mod 2} of ((1,1),2) holds the two
    # classes (1,1) and (-1,1) at sup norm 1, and L is the other one, not w
    v = pvec(1, 1, 2)
    w = wedge(pvec(0, 0, 1), v)
    assert 2 * max(abs(w.m13), abs(w.m23)) ** 2 == v.q
    assert invariants(v).absL == 1 and invariants(v).L not in (w, w.neg())


def test_distortion_strictness():
    assert distortion_below(pvec(0, 0, 1), Fraction(2))
    assert not distortion_below(pvec(0, 0, 1), Fraction(1))


def test_second_minimum_sandwich_on_chain_nodes():
    # |v|/|L| <= |Hhat| <= (1+eps(v)^3) |v|/|L| and |Hhat|^2 > eps^-3 |v|,
    # exact, on the axis-type chain nodes inside the 1/8 distortion class.
    eps = Fraction(1, 8)
    for v in (pvec(0, 1, 520), pvec(1, 266260, 138455200)):
        inv = invariants(v)
        lo = Fraction(v.q, inv.absL)
        assert lo <= inv.absLhat <= (1 + inv.eps3) * lo
        assert inv.absLhat ** 2 * eps ** 3 > v.q


def test_companion_pair_unit():
    v = pvec(0, 0, 1)
    up, um = companion_pair(v, Wedge2(0, 1, 0))
    assert up == (1, 0, 1)
    assert um == (-1, 0, 1)
    # equal heights: the doubled-sum branch
    assert up.q == um.q == v.q


def test_companion_pair_split():
    v = pvec(1, 1, 2)
    L = wedge(pvec(1, 0, 1), v)
    assert L == (1, 1, -1)
    up, um = companion_pair(v, L)
    assert up == (1, 0, 1)
    assert um == (0, 1, 1)
    assert (up.p1 + um.p1, up.p2 + um.p2, up.q + um.q) == v


def test_companion_pair_rejects_bad_wedge():
    with pytest.raises(ValueError):
        companion_pair(pvec(1, 1, 2), Wedge2(0, 1, 0))


def random_primvec(rng, hmax):
    while True:
        q = rng.randrange(1, hmax + 1)
        p1 = rng.randrange(-q, q + 1)
        p2 = rng.randrange(-q, q + 1)
        if math.gcd(math.gcd(abs(p1), abs(p2)), q) == 1:
            return pvec(p1, p2, q)


def test_minima_match_box_bruteforce():
    rng = random.Random(7)
    for _ in range(120):
        v = random_primvec(rng, 90)
        L, H = lattice_minima(v)
        Lb, Hb = brute_minima_box(v)
        assert L[1:] == Lb[1:], v  # the pair parts (m13, m23)
        assert H[1:] == Hb[1:], v


def test_minima_match_class_scan():
    rng = random.Random(8)
    for _ in range(200):
        v = random_primvec(rng, 10 ** 4)
        L, H = lattice_minima(v)
        Ls, Hs = scan_minima(v)
        assert L == Ls, v
        assert H == Hs, v


def sorted_scan_minima(v):
    """Reference selection for scan_minima: the same residue-class walk,
    with every (class key, sign-normalised pair) sorted in full; L is the
    first pair, Hhat the first one off its line.  Each pair has y > 0, or
    y = 0 and x > 0, so its wedge needs no further sign fix."""
    q = v.q
    if q == 1:
        return wedge_from_pair(v, 1, 0), wedge_from_pair(v, 0, 1)

    def lifts(r):
        r %= q
        return [0, q, -q] if r == 0 else [r, r - q]

    def canonical_pair(x, y):
        return (-x, -y) if y < 0 or (y == 0 and x < 0) else (x, y)

    best = []
    for k in range(0, q // 2 + 1):
        for x in lifts(k * v.p1):
            for y in lifts(k * v.p2):
                if x == 0 and y == 0:
                    continue
                p = canonical_pair(x, y)
                best.append((class_key(*p), p))
    best.sort()
    Lp = best[0][1]
    Hp = next(p for _, p in best if Lp[0] * p[1] - Lp[1] * p[0] != 0)
    return wedge_from_pair(v, *Lp), wedge_from_pair(v, *Hp)


def test_scan_minima_selection_matches_full_sort():
    # scan_minima takes L and Hhat with min over the walk's class keys; a
    # full sort of the same walk must pick the same pair.  On pvec(1, 0, q)
    # and pvec(0, 1, q) Hhat is the +-q lift of a zero residue, so a walk
    # that drops that lift fails there.
    rng = random.Random(26)
    vs = [random_primvec(rng, 500) for _ in range(300)]
    vs += [pvec(1, 0, q) for q in range(2, 61)] + [pvec(0, 1, q) for q in range(2, 61)]
    for v in vs:
        got = scan_minima(v)
        assert got == sorted_scan_minima(v), v
        assert lattice_minima(v) == got, v


def test_line_candidates_hold_the_best_two_points():
    # Brute force over |n| <= 3R + 1: past it the sup norm exceeds 2R, more
    # than at n = 0 and n = 1, so the best two points and the whole flat
    # bottom of the sup norm lie inside the window.
    rng = random.Random(11)
    R = 15
    for _ in range(3000):
        A, B, C, D = (rng.randint(-R, R) for _ in range(4))
        if A * D - B * C == 0:  # the line must miss the origin
            continue
        line = [(A + n * C, B + n * D) for n in range(-3 * R - 1, 3 * R + 2)]
        best = sorted(line, key=lambda p: class_key(*p))[:2]
        assert set(best) <= set(latinv._line_candidates((A, B), (C, D))), (A, B, C, D)


def breakpoint_line_candidates(base, step):
    """Reference for latinv._line_candidates: the sup-norm minimum taken
    over all four breakpoints of the line, and the candidates gathered in a
    set and sorted."""
    A, B = base
    C, D = step

    def sup(n: int) -> int:
        return max(abs(A + n * C), abs(B + n * D))

    breaks = ((-A, C), (-B, D), (B - A, C - D), (-B - A, C + D))
    s = min(sup(n) for num, den in breaks if den
            for n in (num // den, num // den + 1))
    forms = [(K, S) if S > 0 else (-K, -S) for K, S in ((A, C), (B, D)) if S]
    lo = max(-((s + K) // S) for K, S in forms)
    hi = min((s - K) // S for K, S in forms)
    f = min(max(-(A * C + B * D) // (C * C + D * D), lo), hi)
    ns = {lo - 1, hi + 1, *range(max(f - 1, lo), min(f + 1, hi) + 1)}
    return [(A + n * C, B + n * D) for n in sorted(ns)]


def test_line_candidates_match_breakpoint_reference():
    # the crossings alone must find the same sup-norm minimum as all four
    # breakpoints, and the list must come out in the same order; a step
    # with a zero coordinate has one constant form and no crossing to use
    rng = random.Random(27)
    cases = 0
    while cases < 1200:
        R = rng.choice([2, 15, 500, 10**12])
        A, B, C, D = (rng.randint(-R, R) for _ in range(4))
        if cases % 4 == 1:
            C = 0
        elif cases % 4 == 2:
            D = 0
        elif cases % 8 == 3:
            D = rng.choice([C, -C])
        if (C, D) == (0, 0) or A * D - B * C == 0:  # the line must miss 0
            continue
        cases += 1
        assert (latinv._line_candidates((A, B), (C, D))
                == breakpoint_line_candidates((A, B), (C, D))), (A, B, C, D)


@pytest.mark.parametrize("eps", [Fraction(1, 8), Fraction(3, 25)])
def test_minima_routes_agree_on_tree_children(eps):
    # the skewed lattices of the expansion trees, whose sup norm has a
    # flat bottom about |v| wide along the enumerated line
    root = expansion_tree(pvec(0, 0, 1), eps, depth=1)
    assert len(root.children) == 50
    for ch in root.children:
        assert ch.u.q < 1100
        assert lattice_minima(ch.u) == scan_minima(ch.u), ch.u


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 400), st.integers(-400, 400), st.integers(-400, 400))
def test_minima_routes_agree(q, p1, p2):
    if math.gcd(math.gcd(abs(p1), abs(p2)), q) != 1:
        return
    v = pvec(p1, p2, q)
    assert lattice_minima(v) == scan_minima(v)


def test_minima_basic_shape():
    rng = random.Random(9)
    for _ in range(300):
        v = random_primvec(rng, 10 ** 6)
        inv = invariants(v)
        L, H = inv.L, inv.Lhat
        # wedge-image membership and primitivity
        assert wedge_constraint_ok(L, v) and wedge_constraint_ok(H, v)
        assert math.gcd(math.gcd(abs(L.m12), abs(L.m13)), abs(L.m23)) == 1
        assert math.gcd(math.gcd(abs(H.m12), abs(H.m13)), abs(H.m23)) == 1
        assert inv.absL <= inv.absLhat
        # sup-norm Minkowski: |L|^2 <= |v| (measured constant is exactly 1)
        assert inv.absL ** 2 <= v.q
        # Euclidean distortion strictly below 2: |L|_E^2 < 2|v| exactly
        assert L.m13 ** 2 + L.m23 ** 2 < 2 * v.q
        # the companions of L sit at heights within (0, |v|]
        up, um = companion_pair(v, L)
        assert 0 < up.q <= v.q and 0 < um.q <= v.q


def test_minkowski_equality_attained():
    assert invariants(pvec(0, 0, 1)).absL ** 2 == 1
