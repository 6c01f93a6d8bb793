import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diophlab import dimension
from diophlab.dimension import (
    CoverNode,
    binary_interval_tree,
    bounds_crossing,
    cantor_bounds,
    cantor_exact_dim,
    cantor_tree,
    covering_s_estimate,
    dn_asymptotic_ratio,
    dn_bounds,
    dn_exact_inversion,
    dn_tree,
    lower_cert,
)


def test_cover_node_is_a_nonempty_rational_interval():
    n = CoverNode("n", 1, 3)
    assert (n.lo, n.hi, n.diam) == (F(1), F(3), F(2))
    assert all(type(x) is F for x in (n.lo, n.hi, n.diam))
    assert n.children == []
    for lo, hi in ((1, 1), (F(1, 2), F(1, 3))):
        with pytest.raises(ValueError, match="empty interval"):
            CoverNode("bad", lo, hi)


def test_covering_binary_halves_is_one():
    tree = binary_interval_tree(3, F(1, 2) - F(1, 10**12), F(1, 2) - F(1, 10**12))
    res = covering_s_estimate(tree)
    assert abs(res.s - 1.0) < 1e-9
    assert res.residual < 1e-12


def test_covering_middle_thirds():
    tree = binary_interval_tree(4, F(1, 3), F(1, 3))
    res = covering_s_estimate(tree)
    assert abs(res.s - math.log(2) / math.log(3)) < 1e-10


def test_covering_matches_exact_dim_on_cantor_trees():
    for delta in (F(1, 4), F(1, 2), F(3, 4)):
        tree = cantor_tree(delta, 3)
        est = covering_s_estimate(tree)
        exact = cantor_exact_dim(delta)
        assert abs(est.s - exact.s) < 1e-10


def test_covering_rejects_non_shrinking_child():
    bad = CoverNode("r", 0, 1)
    bad.children = [CoverNode("c", 0, 1)]
    with pytest.raises(ValueError):
        covering_s_estimate(bad)


def test_lower_cert_middle_thirds_passes_at_exact_dim():
    # gap equals exactly one third of the parent, so the floor is met
    # with equality, and the power sums sit at one
    tree = binary_interval_tree(4, F(1, 3), F(1, 3))
    s = math.log(2) / math.log(3)
    res = lower_cert(tree, s, rho=F(1, 3))
    assert res["pass"]
    assert abs(res["min_sum_ratio"] - 1.0) < 1e-9
    assert res["min_gap_ratio"] == 1 / 3


def test_lower_cert_fails_modes():
    tree = binary_interval_tree(3, F(1, 3), F(1, 3))
    res = lower_cert(tree, 0.7, rho=F(1, 3))
    assert not res["pass"]
    assert {v["cond"] for v in res["violations"]} == {"iv"}

    res = lower_cert(tree, 0.6, rho=F(2, 5))
    assert any(v["cond"] == "iii" for v in res["violations"])

    lone = CoverNode("r", 0, 1)
    lone.children = [CoverNode("c", 0, F(1, 2))]
    res = lower_cert(lone, 0.5, rho=F(1, 4))
    assert res["first_violation"]["cond"] == "i"

    stray = CoverNode("r", 0, 1)
    stray.children = [CoverNode("a", 0, F(1, 3)), CoverNode("b", F(3, 4), 2)]
    res = lower_cert(stray, 0.5, rho=F(1, 8))
    assert any(v["cond"] == "i" and "contained" in v["detail"] for v in res["violations"])


def fraction_lower_cert(tree, s, rho) -> dict:
    """The Fraction version of lower_cert that the integer one replaced,
    verbatim, with set_contains and set_distance inlined."""
    rho = F(rho)
    if not 0 < rho < 1:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    violations = []
    min_gap_ratio = None
    min_sum_ratio = None
    for node in dimension._internal_nodes(tree):
        kids, diam = node.children, node.diam
        if len(kids) < 2:
            violations.append({"node": node.id, "cond": "i", "detail": "fewer than 2 children"})
        for c in kids:
            if not (node.lo <= c.lo and c.hi <= node.hi):
                violations.append({"node": node.id, "cond": "i", "detail": f"{c.id} not contained"})
            if c.diam >= diam:
                violations.append({"node": node.id, "cond": "ii", "detail": f"{c.id} does not shrink"})
        floor = rho * diam
        srt = sorted(kids, key=lambda c: c.lo)
        for a, b in zip(srt, srt[1:]):
            d = max(F(0), b.lo - a.hi, a.lo - b.hi)
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
        if ratio < 1 - dimension.IV_REL_TOL:
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


def assert_same_report(tree, s, rho):
    # equal as dicts, and equal as the JSON a caller would print
    got, want = lower_cert(tree, s, rho), fraction_lower_cert(tree, s, rho)
    assert got == want
    assert json.dumps(got) == json.dumps(want)
    return got


def family(lo, hi, *kids):
    """A one-level tree [lo, hi] with children (id, lo, hi), in list order."""
    root = CoverNode("r", lo, hi)
    root.children = [CoverNode(*k) for k in kids]
    return root


def test_lower_cert_matches_the_fraction_one_on_cantor_trees():
    for delta in (F(1, 4), F(1, 2), F(3, 4), F(1, 10**30)):
        for depth in (1, 3, 6):
            tree = cantor_tree(delta, depth)
            for s in (0.3, 0.5, 0.7):
                for rho in (F(1, 3), F(1, 100), F(2, 5)):
                    assert_same_report(tree, s, rho)


def test_lower_cert_matches_the_fraction_one_on_failing_families():
    third = F(1, 3)
    trees = {
        "lone": family(0, 1, ("c", 0, F(1, 2))),
        "stray": family(0, 1, ("a", 0, third), ("b", F(3, 4), 2)),
        "overlap": family(0, 1, ("a", 0, F(1, 2)), ("b", F(1, 4), F(3, 4)), ("c", F(4, 5), 1)),
        "tied": family(-1, 1, ("a", F(-1, 2), 0), ("b", F(-1, 2), F(-1, 4)), ("c", F(1, 2), 1)),
        "no shrink": family(0, 1, ("a", 0, 1), ("b", 0, third)),
    }
    for name, tree in trees.items():
        for rho in (F(1, 8), F(1, 3)):
            rep = assert_same_report(tree, 0.5, rho)
            assert not rep["pass"], name
    rep = lower_cert(trees["overlap"], 0.5, F(1, 8))
    assert rep["min_gap_ratio"] == 0.0
    assert [v["detail"] for v in rep["violations"] if v["cond"] == "iii"] == [
        "gap a|b below floor", "gap b|c below floor"]
    rep = lower_cert(trees["tied"], 0.5, F(1, 8))
    # tied left ends keep their list order: a before b
    assert "gap a|b below floor" in [v["detail"] for v in rep["violations"]]
    assert lower_cert(trees["no shrink"], 0.5, F(1, 8))["first_violation"]["cond"] == "ii"


def test_lower_cert_matches_the_fraction_one_on_quotient_trees():
    for root in (F(1, 2), F(3, 7), F(55, 89), F(-7, 3)):
        for N in (72, 1000):
            s_minus = dn_bounds(N)[0].s
            # a <= 2N fails (iv) only; a <= 3N passes at 1/(32N), fails (iii) at 1/N
            for a_max, rhos in ((2 * N, [F(1, 36 * N)]), (3 * N, [F(1, 32 * N), F(1, N)])):
                tree = dn_tree(root, N, 2, a_max=a_max, descend=2)
                for rho in rhos:
                    assert_same_report(tree, s_minus, rho)


ENDS = st.builds(F, st.integers(-10**21, 10**21), st.integers(1, 10**20))
OFFSETS = st.fractions(F(-1, 10), 1, max_denominator=10**20)
WIDTHS = st.fractions(F(1, 10**20), F(11, 10), max_denominator=10**20)


@st.composite
def cover_trees(draw):
    """Small trees of rational intervals with negative ends, 20-digit
    denominators and tied left ends; children may overlap, stray out of
    the parent or fail to shrink."""
    lo = draw(ENDS)
    root = CoverNode("0", lo, lo + abs(draw(ENDS)) + F(1, 10**20))
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        count = draw(st.integers(1 if node is root else 0, 4 if depth < 2 else 0))
        for i in range(count):
            if node.children and draw(st.booleans()):
                c_lo = draw(st.sampled_from(node.children)).lo
            else:
                c_lo = node.lo + node.diam * draw(OFFSETS)
            c_hi = c_lo + node.diam * draw(WIDTHS)
            node.children.append(CoverNode(f"{node.id}.{i}", c_lo, c_hi))
        stack.extend((c, depth + 1) for c in node.children)
    return root


@settings(max_examples=150, deadline=None)
@given(cover_trees(), st.floats(0.05, 1.5), st.fractions(0, 1).filter(lambda r: 0 < r < 1))
def test_lower_cert_matches_the_fraction_one_on_random_trees(tree, s, rho):
    assert_same_report(tree, s, rho)


def test_lower_cert_refuses_a_tree_without_internal_node():
    for tree in (CoverNode("r", 0, 1), dn_tree(F(1, 2), 72, 0)):
        with pytest.raises(ValueError, match="tree has no internal node"):
            lower_cert(tree, 0.5, F(1, 3))


def test_lower_cert_rejects_rho_outside_unit_interval():
    tree = binary_interval_tree(2, F(1, 3), F(1, 3))
    for rho in (0, 1, 2, F(-1, 3)):
        with pytest.raises(ValueError, match="rho"):
            lower_cert(tree, 0.5, rho)


def test_lower_cert_power_sum_survives_underflow():
    # at 10^-400 every float(diam) is 0.0; the diameter ratios are
    # scale-free, so the tiny tree fails (iv) exactly as the unit one does
    def two_tenths(length):
        root = CoverNode("r", 0, length)
        root.children = [CoverNode("a", 0, length / 10), CoverNode("b", 9 * length / 10, length)]
        return root

    for length in (F(1), F(1, 10**400)):
        res = lower_cert(two_tenths(length), 0.9, rho=F(1, 2))
        assert not res["pass"]
        assert [v["cond"] for v in res["violations"]] == ["iv"]
        assert abs(res["min_sum_ratio"] - 0.2518) < 1e-4


def test_covering_solves_each_ratio_tuple_once(monkeypatch):
    # all 63 internal nodes of a uniform Cantor tree share one ratio tuple
    calls = []
    real = dimension._solve_sum_pow

    def counting(ratios):
        calls.append(None)
        return real(ratios)

    monkeypatch.setattr(dimension, "_solve_sum_pow", counting)
    est = covering_s_estimate(cantor_tree(F(1, 2), 6))
    assert len(calls) == 1
    assert abs(est.s - cantor_exact_dim(F(1, 2)).s) < 1e-10


def bisect_200(below, lo: float, hi: float) -> float:
    """The _bisect that stopped only after 200 halvings, verbatim."""
    for _ in range(200):
        mid = (lo + hi) / 2
        if below(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_bisect_stops_at_the_float_that_200_halvings_reach(monkeypatch):
    # every below that dimension hands to _bisect: each must give the same
    # float as 200 halvings, and a root in [0.1, 1] within 70 calls
    seen = []
    real = dimension._bisect

    def recording(below, lo, hi):
        seen.append((below, lo, hi))
        return real(below, lo, hi)

    monkeypatch.setattr(dimension, "_bisect", recording)
    for k in range(1, 101):
        cantor_exact_dim(F(k, 100))
    cantor_exact_dim(F(1, 10**400))
    bounds_crossing()
    for e in range(2, 13):
        dn_bounds(max(72, 10**e))
    dn_bounds(72)
    for k in range(1, 40):
        covering_s_estimate(cantor_tree(F(k, 40), 1))
    dimension._solve_sum_pow([0.5, 0.25, 0.125])
    assert len(seen) == 166
    for below, lo, hi in seen:
        calls = []

        def counted(s, below=below):
            calls.append(s)
            return below(s)

        root = real(counted, lo, hi)
        assert root == bisect_200(below, lo, hi), (lo, hi)
        if 0.1 <= root <= 1:
            assert len(calls) <= 70, (root, len(calls))


def test_cantor_exact_dim_frozen():
    r = cantor_exact_dim(0.5)
    assert abs(r.s - 0.6942419136306173) < 1e-12
    assert r.residual < 1e-12
    # both written forms of the defining equation agree at the root
    s = r.s
    assert abs((0.25**s + 0.5**s) - 1.0) < 1e-12
    assert abs(cantor_exact_dim(1).s - 1.0) < 1e-12
    with pytest.raises(ValueError):
        cantor_exact_dim(0)
    with pytest.raises(ValueError):
        cantor_exact_dim(1.5)


def test_cantor_exact_dim_monotone():
    grid = [i / 20 for i in range(1, 20)]
    vals = [cantor_exact_dim(d).s for d in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_cantor_small_delta_rate():
    s = cantor_exact_dim(1e-12).s
    model = math.log(math.log(1e12)) / math.log(1e12)
    assert 0.75 <= s / model <= 1.25


def test_cantor_bounds_below_dim_on_grid():
    for i in range(1, 100):
        d = i / 100
        h_d, h_g = cantor_bounds(d)
        s = cantor_exact_dim(d).s
        assert h_d <= s + 1e-12
        assert h_g <= s + 1e-12


def test_cantor_bounds_limit_behaviour():
    h_d, h_g = cantor_bounds(1e-6)
    assert h_d / h_g < 0.11
    # near one, both bounds approach one; the gap-based bound lags by a
    # factor approaching two (ratio of the one-sided derivatives there)
    h_d, h_g = cantor_bounds(1 - 1e-6)
    assert abs(h_d / h_g - 1.0) < 1e-5
    assert abs((1 - h_g) / (1 - h_d) - 2.0) < 1e-5
    with pytest.raises(ValueError):
        cantor_bounds(1)


def test_bounds_crossing_frozen():
    c = bounds_crossing()
    assert abs(c["delta"] - 0.2726604304629704) < 1e-9
    assert abs(c["h"] - 0.3478475326423369) < 1e-9
    assert c["residual"] < 1e-12
    h_d, h_g = cantor_bounds(c["delta"])
    assert abs(h_d - h_g) < 1e-12


def test_dn_bounds_frozen_at_72():
    sm, sp = dn_bounds(72)
    assert abs(sm.s - 0.5529719286148411) < 1e-12
    assert abs(sp.s - 0.7453228119735713) < 1e-12
    assert sm.residual < 1e-12 and sp.residual < 1e-12
    assert sm.s <= sp.s


def test_dn_bounds_grid_residuals_and_monotone():
    minus, plus = [], []
    for N in (72, 1000, 10**6, 10**9):
        sm, sp = dn_bounds(N)
        assert sm.residual < 1e-12 and sp.residual < 1e-12
        assert 0.5 < sm.s <= sp.s < 1
        minus.append(sm.s)
        plus.append(sp.s)
    assert all(a > b for a, b in zip(minus, minus[1:]))
    assert all(a > b for a, b in zip(plus, plus[1:]))


def test_dn_bounds_domain():
    with pytest.raises(ValueError):
        dn_bounds(64)
    with pytest.raises(ValueError):
        dn_bounds(0)


def test_dn_exact_inversion():
    assert dn_exact_inversion(F(3, 4), "plus") == 64
    assert dn_exact_inversion(F(13, 24), "minus") == 4096
    with pytest.raises(ValueError):
        dn_exact_inversion(F(7, 10), "plus")  # 1/(2s-1) = 5/2
    with pytest.raises(ValueError):
        dn_exact_inversion(F(1, 2), "plus")


def test_dn_asymptotic_ratios():
    sm, sp = dn_bounds(10**9)
    assert abs(dn_asymptotic_ratio(sp.s, 10**9) - 1.0) < 0.2
    # the slow branch sits well under one at this level; frozen value
    assert abs(dn_asymptotic_ratio(sm.s, 10**9) - 0.3705595571763753) < 1e-9


def test_dn_tree_estimates():
    tree = dn_tree(F(1, 2), 72, 1, a_max=144)
    est = covering_s_estimate(tree)
    assert 0.53 < est.s < 0.54

    sm, _ = dn_bounds(72)
    res = lower_cert(tree, sm.s, rho=F(1, 36 * 72))
    conds = {v["cond"] for v in res["violations"]}
    assert "i" not in conds and "ii" not in conds and "iii" not in conds
    # local power sums land around 0.84 at the slow-branch exponent: with
    # u = 2s - 1 and N^(-u) = 6u, the a <= 2N family sums to about
    # 12 (1 - 2^(-u)) = 0.850 at N = 72, so (iv) fails by derivation
    assert "iv" in conds
    assert 0.82 < res["min_sum_ratio"] < 0.86


def test_dn_tree_refuses_bad_sizes():
    for kwargs, name in (({"depth": -1}, "depth"), ({"depth": 1, "descend": 0}, "descend"),
                         ({"depth": 1, "descend": -2}, "descend")):
        with pytest.raises(ValueError, match=name):
            dn_tree(F(1, 2), 72, **kwargs)
