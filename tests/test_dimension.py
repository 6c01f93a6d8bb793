import math
from fractions import Fraction as F

import pytest

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
    set_contains,
    set_distance,
)


def test_set_geometry_exact():
    a = CoverNode("a", 0, F(1, 3))
    b = CoverNode("b", F(2, 3), 1)
    assert set_distance(a, b) == F(1, 3)
    assert set_distance(b, a) == F(1, 3)
    p = CoverNode("p", 0, 1)
    assert set_contains(p, a) and set_contains(p, b)
    assert not set_contains(a, p)


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
