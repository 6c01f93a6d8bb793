"""Acceptance suite: one test per advertised guarantee, each timed
against its stated budget.  These are the package-level claims; the
per-module suites cover the internals.

One test is expected to fail: the per-node power sums of the sparse
quotient-interval tree do not reach 1 at the lower bracketing exponent.
With u = 2s - 1, s_minus is defined by N^(-u) = 6u, and a child a*v + v_pm
has an interval about a^(-2) of its parent's, so the family N < a <= 2N
sums to about 2 * sum a^(-2s) = 2 N^(-u) (1 - 2^(-u)) / u = 12 (1 - 2^(-u)):
0.850 at N = 72 (measured 0.8403), below 0.88 for every N >= 72 and
tending to 0.  The assertion states the claim as made and reports both
values; see the red test at the bottom.
"""

import contextlib
import io
import json
import math
import random
import time
from fractions import Fraction as F

from diophlab.bestapprox import (
    audit_best_inequalities,
    best_approximations,
    best_approximations_scan,
    height_minimum,
    projective_sandwich_ok,
    shortest_vector_oracle,
    wx_profile,
)
from diophlab.cli import run
from diophlab.construct import fixed_chain, sandwich_audit, slow_chain
from diophlab.construct import expansion_tree, tree_audit
from diophlab.core import RatPoint, pvec
from diophlab.dimension import (
    bounds_crossing,
    cantor_bounds,
    cantor_exact_dim,
    dn_asymptotic_ratio,
    dn_bounds,
    dn_exact_inversion,
    dn_tree,
    lower_cert,
)
from diophlab.util import frac_str

README = __file__.rsplit("/", 2)[0] + "/README.md"


def test_crossing_point_of_dimension_bounds():
    start = time.perf_counter()
    rep = bounds_crossing()
    assert abs(rep["delta"] - 0.2726604) <= 1e-6
    assert abs(rep["h"] - 0.3478475) <= 1e-6
    assert time.perf_counter() - start < 1.0


def test_cantor_dimension_closed_form_on_grid():
    start = time.perf_counter()
    for k in range(1, 101):
        d = F(k, 100)
        res = cantor_exact_dim(d)
        assert res.residual < 1e-12
        if d < 1:
            h_d, h_g = cantor_bounds(d)
            assert h_d <= res.s + 1e-12
            assert h_g <= res.s + 1e-12
    assert abs(cantor_exact_dim(1).s - 1.0) <= 1e-12
    s_tiny = cantor_exact_dim(1e-12).s
    ratio = s_tiny * math.log(1e12) / math.log(math.log(1e12))
    assert 0.75 <= ratio <= 1.25
    assert time.perf_counter() - start < 1.0


def test_quotient_level_brackets_and_inversion():
    start = time.perf_counter()
    prev_minus, prev_plus = None, None
    for n in (72, 10**3, 10**6, 10**9):
        s_minus, s_plus = dn_bounds(n)
        assert s_minus.residual < 1e-12
        assert s_plus.residual < 1e-12
        assert 0.5 < s_minus.s <= s_plus.s
        if prev_minus is not None:
            assert s_minus.s < prev_minus
            assert s_plus.s < prev_plus
        prev_minus, prev_plus = s_minus.s, s_plus.s
    # rational points where the defining equations invert in closed form
    assert dn_exact_inversion(F(3, 4), "plus") == 64
    assert dn_exact_inversion(F(13, 24), "minus") == 4096
    assert dn_asymptotic_ratio(prev_minus, 10**9) < 1.0 < dn_asymptotic_ratio(
        prev_plus, 10**9
    )
    assert time.perf_counter() - start < 1.0


def _acceptance_targets(count: int, rng: random.Random) -> list[RatPoint]:
    """Deterministic rational targets with denominators <= 1e4; most share
    one denominator (the scan then ends at the exact hit), the rest mix
    two, which usually pushes the exact hit past the height bound."""
    out = []
    while len(out) < count:
        if len(out) % 10 < 7:
            den = rng.randint(50, 10_000)
            dens = (den, den)
        else:
            dens = (rng.randint(50, 10_000), rng.randint(50, 10_000))
        out.append(
            RatPoint(
                F(rng.randint(1, dens[0] - 1), dens[0]),
                F(rng.randint(1, dens[1] - 1), dens[1]),
            )
        )
    return out


def test_best_approximation_audit_hundred_targets():
    start = time.perf_counter()
    rng = random.Random(2026)
    for x in _acceptance_targets(100, rng):
        seq = best_approximations(x, 10_000)
        for v, r in zip(seq.items, seq.residuals):
            res, cands = height_minimum(x, v.q)
            assert res == r
            assert (v.p1, v.p2) == cands[0]  # lex-least realiser
        rep = audit_best_inequalities(seq)
        assert rep["all_ok"]
        for u, v in zip(seq.items, seq.items[1:]):
            assert projective_sandwich_ok(x, u, v)
    assert time.perf_counter() - start < 60.0


def test_best_approx_at_a_million_heights_within_two_seconds():
    argv = ["best-approx", "--x", "1/1000003,2/1000003", "--qmax", "1000003"]
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    assert time.perf_counter() - start < 2.0
    assert code == 0
    items = json.loads(out.getvalue())["items"]
    seq = best_approximations_scan(RatPoint(F(1, 1000003), F(2, 1000003)), 1000003)
    assert [(r["p1"], r["p2"], r["q"], r["residual"]) for r in items] == [
        (v.p1, v.p2, v.q, frac_str(r)) for v, r in zip(seq.items, seq.residuals)
    ]


def test_profile_matches_shortest_vector_oracle():
    start = time.perf_counter()
    rng = random.Random(50)
    checked = 0
    while checked < 50:
        den = rng.randint(20, 300)
        x = RatPoint(
            F(rng.randint(1, den - 1), den), F(rng.randint(1, den - 1), den)
        )
        seq = best_approximations(x, 250)
        if len(seq.items) < 2:
            continue
        prof = wx_profile(seq)
        lo, hi = prof.window
        for i in range(50):
            t = lo + (hi - lo) * F(i, 49)
            assert prof.value_at(t) == shortest_vector_oracle(x, t)[1]
        checked += 1
    assert time.perf_counter() - start < 60.0


def test_descendant_tree_fifty_wide_depth_three():
    start = time.perf_counter()
    root = expansion_tree(
        pvec(0, 0, 1), F(1, 8), n=1, depth=3, expand=5, width=50
    )
    assert len(root.children) == 50
    rep = tree_audit(root, F(1, 8), n=1)
    assert rep["pass"]
    assert rep["totals"] == {
        "nodes": 1551,
        "expanded": 31,
        "edges": 1550,
        "growth_checked": 1500,
        "spacing_pairs": 37975,
    }
    assert all(count == 0 for count in rep["fails"].values())
    assert time.perf_counter() - start < 60.0


def test_chain_profile_sandwich_depth_four():
    start = time.perf_counter()
    eps = F(1, 8)
    chain = fixed_chain(pvec(0, 0, 1), eps, 4)
    rep = sandwich_audit(chain, samples=50)
    assert rep["ok"]
    assert len(rep["sandwich"]) == 50
    assert all(row["upper_ok"] and row["lower_ok"] for row in rep["sandwich"])
    cap = math.log(2 * float(eps) ** 1.5)
    for m in rep["maxima"]:
        assert m["ok"]
        assert math.log(float(m["value_cubed"])) / 2 <= cap + 1e-9
    assert time.perf_counter() - start < 120.0


def test_slow_chain_tracks_logarithmic_decay():
    start = time.perf_counter()
    chain, cert = slow_chain(
        pvec(67, 1, 1000), lambda t: -math.log1p(t), 1, steps=15, samples=200
    )
    assert cert["pass"]
    assert len(cert["samples"]) == 200
    assert cert["slack"] <= cert["envelope"]
    from diophlab.latinv import invariants

    invs = [invariants(u) for u in chain.vectors()]
    epss = [iv.eps for iv in invs]
    assert all(b < a for a, b in zip(epss, epss[1:]))
    taus = [iv.tau for iv in invs]
    assert all(b > a for a, b in zip(taus, taus[1:]))
    assert cert["defect_bound"] <= 5.0
    assert time.perf_counter() - start < 120.0


def test_quotient_tree_nesting_and_gaps():
    start = time.perf_counter()
    tree = dn_tree(F(1, 2), 72, depth=4, a_max=144, descend=3)
    s_minus = dn_bounds(72)[0].s
    rep = lower_cert(tree, s_minus, rho=F(1, 36 * 72))
    structural = [v for v in rep["violations"] if v["cond"] in ("i", "ii", "iii")]
    assert structural == []
    assert rep["min_gap_ratio"] >= 1.0 / (36 * 72)
    assert time.perf_counter() - start < 30.0


def test_quotient_tree_power_sums_reach_one():
    # Claimed: at the lower bracketing exponent every node's sum of child
    # diameters to the s is at least the parent's.  The sparse family
    # falls short of 1 at every node, and by derivation, not by rounding:
    # with u = 2s - 1 and N^(-u) = 6u at s_minus, the children N < a <= 2N
    # sum to about 2 N^(-u) (1 - 2^(-u)) / u = 12 (1 - 2^(-u)), which is
    # 0.850 here.  This records the measured and the derived gap.
    start = time.perf_counter()
    tree = dn_tree(F(1, 2), 72, depth=4, a_max=144, descend=3)
    s_minus = dn_bounds(72)[0].s
    rep = lower_cert(tree, s_minus, rho=F(1, 36 * 72))
    assert time.perf_counter() - start < 30.0
    derived = 12 * (1 - 2 ** -(2 * s_minus - 1))
    assert rep["min_sum_ratio"] >= 1.0, (
        "per-node power sums at the lower bracketing exponent fall short "
        f"of 1: minimum measured ratio {rep['min_sum_ratio']:.4f}, derived "
        f"12(1 - 2^-u) = {derived:.4f} at u = 2s - 1, N^-u = 6u; condition "
        "(iv) is false at s_minus for the a <= 2N family"
    )


def test_full_scale_limits_stated_not_recomputed():
    with open(README) as fh:
        text = fh.read()
    assert "4/3" in text
    assert "1/2" in text
    assert "not" in text.lower() and "reproduc" in text.lower()
