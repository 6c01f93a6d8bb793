import math
import random
from fractions import Fraction

import pytest

from diophlab.bestapprox import best_approximations
from diophlab.core import PrimVec, RatPoint, pvec, residual
from diophlab.domains import (
    audit_ball_sandwich,
    ball_bounds,
    crossing,
    di_tail_check,
    domain_samples,
    half_domain_witness_ok,
    in_domain,
    in_domain_scan,
)

F = Fraction


def test_ball_bounds_frozen():
    bb = ball_bounds(pvec(1, 1, 2))
    assert bb.r == F(1, 4)
    assert bb.inner == F(1, 8)
    assert bb.outer == F(1, 2)
    assert bb.center.coords == (F(1, 2), F(1, 2))


def test_ball_bounds_rejects_height_one():
    with pytest.raises(ValueError):
        ball_bounds(pvec(0, 0, 1))


def test_outer_inner_ratio_and_diam_bound():
    rng = random.Random(21)
    for _ in range(40):
        q = rng.randint(2, 400)
        p1, p2 = rng.randint(0, q), rng.randint(0, q)
        if math.gcd(p1, p2, q) != 1:
            continue
        bb = ball_bounds(PrimVec(p1, p2, q))
        assert bb.outer == 4 * bb.inner
        # diameter bound 4r <= 4/|v|^(3/2), squared to stay rational
        assert bb.r**2 * q**3 <= 1


def test_in_domain_center():
    assert in_domain(RatPoint(F(1, 2), F(1, 2)), pvec(1, 1, 2))
    assert in_domain(RatPoint(F(3, 7), F(2, 7)), pvec(3, 2, 7))


def test_in_domain_height_one_tie():
    # all four height-1 realisers around (1/2,1/2) are members: the weak
    # comparison at equal height is what the membership test implements
    x = RatPoint(F(1, 2), F(1, 2))
    for p in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert in_domain(x, PrimVec(*p, 1))


def test_in_domain_negative():
    assert not in_domain(RatPoint(F(1, 2), F(1, 2)), pvec(1, 0, 2))
    assert not in_domain(RatPoint(0, 0), pvec(1, 1, 2))


def test_in_domain_matches_best_sequences():
    rng = random.Random(22)
    for _ in range(10):
        d = rng.randint(5, 30)
        x = RatPoint(F(rng.randrange(d), d), F(rng.randrange(d), d))
        seq = best_approximations(x, 40)
        for v in seq.items:
            assert in_domain(x, v)


def test_in_domain_matches_scan_on_grids():
    # grids around v at several scales: the center (res_v = 0), members,
    # non-members near v and far from it (where Minkowski's bound decides),
    # and height-one vectors, whose box of lower heights is empty
    rng = random.Random(23)
    vecs = [pvec(0, 0, 1), pvec(1, 0, 1), pvec(1, 1, 2), pvec(3, 2, 7)]
    while len(vecs) < 40:
        q = rng.randint(2, 80)
        p1, p2 = rng.randint(-1, q + 1), rng.randint(-1, q + 1)
        if math.gcd(p1, p2, q) == 1:
            vecs.append(PrimVec(p1, p2, q))
    seen = {True: 0, False: 0}
    for v in vecs:
        c = v.proj()
        for scale in (F(1, 4), 1, 4, 16):
            s = F(1, scale * v.q * v.q)
            for i in range(-3, 4):
                for j in range(-3, 4):
                    x = RatPoint(c.x1 + i * s, c.x2 + j * s)
                    member = in_domain(x, v)
                    assert member == in_domain_scan(x, v), (x, v)
                    seen[member] += 1
    assert min(seen.values()) > 500, seen


def test_crossing_frozen():
    # u at distance 1/8 from a height-8 member: cubed crossing value 1/8
    x = RatPoint(F(1, 2), F(1, 2))
    bp = crossing(x, pvec(0, 0, 1), pvec(1, 1, 2))
    assert bp.height == 2
    assert bp.res == F(1, 2)
    assert bp.value_cubed == F(1, 2)
    assert bp.T == 4


def test_crossing_errors():
    x = RatPoint(F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        crossing(x, pvec(1, 1, 2), pvec(0, 0, 1))  # heights reversed
    with pytest.raises(ValueError):
        crossing(RatPoint(0, 0), pvec(0, 0, 1), pvec(1, 1, 2))  # exact hit u
    with pytest.raises(ValueError):
        crossing(x, pvec(0, 1, 1), pvec(1, 0, 2))  # x outside the domain


def test_inner_grid_members():
    for v in (pvec(1, 1, 2), pvec(1, 1, 3), pvec(2, 1, 5), pvec(3, 2, 7)):
        bb = ball_bounds(v)
        for p in domain_samples(v, bb.inner):
            assert in_domain(p, v)


def test_ball_sandwich_audit():
    rng = random.Random(23)
    done = 0
    while done < 8:
        q = rng.randint(2, 40)
        p1, p2 = rng.randint(0, q), rng.randint(0, q)
        if math.gcd(p1, p2, q) != 1:
            continue
        assert audit_ball_sandwich(PrimVec(p1, p2, q))["pass"]
        done += 1


def test_half_domain_witness_frozen():
    x = RatPoint(F(2, 5), F(2, 5))
    assert half_domain_witness_ok(x, pvec(0, 0, 1), pvec(1, 1, 2))


def test_half_domain_witness_sampled():
    rng = random.Random(24)
    checked = 0
    while checked < 60:
        d = rng.randint(4, 60)
        x = RatPoint(F(rng.randrange(d + 1), d), F(rng.randrange(d + 1), d))
        qu, qv = rng.randint(1, 20), rng.randint(1, 20)
        if qu > qv:
            qu, qv = qv, qu
        pu = (rng.randint(0, qu), rng.randint(0, qu))
        pv = (rng.randint(0, qv), rng.randint(0, qv))
        if math.gcd(*pu, qu) != 1 or math.gcd(*pv, qv) != 1:
            continue
        u, v = PrimVec(*pu, qu), PrimVec(*pv, qv)
        if u == v or residual(x, u) <= residual(x, v):
            continue
        assert half_domain_witness_ok(x, u, v)
        checked += 1


def test_di_tail_frozen():
    seq = best_approximations(RatPoint(F(3, 7), F(2, 7)), 7)
    rep = di_tail_check(seq, F(1))
    assert [r["j"] for r in rep["rows"]] == [1, 2]
    assert rep["rows"][0]["delta_sq"] == "27/49"
    assert rep["rows"][1]["delta_sq"] == "4/7"
    assert rep["rows"][1]["proxy_sq"] == "4/7"
    assert all(r["bracket_ok"] for r in rep["rows"])
    assert rep["all_below"]
    assert rep["exact_hit_tail"]
    tight = di_tail_check(seq, F(5, 7))
    assert not tight["rows"][0]["below"]
    assert not tight["all_below"]


def test_di_tail_bracket_random():
    rng = random.Random(25)
    for _ in range(20):
        d = rng.randint(10, 120)
        x = RatPoint(F(rng.randrange(d), d), F(rng.randrange(d), d))
        seq = best_approximations(x, 150)
        if len(seq.items) < 2:
            continue
        rep = di_tail_check(seq, F(1, 2))
        assert all(r["bracket_ok"] for r in rep["rows"])
