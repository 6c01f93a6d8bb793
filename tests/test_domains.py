import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diophlab.bestapprox import _box_heights, best_approximations
from diophlab.core import PrimVec, RatPoint, pvec, residual
from diophlab.domains import (
    _inner_grid,
    _members,
    _outer_grid,
    audit_ball_sandwich,
    ball_bounds,
    crossing,
    di_tail_check,
    half_domain_witness_ok,
    in_domain,
    in_domain_scan,
)
from diophlab.latinv import invariants

F = Fraction


def test_ball_bounds_frozen():
    bb = ball_bounds(pvec(1, 1, 2))
    assert bb.r == F(1, 4)
    assert bb.inner == F(1, 8)
    assert bb.outer == F(1, 2)
    assert bb.center == (F(1, 2), F(1, 2))


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


@st.composite
def primitive_vectors(draw, q_max=60):
    q = draw(st.integers(1, q_max))
    p1 = draw(st.integers(-q, 2 * q))
    p2 = draw(st.integers(-q, 2 * q))
    g = math.gcd(p1, p2, q)
    return PrimVec(p1 // g, p2 // g, q // g)


@st.composite
def offset_points(draw, v):
    # v_dot + (i, j)/(|v| m): residual max(|i|, |j|)/m in [0, 1], so the
    # draws run from the center (i = j = 0) through members and searched
    # boxes to the Minkowski region (|v| - 1) res^2 >= 1
    m = draw(st.integers(1, 4 * v.q * v.q))
    i, j = draw(st.integers(-m, m)), draw(st.integers(-m, m))
    c = v.proj()
    return RatPoint(c.x1 + F(i, v.q * m), c.x2 + F(j, v.q * m))


@st.composite
def any_points(draw):
    d = draw(st.integers(1, 200))
    return RatPoint(F(draw(st.integers(-d, 2 * d)), d), F(draw(st.integers(-d, 2 * d)), d))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), v=primitive_vectors(), k=st.integers(1, 6))
def test_member_matches_scan(data, v, k):
    # the integer core against the height scan, with x handed over a
    # non-minimal denominator k D as well as the minimal one
    x = data.draw(st.one_of(st.just(v.proj()), offset_points(v), any_points()))
    n1, n2, d = x.common_denominator()
    want = in_domain_scan(x, v)
    assert _members(v, d, [(n1, n2)]) == [want]
    assert _members(v, k * d, [(k * n1, k * n2)]) == [want]


def test_member_center_and_minkowski_points():
    # the branches that decide without a box: v's center (a zero residual)
    # is a member, and a residual with (|v| - 1) res^2 >= 1 is not
    for v in (pvec(3, 2, 7), pvec(5, 8, 41), pvec(2, 1, 5)):
        c = v.proj()
        far = RatPoint(c.x1 + F(1, 2 * v.q), c.x2 - F(1, 3 * v.q))
        assert (v.q - 1) * residual(far, v) ** 2 >= 1
        for x, want in ((c, True), (far, False)):
            n1, n2, d = x.common_denominator()
            for k in (1, 4):
                assert _members(v, k * d, [(k * n1, k * n2)]) == [want]
            assert in_domain_scan(x, v) == want


def one_box_per_point(n1: int, n2: int, den: int, v: PrimVec) -> bool:
    """The per-point membership core that _members replaced, verbatim but
    for its name: one box of lower heights around x itself, per point."""
    g = math.gcd(n1, n2, den)
    n1, n2, den = n1 // g, n2 // g, den // g
    p1, p2, q = v
    R = max(abs(q * n1 - p1 * den), abs(q * n2 - p2 * den))
    if R == 0:
        return True
    if (q - 1) * R * R >= den * den:
        return False
    # at |v| = 1 there is no lower height to search
    if q > 1 and next(_box_heights(n1, n2, den, q - 1, R), None) is not None:
        return False
    t1, t2 = q * n1 % den, q * n2 % den
    return max(min(t1, den - t1), min(t2, den - t2)) >= R


def scan_members(v, den, pts):
    return [in_domain_scan(RatPoint(F(n1, den), F(n2, den)), v) for n1, n2 in pts]


def random_primitive(rng, q_lo, q_hi):
    while True:
        q = rng.randint(q_lo, q_hi)
        p1, p2 = rng.randint(-q, 2 * q), rng.randint(-q, 2 * q)
        if math.gcd(p1, p2, q) == 1:
            return PrimVec(p1, p2, q)


def test_members_match_scan_on_the_sandwich_grids():
    # one box decides a whole grid: the inner grid and the outer points
    # beyond the outer ball, exactly as audit_ball_sandwich hands them over
    rng = random.Random(31)
    seen = {True: 0, False: 0}
    for _ in range(30):
        v = random_primitive(rng, 2, 500)
        L = invariants(v).absL
        for den, pts in (_inner_grid(v, L), _outer_grid(v, L)):
            got = _members(v, den, pts)
            assert got == scan_members(v, den, pts), v
            assert got == [one_box_per_point(n1, n2, den, v) for n1, n2 in pts], v
            for m in got:
                seen[m] += 1
    assert min(seen.values()) > 100, seen


def test_members_match_scan_on_clouds():
    # seeded clouds around v_dot out to twice the outer ball, so that one
    # call mixes the center, members, points a lower height beats inside
    # the box, and Minkowski points; some clouds share a non-minimal
    # denominator
    rng = random.Random(32)
    kinds = {"center": 0, "member": 0, "searched": 0, "minkowski": 0}
    for _ in range(150):
        v = random_primitive(rng, 2, 90)
        L = invariants(v).absL
        t, k = rng.randint(1, 3), rng.choice([1, 1, 2, 3])
        den = v.q * v.q * t * k  # x = v_dot + (i, j)/(|v|^2 t), |i|, |j| <= 4 L t
        c1, c2 = v.p1 * v.q * t * k, v.p2 * v.q * t * k
        pts = [(c1 + k * rng.randint(-4 * L * t, 4 * L * t),
                c2 + k * rng.randint(-4 * L * t, 4 * L * t))
               for _ in range(rng.randint(1, 30))]
        pts.append((c1, c2))
        got = _members(v, den, pts)
        assert got == scan_members(v, den, pts), (v, den, pts)
        for (n1, n2), member in zip(pts, got):
            R = max(abs(v.q * n1 - v.p1 * den), abs(v.q * n2 - v.p2 * den))
            kind = ("center" if R == 0 else "minkowski" if (v.q - 1) * R * R >= den * den
                    else "member" if member else "searched")
            kinds[kind] += 1
    assert min(kinds.values()) > 50, kinds


def test_members_at_heights_one_and_two():
    # |v| = 1 searches no box; |v| = 2 searches heights {1} only
    for v in (pvec(0, 0, 1), pvec(1, 0, 1), pvec(1, 1, 2), pvec(1, 0, 2)):
        for den in (1, 2, 3, 4, 6, 12):
            pts = [(n1, n2) for n1 in range(-den, 2 * den + 1)
                   for n2 in range(-den, 2 * den + 1)]
            assert _members(v, den, pts) == scan_members(v, den, pts), (v, den)
    assert _members(pvec(1, 1, 2), 2, [(1, 1), (1, 0), (0, 0)]) == [True, False, False]
    assert _members(pvec(0, 0, 1), 4, [(1, 1), (2, 2), (3, 1)]) == [True, True, False]


def test_sandwich_grids_are_the_fraction_grids():
    # the integer grids of audit_ball_sandwich, point for point, against
    # the Fraction grids it used to build around the ball bounds
    rng = random.Random(26)
    done = 0
    while done < 40:
        q = rng.randint(2, 500)
        p1, p2 = rng.randint(-q, 2 * q), rng.randint(-q, 2 * q)
        if math.gcd(p1, p2, q) != 1:
            continue
        v = PrimVec(p1, p2, q)
        bb, L = ball_bounds(v), invariants(v).absL
        c = bb.center
        den, pts = _inner_grid(v, L)
        inner = [RatPoint(F(n1, den), F(n2, den)) for n1, n2 in pts]
        s = bb.inner / 3
        assert inner == [RatPoint(c.x1 + i * s, c.x2 + j * s)
                         for i in range(-2, 3) for j in range(-2, 3)]
        den, pts = _outer_grid(v, L)
        step = 2 * bb.outer * 2 / 5
        assert [RatPoint(F(n1, den), F(n2, den)) for n1, n2 in pts] == [
            RatPoint(c.x1 - 2 * bb.outer + i * step, c.x2 - 2 * bb.outer + j * step)
            for i in range(6) for j in range(6)]
        done += 1


def test_ball_sandwich_rejects_height_one():
    with pytest.raises(ValueError):
        audit_ball_sandwich(pvec(0, 0, 1))


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
        den, pts = _inner_grid(v, invariants(v).absL)
        for n1, n2 in pts:
            assert in_domain(RatPoint(F(n1, den), F(n2, den)), v)


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
