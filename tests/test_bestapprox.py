import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diophlab.bestapprox import (
    UNIT_ROWS,
    BestApproxSeq,
    Breakpoint,
    _box_heights,
    _height_step,
    _reduced_lattice,
    accelerated_subsequence,
    audit_best_inequalities,
    best_approximations,
    best_approximations_scan,
    crossing_eps_cubed,
    height_minimum,
    projective_sandwich_ok,
    record_tie_heights,
    shortest_vector_oracle,
    shortest_vector_reduced,
    wx_profile,
)
from diophlab.core import PrimVec, RatPoint, residual

F = Fraction


def brute_height_minimum(x: RatPoint, q: int) -> Fraction:
    # independent route: explicit numerator scan around q*x
    best = None
    for p1 in range(int(q * x.x1) - 2, int(q * x.x1) + 3):
        for p2 in range(int(q * x.x2) - 2, int(q * x.x2) + 3):
            val = max(abs(q * x.x1 - p1), abs(q * x.x2 - p2))
            if best is None or val < best:
                best = val
    return best


def random_target(rng: random.Random, dmax: int) -> RatPoint:
    d = rng.randint(2, dmax)
    return RatPoint(F(rng.randrange(d + 1), d), F(rng.randrange(d + 1), d))


def test_half_half_frozen():
    seq = best_approximations(RatPoint(F(1, 2), F(1, 2)), 10)
    assert list(seq.items) == [(0, 0, 1), (1, 1, 2)]
    assert list(seq.residuals) == [F(1, 2), F(0)]
    assert seq.exact_hit


def test_origin_exact_hit():
    seq = best_approximations(RatPoint(0, 0), 10)
    assert list(seq.items) == [(0, 0, 1)]
    assert seq.residuals == (F(0),)


def test_three_sevenths_frozen():
    seq = best_approximations(RatPoint(F(3, 7), F(2, 7)), 7)
    assert list(seq.items) == [(0, 0, 1), (1, 1, 3), (3, 2, 7)]
    assert list(seq.residuals) == [F(3, 7), F(2, 7), F(0)]


def test_bound_cuts_before_hit():
    seq = best_approximations(RatPoint(F(3, 7), F(2, 7)), 5)
    assert list(seq.items) == [(0, 0, 1), (1, 1, 3)]
    assert not seq.exact_hit


def test_rejects_bad_bound():
    with pytest.raises(ValueError):
        best_approximations(RatPoint(F(1, 2), F(1, 2)), 0)


def test_height_minimum_tie_enumeration():
    res, cands = height_minimum(RatPoint(F(1, 2), F(1, 2)), 1)
    assert res == F(1, 2)
    assert cands == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_records_match_bruteforce():
    rng = random.Random(7)
    for _ in range(30):
        x = random_target(rng, 50)
        bound = 60
        seq = best_approximations(x, bound)
        record = None
        expected = []
        for q in range(1, bound + 1):
            res = brute_height_minimum(x, q)
            if record is None or res < record:
                expected.append((q, res))
                record = res
                if res == 0:
                    break
        assert [(v.q, r) for v, r in zip(seq.items, seq.residuals)] == expected


def test_lower_heights_never_beat_items():
    # strict below, weak at equal height, against the per-height minimum
    rng = random.Random(8)
    for _ in range(20):
        x = random_target(rng, 40)
        seq = best_approximations(x, 50)
        for v, res in zip(seq.items, seq.residuals):
            for q in range(1, v.q):
                assert height_minimum(x, q)[0] > res
            assert height_minimum(x, v.q)[0] >= res


def test_profile_half_half_frozen():
    seq = best_approximations(RatPoint(F(1, 2), F(1, 2)), 10)
    prof = wx_profile(seq)
    assert [(b.kind, b.height, b.res) for b in prof.breakpoints] == [
        ("min", 1, F(1, 2)),
        ("max", 2, F(1, 2)),
    ]
    assert [b.T for b in prof.breakpoints] == [F(2), F(4)]
    assert prof.breakpoints[1].value_cubed == F(1, 2)
    assert prof.window == (F(4), F(4))
    assert prof.value_at(4) == 2
    assert prof.seq.exact_hit


def test_profile_three_sevenths_frozen():
    seq = best_approximations(RatPoint(F(3, 7), F(2, 7)), 7)
    prof = wx_profile(seq)
    got = [(b.kind, b.height, b.res, b.T, b.value_cubed) for b in prof.breakpoints]
    assert got == [
        ("min", 1, F(3, 7), F(7, 3), F(9, 49)),
        ("max", 3, F(3, 7), F(7), F(27, 49)),
        ("min", 3, F(2, 7), F(21, 2), F(12, 49)),
        ("max", 7, F(2, 7), F(49, 2), F(4, 7)),
    ]
    assert prof.window == (F(7), F(49, 2))


def test_breakpoint_closed_form():
    # height 8, residual 1/8: cubed local-max value 8 * (1/8)^2 = 1/8
    b = Breakpoint("max", 8, F(1, 8))
    assert b.value_cubed == F(1, 8)
    assert b.T == 64


def test_profile_value_matches_breakpoints():
    rng = random.Random(9)
    for _ in range(15):
        x = random_target(rng, 40)
        prof = wx_profile(best_approximations(x, 60))
        for b in prof.breakpoints:
            # normalised score cubed = T^2 * (profile value cubed)
            assert prof.value_at(b.T) ** 3 == b.T**2 * b.value_cubed


def test_profile_piecewise_structure():
    rng = random.Random(10)
    for _ in range(15):
        x = random_target(rng, 30)
        prof = wx_profile(best_approximations(x, 40))
        bps = prof.breakpoints
        for a, b in zip(bps, bps[1:]):
            mid = (a.T + b.T) / 2
            if a.kind == "min":
                # rising piece: score proportional to T
                assert prof.value_at(mid) * a.T == prof.value_at(a.T) * mid
            else:
                # flat piece in the normalisation: constant height
                assert prof.value_at(mid) == prof.value_at(a.T)


def test_profile_single_item_degenerate():
    prof = wx_profile(best_approximations(RatPoint(0, 0), 5))
    assert prof.breakpoints == ()
    assert prof.window == (F(1), F(1))
    assert prof.value_at(5) == 1


def test_oracle_trivial_points():
    assert shortest_vector_oracle(RatPoint(0, 0), 1)[1] == 1
    assert shortest_vector_oracle(RatPoint(F(1, 2), F(1, 2)), 1)[1] == 1


def test_oracle_agrees_with_profile():
    rng = random.Random(11)
    for _ in range(12):
        x = random_target(rng, 25)
        prof = wx_profile(best_approximations(x, 30))
        lo, hi = prof.window
        if lo == hi:
            grid = [lo]
        else:
            grid = [lo + (hi - lo) * F(k, 6) for k in range(7)]
        grid += [b.T for b in prof.breakpoints if lo <= b.T <= hi]
        for T in grid:
            _, val = shortest_vector_oracle(x, T)
            assert val == prof.value_at(T)


def test_oracle_budget_error():
    with pytest.raises(RuntimeError):
        shortest_vector_oracle(RatPoint(F(1, 3), F(1, 3)), 100, budget=2)


def fraction_scan_oracle(x: RatPoint, T, budget: int = 2_000_000):
    """The Fraction height scan that shortest_vector_oracle replaced,
    verbatim: one height_minimum and one Fraction score per height."""
    T = Fraction(T)
    if T <= 0:
        raise ValueError("T must be positive")
    best_val = T  # (1, 0, 0): purely horizontal unit vector
    best_vec = (1, 0, 0)
    q = 0
    while True:
        q += 1
        if q > best_val:
            break
        if q > budget:
            raise RuntimeError(
                f"certification exceeded enumeration budget {budget}"
            )
        res, cands = height_minimum(x, q)
        val = max(T * res, Fraction(q))
        if val < best_val:
            best_val = val
            best_vec = (*cands[0], q)
    return best_vec, best_val


def test_integer_oracle_matches_the_fraction_scan():
    # the same vector (lexicographic tie rule) and the same exact score, on
    # the half-integer ties of (1/2, 1/2), T < 1, integer and non-integer T,
    # and denominators up to 120
    rng = random.Random(33)
    targets = [RatPoint(F(1, 2), F(1, 2)), RatPoint(0, 0), RatPoint(F(1, 2), F(1, 3))]
    while len(targets) < 40:
        den = rng.randint(2, 120)
        targets.append(RatPoint(F(rng.randint(-den, 2 * den), den),
                                F(rng.randint(-den, 2 * den), den)))
    Ts = [F(1, 3), F(1, 2), F(9, 10), 1, 2, 7, F(7, 2), F(100, 3), 250, F(2501, 7), 2500]
    for x in targets:
        for T in Ts + [F(rng.randint(1, 3000), rng.randint(1, 40))]:
            got = shortest_vector_oracle(x, T)
            assert got == fraction_scan_oracle(x, T), (x, T)
            assert isinstance(got[1], Fraction)


def test_integer_oracle_keeps_its_budget():
    # height 3 hits x exactly, so the scan stops at height 4 above budget 2
    x = RatPoint(F(1, 3), F(1, 3))
    for budget in (1, 2):
        with pytest.raises(RuntimeError, match=f"budget {budget}"):
            shortest_vector_oracle(x, 100, budget=budget)
        with pytest.raises(RuntimeError, match=f"budget {budget}"):
            fraction_scan_oracle(x, 100, budget=budget)
    assert shortest_vector_oracle(x, 100, budget=3) == ((1, 1, 3), 3)
    assert fraction_scan_oracle(x, 100, budget=3) == ((1, 1, 3), 3)


def test_accelerated_subsequence_frozen():
    assert accelerated_subsequence(
        best_approximations(RatPoint(F(1, 2), F(1, 2)), 10)
    ) == []
    seq = best_approximations(RatPoint(F(3, 7), F(2, 7)), 7)
    assert accelerated_subsequence(seq) == [(3, 2, 7)]


def test_accelerated_excludes_colinear_run():
    # embedded one-dimensional target: every item shares the plane p2 = 0
    seq = best_approximations(RatPoint(F(5, 8), 0), 8)
    assert [v.q for v in seq.items] == [1, 2, 3, 8]
    assert seq.items[2] == (2, 0, 3)
    assert accelerated_subsequence(seq) == []


def test_crossing_eps_decreasing_in_excluded_runs():
    rng = random.Random(12)
    for _ in range(25):
        x = random_target(rng, 60)
        seq = best_approximations(x, 80)
        if len(seq.items) < 3:
            continue
        kept = set(accelerated_subsequence(seq))
        run_prev = None
        for j in range(2, len(seq.items)):
            if seq.items[j] in kept:
                run_prev = None
                continue
            if run_prev is not None:
                assert crossing_eps_cubed(seq, j - 1) < crossing_eps_cubed(
                    seq, run_prev
                )
            run_prev = j - 1


def test_audit_inequalities_frozen_and_random():
    rep = audit_best_inequalities(
        best_approximations(RatPoint(F(1, 2), F(1, 2)), 10)
    )
    assert rep["all_ok"]
    assert rep["rows"][0]["L"] == 1
    rng = random.Random(13)
    for _ in range(25):
        x = random_target(rng, 150)
        seq = best_approximations(x, 200)
        if len(seq.items) >= 2:
            assert audit_best_inequalities(seq)["all_ok"]


def test_projective_sandwich_random():
    rng = random.Random(14)
    for _ in range(15):
        x = random_target(rng, 40)
        seq = best_approximations(x, 60)
        pool = []
        for q in range(1, seq.items[-1].q):
            _, cands = height_minimum(x, q)
            pool.extend(PrimVec(*p, q) for p in cands if math.gcd(*p, q) == 1)
            p1 = rng.randint(-q, 2 * q)
            p2 = rng.randint(-q, 2 * q)
            if math.gcd(p1, p2, q) == 1:
                pool.append(PrimVec(p1, p2, q))
        for v in seq.items:
            if residual(x, v) == 0 and v.q == 1:
                continue
            for u in pool:
                if u.q < v.q:
                    assert projective_sandwich_ok(x, u, v)


def test_record_ties_below_threshold():
    assert record_tie_heights(RatPoint(F(1, 2), F(1, 2)), 100) == [1]
    rng = random.Random(15)
    worst = 0
    for _ in range(30):
        x = random_target(rng, 400)
        ties = record_tie_heights(x, 500)
        if ties:
            worst = max(worst, max(ties))
    assert worst <= 64


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=12),
    a=st.integers(min_value=0, max_value=12),
    b=st.integers(min_value=0, max_value=12),
)
def test_sequence_invariants_property(d, a, b):
    x = RatPoint(F(min(a, d), d), F(min(b, d), d))
    seq = best_approximations(x, 25)
    for u, v in zip(seq.items, seq.items[1:]):
        assert u.q < v.q
    for r, s in zip(seq.residuals, seq.residuals[1:]):
        assert r > s
    for v, r in zip(seq.items, seq.residuals):
        assert height_minimum(x, v.q)[0] == r
        assert math.gcd(v.p1, v.p2, v.q) == 1


def test_box_heights_match_bruteforce():
    rng = random.Random(16)
    for _ in range(60):
        x = random_target(rng, 40)
        n1, n2, den = x.common_denominator()
        big_q = rng.randint(1, 30)
        big_r = rng.randint(1, 2 * den)  # residual bound big_r / den
        want = []
        for q in range(1, big_q + 1):
            for p1 in range((q * n1 - big_r) // den, (q * n1 + big_r) // den + 1):
                for p2 in range((q * n2 - big_r) // den, (q * n2 + big_r) // den + 1):
                    s = max(abs(q * n1 - p1 * den), abs(q * n2 - p2 * den))
                    if s <= big_r:
                        want.append((q, s))
        got = sorted(_box_heights(n1, n2, den, big_q, big_r))
        assert got == sorted(want), (x, big_q, big_r)


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3000),
    a=st.integers(min_value=-4000, max_value=4000),
    b=st.integers(min_value=-4000, max_value=4000),
    half=st.booleans(),
    bound=st.one_of(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=4000),
    ),
)
def test_best_approximations_match_scan(d, a, b, half, bound):
    # half=True puts x1 on a half-integer tie at every odd height; bounds
    # below, at and above the denominator cover cut-off and exact hits
    x = RatPoint(F(1, 2) if half else F(a, d), F(b, d))
    assert best_approximations(x, bound) == best_approximations_scan(x, bound)


def _integral_gso(
    basis: list[tuple[int, int, int]],
) -> tuple[list[int], list[list[int]]]:
    """Integral Gram-Schmidt data of independent integer rows.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.7:
    d[i] is the Gram determinant of rows 0..i-1 (d[0] = 1), so the i-th
    Gram-Schmidt vector has squared length d[i+1]/d[i], and
    lam[i][j] = d[j+1] * mu[i][j] for j < i.  Every division is exact.
    """
    n = len(basis)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i, bi in enumerate(basis):
        for j in range(i + 1):
            bj = basis[j]
            u = bi[0] * bj[0] + bi[1] * bj[1] + bi[2] * bj[2]
            for k in range(j):
                u = (d[k + 1] * u - lam[i][k] * lam[j][k]) // d[k]
            if j < i:
                lam[i][j] = u
            else:
                d[i + 1] = u
    return d, lam


def phi(row, n1, n2, den, a, b):
    """The integer map of shortest_vector_reduced at T = a/b."""
    p1, p2, q = row
    return a * (q * n1 - den * p1), a * (q * n2 - den * p2), b * den * q


def general_reduced_lattice(n1, n2, den, a, b, start=UNIT_ROWS):
    """The n-row integral LLL that _reduced_lattice unrolls for its one
    3-row shape: phi of the start rows, _integral_gso, then the REDI/SWAPI
    loop, returning the rows and (d, lam) as lists."""
    basis = [phi(row, n1, n2, den, a, b) for row in start]
    d, lam = _integral_gso(basis)
    k = 1
    while k < 3:
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            r = (2 * lam[k][j] + dj) // (2 * dj)
            if r:
                bk, bj = basis[k], basis[j]
                basis[k] = (bk[0] - r * bj[0], bk[1] - r * bj[1], bk[2] - r * bj[2])
                lam[k][j] -= r * dj
                for i in range(j):
                    lam[k][i] -= r * lam[j][i]
        mu = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * mu * mu:
            k += 1
            continue
        basis[k], basis[k - 1] = basis[k - 1], basis[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        dk = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
        for i in range(k + 1, 3):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - mu * t) // d[k]
            lam[i][k - 1] = (dk * t + mu * lam[i][k]) // d[k + 1]
        d[k] = dk
        k = max(k - 1, 1)
    return basis, d, lam


def _scalars(d, lam):
    return d[1], d[2], d[3], lam[1][0], lam[2][0], lam[2][1]


def random_unimodular(rng: random.Random, size: int) -> list[tuple[int, int, int]]:
    """A random basis of Z^3: row additions, a shuffle and a sign flip
    applied to the unit rows."""
    rows = [list(r) for r in UNIT_ROWS]
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        c = rng.randint(-size, size)
        rows[i] = [u + c * v for u, v in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    rows[0] = [-u for u in rows[0]] if rng.random() < 0.5 else rows[0]
    return [tuple(r) for r in rows]


def reduction_cases(rng: random.Random, digit_choices, count: int):
    """(n1, n2, den, a, b, start) inputs: cold starts from the unit rows,
    warm starts from the reduced basis of a smaller T (carried as the
    chain and the record loop carry it), and random unimodular starts."""
    cases = []
    for _ in range(count):
        digits = rng.choice(digit_choices)
        d = rng.randint(2, 10**digits)
        n1, n2 = rng.randrange(d), rng.randrange(d)
        a, b = rng.randint(1, 10**rng.randint(1, 2 * digits)), rng.randint(1, 1000)
        cases.append((n1, n2, d, a, b, UNIT_ROWS))
        carried = list(UNIT_ROWS)
        _reduced_lattice(n1, n2, d, a, b, carried)
        for _ in range(3):
            a = a * rng.randint(1001, 4000) // 1000 + 1
            cases.append((n1, n2, d, a, b, tuple(carried)))
            _reduced_lattice(n1, n2, d, a, b, carried)
        cases.append((n1, n2, d, a, b, tuple(random_unimodular(rng, 10**rng.randint(0, 6)))))
    return cases


def test_reduced_lattice_matches_general_lll():
    # the unrolled 3-row reduction must take every step of the general one,
    # from every start: the same reduced rows and the same Gram-Schmidt
    # data, so that _ball_points yields the same points in the same order,
    # and the carried list must hold the preimages of those rows.  The
    # small grid holds exact Lovasz ties at k = 1, e.g. x = (1/2, 1/2) at
    # T = 2.
    rng = random.Random(27)
    cases = [(n1, n2, d, a, b, UNIT_ROWS) for d in range(1, 7) for n1 in range(d)
             for n2 in range(d) for a in range(1, 5) for b in range(1, 5)]
    for digits in (1, 3, 8, 20, 31):
        for _ in range(200):
            d = rng.randint(2, 10**digits)
            cases.append((rng.randrange(d), rng.randrange(d), d,
                          rng.randint(1, 10**rng.randint(1, 62)), rng.randint(1, 1000),
                          UNIT_ROWS))
    cases += reduction_cases(rng, (1, 3, 8, 20, 31), 200)
    for *args, start in cases:
        basis, dd, lam = general_reduced_lattice(*args, start)
        want = (tuple(basis), _scalars(dd, lam))
        carried = list(start)
        assert _reduced_lattice(*args, carried) == want, (args, start)
        assert [phi(row, *args) for row in carried] == basis, (args, start)
        if start == UNIT_ROWS:
            assert _reduced_lattice(*args) == want, args


def test_reduced_lattice_is_lll_reduced():
    # the in-place REDI/SWAPI data must equal a fresh Gram-Schmidt pass,
    # and that pass must show a size-reduced basis passing the Lovasz test
    rng = random.Random(17)
    for *args, start in reduction_cases(rng, (1, 3, 8, 20), 300):
        basis, gso = _reduced_lattice(*args, list(start))
        fresh_d, fresh_lam = _integral_gso(basis)
        assert gso == _scalars(fresh_d, fresh_lam)
        for k in range(1, 3):
            for j in range(k):
                assert -fresh_d[j + 1] <= 2 * fresh_lam[k][j] < fresh_d[j + 1]
            assert (4 * fresh_d[k + 1] * fresh_d[k - 1]
                    >= 3 * fresh_d[k] ** 2 - 4 * fresh_lam[k][k - 1] ** 2)


def test_reduced_lattice_fixes_its_own_reduced_basis():
    # started from its own reduced basis at the same T, the reduction makes
    # no step: the same rows, the same six scalars, the same carried list
    rng = random.Random(39)
    for *args, start in reduction_cases(rng, (1, 3, 8, 20, 31), 60):
        carried = list(start)
        want = _reduced_lattice(*args, carried)
        again = list(carried)
        assert _reduced_lattice(*args, again) == want, args
        assert again == carried, args


def test_reduction_refuses_a_start_that_is_no_basis():
    x = RatPoint(F(2, 5), F(3, 5))
    for start in ([(1, 0, 0), (0, 1, 0), (0, 0, 2)],
                  [(1, 0, 0), (1, 0, 0), (0, 0, 1)],
                  [(0, 0, 0), (0, 1, 0), (0, 0, 1)]):
        with pytest.raises(ValueError, match="basis of Z\\^3"):
            _reduced_lattice(2, 3, 5, 7, 1, list(start))
        with pytest.raises(ValueError, match="basis of Z\\^3"):
            shortest_vector_reduced(x, 7, list(start))


def test_carried_shortest_vector_matches_the_oracle():
    # the carried basis moves no minimum: along rising T, the score from
    # the carried start equals the cold one and the scanning oracle's, and
    # the returned vector attains it
    rng = random.Random(391)
    for _ in range(12):
        den = rng.randint(10**2, 10**5)
        x = RatPoint(F(rng.randrange(den), den), F(rng.randrange(den), den))
        carried = list(UNIT_ROWS)
        for t_val in sorted(F(rng.randint(1, 10**7), rng.randint(1, 50)) for _ in range(6)):
            (p1, p2, q), m = shortest_vector_reduced(x, t_val, carried)
            assert m == shortest_vector_reduced(x, t_val)[1] == shortest_vector_oracle(x, t_val)[1]
            assert max(t_val * abs(q * x.x1 - p1), t_val * abs(q * x.x2 - p2), q) == m


def cold_best_approximations(x: RatPoint, height_bound: int) -> BestApproxSeq:
    """best_approximations with every box reduced from the unit rows, as
    the record loop ran before it carried the reduced basis."""
    n1, n2, den = x.common_denominator()
    num, opts1, opts2 = _height_step(n1, n2, den, 1)
    items, residuals = [PrimVec(opts1[0], opts2[0], 1)], [F(num, den)]
    while num:
        box = _box_heights(n1, n2, den, min(height_bound, 2 * den * den // (num * num)), num)
        q = min((h for h, s in box if s < num), default=None)
        if q is None:
            break
        num, opts1, opts2 = _height_step(n1, n2, den, q)
        items.append(PrimVec(opts1[0], opts2[0], q))
        residuals.append(F(num, den))
    return BestApproxSeq(x, tuple(items), tuple(residuals), height_bound)


def seeded_target(rng: random.Random, digits: int) -> RatPoint:
    den = rng.randint(10 ** (digits - 1) + 1, 10**digits)
    return RatPoint(F(rng.randrange(den), den), F(rng.randrange(den), den))


def test_carried_records_equal_cold_records():
    # a record is the least height in its box, and the lattice points in a
    # box do not depend on the basis that enumerates them
    # (cold reductions make the long targets slow: one bound each there)
    rng = random.Random(19)
    for digits in [*range(1, 21), *range(25, 61, 5)]:
        x = seeded_target(rng, digits)
        den = x.common_denominator()[2]
        for bound in (den, rng.randint(1, den))[:1 if digits > 20 else 2]:
            assert best_approximations(x, bound) == cold_best_approximations(x, bound), (x, bound)


def test_carried_records_equal_the_scan():
    rng = random.Random(1919)
    for digits in (1, 2, 3, 4):
        for _ in range(5):
            x = seeded_target(rng, digits)
            den = x.common_denominator()[2]
            for bound in (den, rng.randint(1, den)):
                assert best_approximations(x, bound) == best_approximations_scan(x, bound), x


def test_carried_records_of_a_long_target_pass_the_inequalities():
    x = seeded_target(random.Random(200), 200)
    seq = best_approximations(x, x.common_denominator()[2])
    assert len(seq.items) > 300 and seq.exact_hit
    report = audit_best_inequalities(seq)
    assert report["all_ok"], next(r for r in report["rows"]
                                  if not (r["lower_ok"] and r["upper_ok"] and r["primitive"]))
