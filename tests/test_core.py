import math
import random
from fractions import Fraction

import pytest

from diophlab.core import (
    PrimVec,
    RatPoint,
    Wedge2,
    proj_dist,
    pvec,
    residual,
    seminorm,
    wedge,
)


def test_primvec_validation():
    with pytest.raises(ValueError):
        PrimVec(2, 4, 6)
    with pytest.raises(ValueError):
        PrimVec(1, 0, 0)
    with pytest.raises(ValueError):
        PrimVec(1, 0, -3)
    v = PrimVec(3, 2, 7)
    assert v.proj() == (Fraction(3, 7), Fraction(2, 7))


def test_wedge_basic():
    u = pvec(0, 0, 1)
    v = pvec(0, 1, 520)
    w = wedge(v, u)
    assert w == (0, 0, 1)
    assert wedge(u, v) == (0, 0, -1)
    assert seminorm(w) == 1


def test_wedge_antisymmetric():
    u = pvec(3, -5, 11)
    v = pvec(-2, 7, 9)
    assert wedge(u, v) == wedge(v, u).neg()
    assert wedge(u, u) == (0, 0, 0)


def test_residual_examples():
    x = RatPoint(Fraction(1, 2), Fraction(1, 2))
    assert residual(x, pvec(0, 0, 1)) == Fraction(1, 2)
    assert residual(x, pvec(1, 1, 2)) == 0
    assert residual(x, pvec(1, 0, 1)) == Fraction(1, 2)
    x2 = RatPoint(Fraction(3, 7), Fraction(2, 7))
    assert residual(x2, pvec(0, 0, 1)) == Fraction(3, 7)
    assert residual(x2, pvec(3, 2, 7)) == 0


def test_proj_dist_exact():
    u = pvec(0, 0, 1)
    v = pvec(1, 1, 2)
    # points (0,0) and (1/2,1/2): sup distance 1/2
    assert proj_dist(u, v) == Fraction(1, 2)


def random_primvec(rng, hmax):
    while True:
        q = rng.randrange(1, hmax + 1)
        p1 = rng.randrange(-q, q + 1)
        p2 = rng.randrange(-q, q + 1)
        if math.gcd(math.gcd(abs(p1), abs(p2)), q) == 1:
            return pvec(p1, p2, q)


def test_pair_norm_identity_bulk():
    # seminorm(u^v) = |v| * residual(v_proj, u), exactly, for 10^4 random
    # pairs with heights up to 10^6.
    rng = random.Random(12345)
    for _ in range(10_000):
        u = random_primvec(rng, 10 ** 6)
        v = random_primvec(rng, 10 ** 6)
        w = wedge(u, v)
        lhs = Fraction(seminorm(w))
        assert lhs == v.q * residual(v.proj(), u)
        # and the projective distance formula is the same identity again
        assert proj_dist(u, v) == Fraction(seminorm(w), u.q * v.q)


def test_proj_dist_is_metric():
    rng = random.Random(99)
    for _ in range(2000):
        a = random_primvec(rng, 500)
        b = random_primvec(rng, 500)
        c = random_primvec(rng, 500)
        dab = proj_dist(a, b)
        dbc = proj_dist(b, c)
        dac = proj_dist(a, c)
        assert dac <= dab + dbc
        assert dab == proj_dist(b, a)
        if a.proj() == b.proj():
            assert dab == 0
        else:
            assert dab > 0


def test_common_denominator():
    x = RatPoint(Fraction(3, 7), Fraction(2, 7))
    assert x.common_denominator() == (3, 2, 7)
    y = RatPoint(Fraction(1, 2), Fraction(1, 3))
    assert y.common_denominator() == (3, 2, 6)
    z = RatPoint(Fraction(0), Fraction(0))
    assert z.common_denominator() == (0, 0, 1)
