import math
import random
from fractions import Fraction

import pytest

from diophlab.bestapprox import best_approximations
from diophlab.cfrac import (
    MAX_FAMILY_CHILDREN,
    convergents,
    dn_children,
    dn_gap_audit,
    neighbors,
    quotient_interval,
)
from diophlab.core import RatPoint
from diophlab.dimension import dn_tree
from diophlab.domains import in_domain
from diophlab.util import frac_str

F = Fraction


def test_convergents_frozen():
    assert convergents(F(10, 7)) == [F(1), F(3, 2), F(10, 7)]
    assert convergents(F(1, 2)) == [F(0), F(1, 2)]
    assert convergents(5) == [F(5)]
    assert convergents(F(-3, 2)) == [F(-2), F(-3, 2)]


def test_convergents_recover_value():
    rng = random.Random(31)
    for _ in range(50):
        q = rng.randint(1, 10**6)
        p = rng.randint(-(10**6), 10**6)
        x = F(p, q)
        conv = convergents(x)
        assert conv[-1] == x
        for a, b in zip(conv, conv[1:]):
            # consecutive convergents differ by a unimodular determinant
            det = a.numerator * b.denominator - b.numerator * a.denominator
            assert det in (-1, 1)


def test_neighbors_frozen():
    assert neighbors(F(1, 2)) == (F(0), F(1))
    assert neighbors(F(2, 5)) == (F(1, 3), F(1, 2))
    with pytest.raises(ValueError):
        neighbors(F(3))


def test_neighbors_determinants():
    rng = random.Random(32)
    for _ in range(60):
        q = rng.randint(2, 10**5)
        p = rng.randint(-(10**5), 10**5)
        v = F(p, q)
        if v.denominator < 2:
            continue
        vm, vp = neighbors(v)
        p_, q_ = v.numerator, v.denominator
        assert vp.numerator * q_ - p_ * vp.denominator == 1
        assert vm.numerator * q_ - p_ * vm.denominator == -1
        assert vm.denominator + vp.denominator == q_
        assert 0 < vm.denominator < q_


def test_interval_frozen():
    i1 = quotient_interval(F(1, 2), 1)
    assert (i1.lo, i1.hi) == (F(1, 3), F(2, 3))
    assert i1.length == F(1, 3)
    i2 = quotient_interval(F(1, 2), 2)
    assert (i2.lo, i2.hi) == (F(2, 5), F(3, 5))
    assert i2.length == F(1, 5)


def test_interval_length_bounds():
    rng = random.Random(33)
    for _ in range(50):
        q = rng.randint(2, 500)
        p = rng.randint(0, q)
        v = F(p, q)
        if v.denominator < 2:
            continue
        N = rng.randint(1, 100)
        iv = quotient_interval(v, N)
        qq = v.denominator**2
        assert F(2, (N + 1) * qq) <= iv.length <= F(2, N * qq)


def test_children_frozen():
    assert dn_children(F(1, 2), 1, 3) == [F(2, 5), F(3, 5), F(3, 7), F(4, 7)]


def test_family_size_is_capped_before_any_child_is_built():
    # 2 * (a_max - N) children: the cap admits the default family up to
    # N = 10^5 and refuses one of about 2 * 10^12 without building it
    assert len(dn_children(F(1, 2), 10**5)) == MAX_FAMILY_CHILDREN
    for N, a_max in ((10**5 + 1, None), (72, 10**12)):
        with pytest.raises(ValueError, match="children, more than 200000"):
            dn_children(F(1, 2), N, a_max)


def test_children_nested():
    parent = quotient_interval(F(1, 2), 1)
    for c in dn_children(F(1, 2), 1, 3):
        assert parent.contains(quotient_interval(c, 1))


def test_children_reduced_and_bounds():
    rng = random.Random(34)
    for _ in range(20):
        q = rng.randint(2, 200)
        p = rng.randint(1, q - 1)
        v = F(p, q)
        if v.denominator < 2:
            continue
        N = rng.randint(1, 30)
        parent = quotient_interval(v, N)
        for c in dn_children(v, N):
            assert parent.contains(quotient_interval(c, N))


def test_gap_audit_72():
    rep = dn_gap_audit(F(1, 2), 72)
    assert rep["children"] == 144
    assert rep["nested"] and rep["disjoint"] and rep["gaps_ok"]
    ratio = F(rep["min_gap_ratio"])
    assert ratio >= F(1, 36 * 72)


def test_gap_audit_small_N_empirical():
    # below the guaranteed regime: disjointness and nesting still must hold
    for N in (2, 5, 10):
        rep = dn_gap_audit(F(1, 2), N)
        assert rep["nested"] and rep["disjoint"]


def fraction_gap_audit(v, N: int) -> dict:
    """The Fraction version of dn_gap_audit that the integer one replaced,
    verbatim: one IntervalIN per child, sorted and compared as Fractions."""
    v = Fraction(v)
    parent = quotient_interval(v, N)
    kids = sorted(
        (quotient_interval(c, N) for c in dn_children(v, N)),
        key=lambda iv: iv.lo,
    )
    nested = all(parent.contains(k) for k in kids)
    disjoint = all(a.hi < b.lo for a, b in zip(kids, kids[1:]))
    min_gap = min((b.lo - a.hi for a, b in zip(kids, kids[1:])), default=None)
    ratio = None if min_gap is None else min_gap / parent.length
    floor = Fraction(1, 36 * N)
    return {
        "v": frac_str(v),
        "N": N,
        "children": len(kids),
        "nested": nested,
        "disjoint": disjoint,
        "min_gap_ratio": None if ratio is None else frac_str(ratio),
        "gap_floor": frac_str(floor),
        "gaps_ok": ratio is not None and ratio >= floor,
    }


def test_integer_gap_audit_matches_the_fraction_one():
    rng = random.Random(34)
    roots = [F(1, 2), F(2, 5), F(13, 29), F(-7, 3), F(5, 2)]
    while len(roots) < 12:
        q = rng.randint(2, 10**6)
        p = rng.randint(-q, 2 * q)
        if math.gcd(p, q) == 1:
            roots.append(F(p, q))
    for v in roots:
        for N in (1, 2, 72, 1000):
            assert dn_gap_audit(v, N) == fraction_gap_audit(v, N), (v, N)
    for v, N in ((F(3), 72), (F(1, 2), 0)):
        with pytest.raises(ValueError):
            dn_gap_audit(v, N)


def walk(node):
    yield node
    for c in node.children:
        yield from walk(c)


def test_tree_counts():
    t = dn_tree(F(1, 2), 2, 2, a_max=4)
    nodes = list(walk(t))
    assert len(nodes) == 1 + 4 + 16
    for n in nodes:
        # the id is the fraction, and the node is exactly its interval I_N
        v = F(n.id)
        assert str(v) == n.id
        iv = quotient_interval(v, 2)
        assert (n.lo, n.hi) == (iv.lo, iv.hi)
        assert n.diam == iv.length
    assert [F(c.id) for c in t.children] == dn_children(F(1, 2), 2, 4)
    t2 = dn_tree(F(1, 2), 2, 2, a_max=4, descend=2)
    nodes2 = list(walk(t2))
    assert len(nodes2) == 1 + 4 + 2 * 4
    for n in nodes2:
        if n.children:
            audit = dn_gap_audit(F(n.id), 2)
            assert audit["disjoint"]


def test_embedding_matches_bestapprox():
    rng = random.Random(35)
    for _ in range(25):
        den = rng.randint(2, 200)
        num = rng.randint(1, den - 1)
        y = F(num, den)
        conv = convergents(y)
        # when the first two convergents share height one, only the second
        # is a record-breaker
        if len(conv) >= 2 and conv[1].denominator == 1:
            conv = conv[1:]
        seq = best_approximations(RatPoint(y, 0), den)
        assert [F(v.p1, v.q) for v in seq.items] == conv


def test_interval_is_domain_closure_interior():
    v = F(2, 5)
    iv = quotient_interval(v, 1)
    assert (iv.lo, iv.hi) == (F(3, 8), F(3, 7))
    inside = [(iv.lo + v) / 2, v, (iv.hi + v) / 2]
    outside = [iv.lo - F(1, 100), iv.hi + F(1, 100), F(1, 10)]
    from diophlab.core import PrimVec

    vec = PrimVec(2, 0, 5)
    for y in inside:
        assert in_domain(RatPoint(y, 0), vec)
    for y in outside:
        assert not in_domain(RatPoint(y, 0), vec)
    # endpoints sit on lower-height ties, excluded by the strict comparison
    assert not in_domain(RatPoint(iv.lo, 0), vec)
    assert not in_domain(RatPoint(iv.hi, 0), vec)
