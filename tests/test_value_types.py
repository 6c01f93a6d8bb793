"""Behaviour of the immutable value types that callers rely on: validation,
read-only fields, exact reprs, coercion, and how JSON encoding treats them."""

from fractions import Fraction

import pytest

from diophlab.bestapprox import BestApproxSeq, Breakpoint, best_approximations, wx_profile
from diophlab.cfrac import quotient_interval
from diophlab.construct import ChainNode
from diophlab.core import PrimVec, RatPoint, Wedge2, pvec
from diophlab.dimension import cantor_exact_dim
from diophlab.domains import ball_bounds
from diophlab.latinv import invariants
from diophlab.util import json_ready

F = Fraction
X = RatPoint(F(3, 7), F(2, 7))


@pytest.mark.parametrize("args", [(1, 2, 0), (1, 2, -3), (2, 4, 6), (0, 0, 2)])
def test_primvec_rejects_bad_height_or_imprimitive(args):
    with pytest.raises(ValueError):
        PrimVec(*args)


@pytest.mark.parametrize("items, residuals", [
    ((), ()),
    ((pvec(0, 0, 1),), ()),
    ((pvec(0, 0, 1), pvec(1, 1, 3)), (F(3, 7),)),
    ((pvec(0, 0, 1), pvec(0, 0, 1)), (F(3, 7), F(1, 7))),
    ((pvec(1, 1, 3), pvec(0, 0, 1)), (F(3, 7), F(1, 7))),
    ((pvec(0, 0, 1), pvec(1, 1, 3)), (F(1, 7), F(1, 7))),
    ((pvec(0, 0, 1), pvec(1, 1, 3)), (F(1, 7), F(3, 7))),
])
def test_best_approx_seq_rejects_misaligned_or_nonmonotone(items, residuals):
    with pytest.raises(ValueError):
        BestApproxSeq(X, items, residuals, 10)


def _value_fields():
    seq = best_approximations(X, 10)
    return [
        (pvec(1, 2, 5), "q"), (Wedge2(1, -2, 3), "m13"), (X, "x1"),
        (invariants(pvec(1, 2, 5)), "absL"), (seq, "items"),
        (Breakpoint("max", 8, F(1, 8)), "res"), (wx_profile(seq), "window"),
        (quotient_interval(F(2, 5), 72), "lo"), (ball_bounds(pvec(1, 2, 5)), "r"),
        (cantor_exact_dim(F(1, 2)), "s"), (ChainNode(pvec(0, 0, 1)), "eps"),
    ]


@pytest.mark.parametrize("obj, field", _value_fields(),
                         ids=lambda p: p if isinstance(p, str) else type(p).__name__)
def test_value_type_fields_are_read_only(obj, field):
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))


def test_value_type_reprs_are_pinned():
    assert repr(pvec(1, -2, 5)) == "PrimVec(p1=1, p2=-2, q=5)"
    assert str(pvec(1, -2, 5)) == "((1,-2),5)"
    assert repr(Wedge2(1, -2, 3)) == "Wedge2(m12=1, m13=-2, m23=3)"
    assert repr(RatPoint(F(1, 2), F(1, 3))) == (
        "RatPoint(x1=Fraction(1, 2), x2=Fraction(1, 3))")


def test_ratpoint_coerces_and_precomputes_common_denominator():
    x = RatPoint(1, "1/3")
    assert type(x.x1) is Fraction and type(x.x2) is Fraction
    assert (x.x1, x.x2) == (F(1), F(1, 3))
    assert x.common_denominator() == (3, 1, 3)
    assert x.common_denominator() is x.common_denominator()
    assert RatPoint(F(1, 2), F(1, 3)).common_denominator() == (3, 2, 6)


def test_json_ready_converts_only_plain_containers():
    # a value type would print as a bare array; it must be converted first
    for leak in (pvec(1, 2, 5), [1, Wedge2(1, -2, 3)], {"x": RatPoint(1, 2)}):
        with pytest.raises(TypeError, match="unconverted"):
            json_ready(leak)
    assert json_ready({"a": (1, F(1, 2)), "b": [F(3)]}) == {"a": [1, "1/2"], "b": ["3/1"]}
