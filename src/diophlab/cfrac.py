"""One-dimensional machinery: convergents, neighbor fractions, and the
partial-quotient intervals used to grow Cantor-type sets of reals whose
expansions have large quotients.

Fractions are stdlib Fraction values, always reduced.  Neighbor data only
exists for denominator at least 2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .util import frac_str

# Most children one quotient family may hold.  `dn_gap_audit` builds and
# sorts them all: on a 2-core x86-64 host 'dn --root 1/2' took 1.0 s (35 MB
# peak) at N = 2 * 10^4 and 7.2 s (109 MB) at N = 10^5, the largest allowed.
MAX_FAMILY_CHILDREN = 2 * 10**5


def convergents(x) -> list[Fraction]:
    """Continued-fraction convergents of a rational, canonical expansion.

    The Euclidean algorithm on a reduced fraction always ends with a last
    partial quotient >= 2 (except for integers), so the expansion, and
    with it this list, is unique.
    """
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    out = []
    h_prev, h = 0, 1  # numerators
    k_prev, k = 1, 0  # denominators
    while q:
        a = p // q
        p, q = q, p - a * q
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        out.append(Fraction(h, k))
    return out


def neighbors(v) -> tuple[Fraction, Fraction]:
    """The unique fractions v_-, v_+ with p_pm*q - p*q_pm = -+1 and 0 < q_pm < q.

    Their denominators split q exactly: q_- + q_+ = q.
    """
    v = Fraction(v)
    p, q = v.numerator, v.denominator
    if q < 2:
        raise ValueError("neighbor fractions need denominator >= 2")
    q_plus = pow(-p, -1, q)
    p_plus = (1 + p * q_plus) // q
    q_minus = q - q_plus
    p_minus = p - p_plus
    assert p_plus * q - p * q_plus == 1
    assert p_minus * q - p * q_minus == -1
    return Fraction(p_minus, q_minus), Fraction(p_plus, q_plus)


class IntervalIN(NamedTuple):
    """The interval of reals having v as a convergent with next quotient >= N."""

    v: Fraction
    N: int
    lo: Fraction
    hi: Fraction

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains_point(self, y) -> bool:
        return self.lo <= Fraction(y) <= self.hi

    def contains(self, other: "IntervalIN") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def to_jsonable(self) -> dict:
        return {
            "v": frac_str(self.v),
            "N": self.N,
            "lo": frac_str(self.lo),
            "hi": frac_str(self.hi),
            "length": frac_str(self.length),
        }


def quotient_interval(v, N: int) -> IntervalIN:
    """I_N(v) with exact endpoints (N*v + v_-, N*v + v_+), mediant-style."""
    v = Fraction(v)
    if N < 1:
        raise ValueError("N must be >= 1")
    p, q = v.numerator, v.denominator
    vm, vp = neighbors(v)
    lo = Fraction(N * p + vm.numerator, N * q + vm.denominator)
    hi = Fraction(N * p + vp.numerator, N * q + vp.denominator)
    iv = IntervalIN(v, N, lo, hi)
    expected = Fraction(
        2 * N + 1, (N * q + vm.denominator) * (N * q + vp.denominator)
    )
    assert iv.length == expected
    return iv


def dn_children(v, N: int, a_max: int | None = None) -> list[Fraction]:
    """Successor fractions a*v + v_pm for quotients N < a <= a_max.

    The default a_max = 2N is the restricted family whose intervals carry
    a guaranteed relative gap; larger values are allowed but the spacing
    audit is then the caller's responsibility.  Children are ordered by
    quotient, minus-neighbor first, and are automatically reduced (the
    defining determinants are +-1).

    For the lower-bound certificate (`dimension.lower_cert`) the default
    family certifies conditions (i)-(iii) at rho = 1/(36N), and provably
    not (iv) at s_minus.  With u = 2s - 1, s_minus is defined by
    N^(-u) = 6u; the child for quotient a has an interval about a^(-2) of
    its parent's, so the per-node power sum is about
    2 N^(-u) (1 - 2^(-u)) / u = 12 (1 - 2^(-u)): 0.850 at N = 72, below
    0.88 for every N >= 72, and tending to 0 as N grows.

    Raises ValueError, before building any child, past
    MAX_FAMILY_CHILDREN = 2 * 10^5 children (N = 10^5 by default).
    """
    v = Fraction(v)
    p, q = v.numerator, v.denominator
    if N < 1:
        raise ValueError("N must be >= 1")
    if a_max is None:
        a_max = 2 * N
    if a_max <= N:
        raise ValueError("a_max must exceed N")
    if 2 * (a_max - N) > MAX_FAMILY_CHILDREN:
        raise ValueError(f"the family at N = {N} has {2 * (a_max - N)} children, "
                         f"more than {MAX_FAMILY_CHILDREN}")
    vm, vp = neighbors(v)
    out = []
    for a in range(N + 1, a_max + 1):
        out.append(Fraction(a * p + vm.numerator, a * q + vm.denominator))
        out.append(Fraction(a * p + vp.numerator, a * q + vp.denominator))
    return out


def dn_gap_audit(v, N: int) -> dict:
    """Exact nesting, disjointness, and relative-gap report for the family
    dn_children(v, N).

    Children intervals are sorted by left endpoint; since they must be
    pairwise disjoint, the adjacent gaps witness all pairwise ones.  The
    minimum gap is reported relative to the parent interval and compared
    against 1/(36N), the guaranteed floor for N >= 72.

    These are conditions (i)-(iii) of `dimension.lower_cert` at
    rho = 1/(36N).  The audit says nothing of the power sums (iv), which
    the default family provably fails at s_minus (see `dn_children`).
    """
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
