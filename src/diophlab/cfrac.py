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
# sorts them all: on a 2-core x86-64 host 'dn --root 1/2' took 0.3 s (31 MB
# peak) at N = 2 * 10^4 and 0.7-1.0 s (101 MB) at N = 10^5, the largest
# allowed.
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
    p_minus, q_minus, p_plus, q_plus = _neighbor_pairs(v.numerator, v.denominator)
    return Fraction(p_minus, q_minus), Fraction(p_plus, q_plus)


def _neighbor_pairs(p: int, q: int) -> tuple[int, int, int, int]:
    """(p_-, q_-, p_+, q_+): the neighbors of the reduced fraction p/q as
    integer pairs, each in lowest terms (its determinant with p/q is -+1)."""
    if q < 2:
        raise ValueError("neighbor fractions need denominator >= 2")
    q_plus = pow(-p, -1, q)
    p_plus = (1 + p * q_plus) // q
    q_minus = q - q_plus
    p_minus = p - p_plus
    assert p_plus * q - p * q_plus == 1
    assert p_minus * q - p * q_minus == -1
    return p_minus, q_minus, p_plus, q_plus


def _interval_ends(p: int, q: int, N: int) -> tuple[int, int, int, int]:
    """(lo num, lo den, hi num, hi den) of I_N(p/q), each end in lowest
    terms: its determinant with p/q is -+1 as well."""
    if N < 1:
        raise ValueError("N must be >= 1")
    p_minus, q_minus, p_plus, q_plus = _neighbor_pairs(p, q)
    return N * p + p_minus, N * q + q_minus, N * p + p_plus, N * q + q_plus


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
    lo_n, lo_d, hi_n, hi_d = _interval_ends(v.numerator, v.denominator, N)
    iv = IntervalIN(v, N, Fraction(lo_n, lo_d), Fraction(hi_n, hi_d))
    assert iv.length == Fraction(2 * N + 1, lo_d * hi_d)
    return iv


def dn_children(v, N: int, a_max: int | None = None) -> list[Fraction]:
    """Successor fractions a*v + v_pm for quotients N < a <= a_max.

    The default a_max = 2N is the restricted family whose intervals carry
    a guaranteed relative gap; larger values are allowed but the spacing
    audit is then the caller's responsibility.  Children are ordered by
    quotient, minus-neighbor first, and are automatically reduced (the
    defining determinants are +-1).

    The default family certifies conditions (i)-(iii) of the lower-bound
    certificate (`dimension.lower_cert`) at rho = 1/(36N), as
    `dn_gap_audit` checks, and provably not (iv) at s_minus.  With
    u = 2s - 1, s_minus is defined by N^(-u) = 6u; the child for quotient
    a has an interval about a^(-2) of its parent's, so the per-node power
    sum is about 2 N^(-u) (1 - 2^(-u)) / u = 12 (1 - 2^(-u)): 0.850 at
    N = 72, below 0.88 for every N >= 72, and tending to 0 as N grows.

    Raises ValueError, before building any child, past
    MAX_FAMILY_CHILDREN = 2 * 10^5 children (N = 10^5 by default).
    """
    return [Fraction(n, d) for n, d in _child_pairs(*Fraction(v).as_integer_ratio(), N, a_max)]


def _child_pairs(p: int, q: int, N: int, a_max: int | None = None) -> list[tuple[int, int]]:
    """dn_children(p/q, N, a_max) as (numerator, denominator) pairs, each in
    lowest terms."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if a_max is None:
        a_max = 2 * N
    if a_max <= N:
        raise ValueError("a_max must exceed N")
    if 2 * (a_max - N) > MAX_FAMILY_CHILDREN:
        raise ValueError(f"the family at N = {N} has {2 * (a_max - N)} children, "
                         f"more than {MAX_FAMILY_CHILDREN}")
    p_minus, q_minus, p_plus, q_plus = _neighbor_pairs(p, q)
    out = []
    for a in range(N + 1, a_max + 1):
        out.append((a * p + p_minus, a * q + q_minus))
        out.append((a * p + p_plus, a * q + q_plus))
    return out


def family_faults(parent, kids, rho: Fraction):
    """Conditions (i)-(iii) of `dimension.lower_cert` on one interval
    family, in integers: parent and kids are ends (lo num, lo den, hi num,
    hi den) with positive denominators.  Returns the faults as (cond,
    detail template, kid indices), in the order (i) fewer than 2 kids,
    (i) and (ii) per kid in list order, (iii) per pair adjacent by left
    end whose gap is below rho * parent diameter; each kid's diameter over
    the parent's, as the float of that integer ratio; and the least
    adjacent gap over the parent's diameter, an integer pair (num, den > 0),
    negative on overlap (None for fewer than 2 kids).  The sort key
    floor(D^2 lo), D the largest left denominator, orders kids as lo does
    (distinct ends differ by at least 1/D^2), and the sort is stable."""
    lo_n, lo_d, hi_n, hi_d = parent
    ends, width = lo_d * hi_d, hi_n * lo_d - lo_n * hi_d  # diameter width/ends
    faults = [] if len(kids) > 1 else [("i", "fewer than 2 children", ())]
    shrink = []
    for k, (n0, d0, n1, d1) in enumerate(kids):
        if not (lo_n * d0 <= n0 * lo_d and n1 * hi_d <= hi_n * d1):
            faults.append(("i", "{} not contained", (k,)))
        num, den = (n1 * d0 - n0 * d1) * ends, d0 * d1 * width
        if num >= den:
            faults.append(("ii", "{} does not shrink", (k,)))
        shrink.append(num / den)
    scale = max(k[1] for k in kids) ** 2
    order = sorted(range(len(kids)), key=lambda k: kids[k][0] * scale // kids[k][1])
    floor_n, floor_d = rho.numerator * width, rho.denominator * ends
    least = None
    for j, k in zip(order, order[1:]):
        a, b = kids[j], kids[k]
        num, den = b[0] * a[3] - a[2] * b[1], a[3] * b[1]
        if num * floor_d < floor_n * den:
            faults.append(("iii", "gap {}|{} below floor", (j, k)))
        if least is None or num * least[1] < least[0] * den:
            least = num, den
    return faults, shrink, least and (least[0] * ends, least[1] * width)


def dn_gap_audit(v, N: int) -> dict:
    """Exact nesting, disjointness, and relative-gap report for the family
    dn_children(v, N): conditions (i)-(iii) of `dimension.lower_cert` at
    rho = 1/(36N), the guaranteed floor for N >= 72, by `family_faults`.
    The least gap, relative to the parent interval and unclamped, is the
    one Fraction built.  The audit says nothing of the power sums (iv),
    which the default family provably fails at s_minus (see `dn_children`).
    """
    p, q = Fraction(v).as_integer_ratio()
    parent = _interval_ends(p, q, N)
    kids = [_interval_ends(n, d, N) for n, d in _child_pairs(p, q, N)]
    floor = Fraction(1, 36 * N)
    faults, _, least = family_faults(parent, kids, floor)
    ratio = Fraction(*least)
    return {
        "v": frac_str(v),
        "N": N,
        "children": len(kids),
        "nested": all(cond != "i" for cond, _, _ in faults),
        "disjoint": ratio > 0,
        "min_gap_ratio": frac_str(ratio),
        "gap_floor": frac_str(floor),
        "gaps_ok": ratio >= floor,
    }
