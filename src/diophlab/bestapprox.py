"""Best approximations to a rational target and the associated minima profile.

The profile tracks, in exact arithmetic, the shortest-vector length of a
one-parameter family of lattices attached to the target.  A convenient
normalisation removes the contracting factor: at time parameter T (a
positive rational standing for the cube of the usual exponential scale),
the vector (p, q) scores

    score(p, q) = max(T * ||q x - p||, q)

and the profile is the minimum score over the best-approximation items.
Heights, residuals, and scores stay rational throughout; logarithms appear
only in float convenience accessors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .core import PrimVec, RatPoint, proj_dist, residual, seminorm, wedge
from .latinv import wedge_constraint_ok
from .util import frac_str, ln_fraction


def height_minimum(x: RatPoint, q: int) -> tuple[Fraction, list[tuple[int, int]]]:
    """Smallest residual ||q x - p|| over integer p, with the achieving p.

    Returns the exact minimum and the lex-sorted list of minimizing
    numerator pairs (at most four; more than one only on half-integer
    ties).  Every listed pair achieves the minimum exactly.
    """
    if q < 1:
        raise ValueError(f"height must be positive, got {q}")
    n1, n2, d = x.common_denominator()
    per_coord: list[tuple[list[int], int]] = []
    for n in (n1, n2):
        lo = (q * n) // d
        r = q * n - lo * d
        if 2 * r < d:
            per_coord.append(([lo], r))
        elif 2 * r > d:
            per_coord.append(([lo + 1], d - r))
        else:
            per_coord.append(([lo, lo + 1], r))
    (opts1, r1), (opts2, r2) = per_coord
    res = Fraction(max(r1, r2), d)
    cands = [(p1, p2) for p1 in opts1 for p2 in opts2]
    return res, cands


class _BestApproxSeqFields(NamedTuple):
    target: RatPoint
    items: tuple[PrimVec, ...]
    residuals: tuple[Fraction, ...]
    height_bound: int

    @property
    def exact_hit(self) -> bool:
        return self.residuals[-1] == 0

    def to_jsonable(self) -> dict:
        return {
            "target": [frac_str(c) for c in self.target],
            "height_bound": self.height_bound,
        }


class BestApproxSeq(_BestApproxSeqFields):
    """Record-breaking approximations to a rational target, by height."""

    __slots__ = ()

    def __new__(cls, target, items, residuals, height_bound):
        if len(items) != len(residuals) or not items:
            raise ValueError("items and residuals must align and be nonempty")
        for a, b in zip(items, items[1:]):
            if a.q >= b.q:
                raise ValueError("heights must strictly increase")
        for a, b in zip(residuals, residuals[1:]):
            if a <= b:
                raise ValueError("residuals must strictly decrease")
        return tuple.__new__(cls, (target, items, residuals, height_bound))


def best_approximations(x: RatPoint, height_bound: int) -> BestApproxSeq:
    """All strict record-breakers of the per-height residual minimum.

    A height q up to height_bound is a record when its minimal residual
    strictly beats every smaller height.  Equal-height ties are resolved
    lexicographically on the numerator pair (the first pair of
    height_minimum).  A residual of zero ends the sequence: the target
    itself has been reached.

    Records are found as lattice points, not by scanning heights.  Every
    height between the record (q_j, r_j) and the next one has a residual
    of at least r_j, so the next record is the least height whose own
    residual is below r_j.  Minkowski's theorem bounds that height: the
    body |q| <= 2/r_j^2, ||q x - p|| <= r_j/sqrt(2) has volume 8, so it
    holds a nonzero integer point, whose q is nonzero and whose residual
    is below r_j = num/den.  Hence the next record is the least height
    with s < num in _box_heights(n1, n2, den, Q, num), Q = min(height_bound,
    floor(2/r_j^2)): a box of volume at most 8, about 44 ball points.
    best_approximations_scan is the height-by-height oracle.

    Record-breakers are automatically primitive: a common factor g > 1
    would put a strictly smaller residual at height q/g, contradicting the
    record property (and the first exact hit occurs at the reduced common
    denominator, which is coprime to the numerators).
    """
    if height_bound < 1:
        raise ValueError(f"height_bound must be >= 1, got {height_bound}")
    n1, n2, den = x.common_denominator()
    res, cands = height_minimum(x, 1)
    items = [PrimVec(*cands[0], 1)]
    residuals = [res]
    while res:
        num = res.numerator * (den // res.denominator)  # res = num / den
        box = _box_heights(n1, n2, den, min(height_bound, 2 * den * den // (num * num)), num)
        q = min((h for h, s in box if s < num), default=None)
        if q is None:
            break
        res, cands = height_minimum(x, q)
        items.append(PrimVec(*cands[0], q))
        residuals.append(res)
    return BestApproxSeq(x, tuple(items), tuple(residuals), height_bound)


def best_approximations_scan(x: RatPoint, height_bound: int) -> BestApproxSeq:
    """best_approximations by scanning every height 1..height_bound.

    The oracle that the lattice-box route is tested against.
    """
    if height_bound < 1:
        raise ValueError(f"height_bound must be >= 1, got {height_bound}")
    items: list[PrimVec] = []
    residuals: list[Fraction] = []
    record: Fraction | None = None
    for q in range(1, height_bound + 1):
        res, cands = height_minimum(x, q)
        if record is None or res < record:
            p1, p2 = cands[0]
            items.append(PrimVec(p1, p2, q))
            residuals.append(res)
            record = res
            if res == 0:
                break
    return BestApproxSeq(x, tuple(items), tuple(residuals), height_bound)


class Breakpoint(NamedTuple):
    """One breakpoint of the profile, stored as an exact (height, residual) pair.

    kind "min": the per-vector minimum of the item at this height.
    kind "max": the crossing between an item (whose residual this is) and
    its successor (whose height this is).  Either way the breakpoint sits
    at T = height/residual with cubed profile value height * residual**2.
    """

    kind: str
    height: int
    res: Fraction

    @property
    def T(self) -> Fraction:
        return Fraction(self.height) / self.res

    @property
    def value_cubed(self) -> Fraction:
        return self.height * self.res * self.res

    @property
    def tau(self) -> float:
        """The time coordinate t = (1/3) log T as a float."""
        return ln_fraction(self.T) / 3.0

    @property
    def log_value(self) -> float:
        return ln_fraction(self.value_cubed) / 3.0

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "height": self.height,
            "residual": frac_str(self.res),
            "T": frac_str(self.T),
            "value_cubed": frac_str(self.value_cubed),
            "tau": self.tau,
            "log_value": self.log_value,
        }


class PLProfile(NamedTuple):
    """Piecewise-linear minima profile of a best-approximation sequence.

    Between breakpoints the log-profile has slope +1 (rising toward a
    crossing) or -2 (falling from a crossing to the next per-vector
    minimum); equivalently, in the T-normalisation used here, the score is
    proportional to T on rising pieces and constant on falling ones.  The
    window brackets the first and last crossing; outside it the finite
    sequence no longer certifies the true lattice minimum, so the profile
    is truncated rather than extrapolated.
    """

    seq: BestApproxSeq
    breakpoints: tuple[Breakpoint, ...]
    window: tuple[Fraction, Fraction]

    @property
    def exact_hit(self) -> bool:
        return self.seq.exact_hit

    def value_at(self, T) -> Fraction:
        """Exact normalised profile value min_j max(T*res_j, q_j)."""
        T = Fraction(T)
        if T <= 0:
            raise ValueError("T must be positive")
        return min(
            max(T * r, Fraction(v.q))
            for v, r in zip(self.seq.items, self.seq.residuals)
        )

    def log_length_at(self, T) -> float:
        """W value at time t = (1/3) log T, as a float."""
        T = Fraction(T)
        return ln_fraction(self.value_at(T)) - 2.0 * ln_fraction(T) / 3.0

    def samples(self, n: int) -> list[tuple[float, float]]:
        """n evenly spaced (t, W(t)) float pairs across the window."""
        lo, hi = self.window
        if n < 1:
            raise ValueError("need at least one sample")
        out = []
        for k in range(n):
            T = lo + (hi - lo) * Fraction(k, max(n - 1, 1))
            out.append((ln_fraction(T) / 3.0, self.log_length_at(T)))
        return out

    def to_jsonable(self) -> dict:
        return {
            "target": [frac_str(c) for c in self.seq.target],
            "breakpoints": [b.to_jsonable() for b in self.breakpoints],
            "window_T": [frac_str(self.window[0]), frac_str(self.window[1])],
            "exact_hit": self.exact_hit,
        }


def wx_profile(seq: BestApproxSeq) -> PLProfile:
    """Profile of a nonempty sequence: minima, crossings, certified window."""
    if not isinstance(seq, BestApproxSeq) or not seq.items:
        raise ValueError("need a nonempty best-approximation sequence")
    bps: list[Breakpoint] = []
    n = len(seq.items)
    for j in range(n):
        q, res = seq.items[j].q, seq.residuals[j]
        if res > 0:
            bps.append(Breakpoint("min", q, res))
            if j + 1 < n:
                bps.append(Breakpoint("max", seq.items[j + 1].q, res))
    for a, b in zip(bps, bps[1:]):
        assert a.T < b.T, "breakpoints must interleave strictly"
    maxima = [b for b in bps if b.kind == "max"]
    if maxima:
        window = (maxima[0].T, maxima[-1].T)
    else:
        window = (Fraction(1), Fraction(1))
    return PLProfile(seq, tuple(bps), window)


def shortest_vector_oracle(
    x: RatPoint, T, budget: int = 2_000_000
) -> tuple[tuple[int, int, int], Fraction]:
    """Certified minimum of max(T*|q*x1 - p1|, T*|q*x2 - p2|, |q|) over Z^3.

    Independent of the best-approximation machinery: scans heights q = 0,
    1, 2, ... outward, taking each height's minimum from height_minimum
    (the lexicographic tie choice), and stops once q exceeds the best
    score seen (any unscanned vector then scores more than the incumbent
    on its height coordinate alone).
    Raises RuntimeError when the scan would exceed the iteration budget.

    Returns (vector, score) with the score exact; vectors are canonicalised
    to q >= 0.
    """
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


def _reduced_lattice(
    n1: int, n2: int, den: int, a: int, b: int,
) -> tuple[list[tuple[int, int, int]], list[int], list[list[int]]]:
    """LLL-reduced basis of phi(Z^3) for x = (n1/den, n2/den) at parameter
    T = a/b, with its integral Gram-Schmidt data (d, lam) as _integral_gso
    defines them.

    phi is the integer map of shortest_vector_reduced.  LLL uses the
    classical 3/4 parameter; size reduction rounds mu = lam/d to the
    nearest integer, halves up, over j = k-1, ..., 0 before the Lovasz
    test.  The Gram-Schmidt data are computed once and then updated in
    place: REDI on each size reduction, SWAPI on each swap (Cohen, Alg.
    2.6.7), with every division exact.
    """
    basis = [(-a * den, 0, 0), (0, -a * den, 0), (a * n1, a * n2, b * den)]
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


def _ball_points(
    basis: list[tuple[int, int, int]], d: list[int], lam: list[list[int]],
    radius: int,
):
    """Yield every nonzero lattice point w with ||w||^2 <= radius.

    The ball ||c0 b0 + c1 b1 + c2 b2||^2 <= radius is
        d3 c2^2 / d2 + t1^2 / (d1 d2) + t0^2 / d1 <= radius
    with t1 = d2 c1 + lam21 c2 and t0 = d1 c0 + lam10 c1 + lam20 c2,
    so each coordinate range is an integer square root.
    """
    s2 = math.isqrt(d[2] * radius // d[3])
    for c2 in range(-s2, s2 + 1):
        r2 = d[2] * radius - d[3] * c2 * c2
        s1 = math.isqrt(d[1] * r2)
        off1 = lam[2][1] * c2
        for c1 in range(-((s1 + off1) // d[2]), (s1 - off1) // d[2] + 1):
            t1 = d[2] * c1 + off1
            s0 = math.isqrt((d[1] * r2 - t1 * t1) // d[2])
            off0 = lam[1][0] * c1 + lam[2][0] * c2
            for c0 in range(-((s0 + off0) // d[1]), (s0 - off0) // d[1] + 1):
                if c0 == 0 and c1 == 0 and c2 == 0:
                    continue
                yield (
                    c0 * basis[0][0] + c1 * basis[1][0] + c2 * basis[2][0],
                    c0 * basis[0][1] + c1 * basis[1][1] + c2 * basis[2][1],
                    c0 * basis[0][2] + c1 * basis[1][2] + c2 * basis[2][2],
                )


def shortest_vector_reduced(x: RatPoint, T) -> tuple[tuple[int, int, int], Fraction]:
    """Certified minimum of max(T*|q*x1 - p1|, T*|q*x2 - p2|, |q|) over Z^3.

    Same contract as shortest_vector_oracle, but runs in time polynomial in
    the bit sizes rather than linear in the answer, so it stays usable when
    the minimum has dozens of digits.  With T = a/b and x = (n1/D, n2/D),
    the integer map

        phi(p1, p2, q) = (a (q n1 - D p1), a (q n2 - D p2), b D q)

    carries Z^3 onto the lattice with rows (-aD, 0, 0), (0, -aD, 0),
    (a n1, a n2, bD), and the sup score of v is ||phi(v)||_inf / (bD).  The
    rows are LLL-reduced in exact integer arithmetic, then the enumeration
    covers ||w||^2 <= 3 m0^2, where m0 is the least sup norm among the
    reduced rows.  Any sup minimizer w satisfies ||w||^2 <= 3 ||w||_inf^2
    <= 3 m0^2, so it lies inside the enumerated ball and the exact sup
    comparison over the candidates is a certificate.
    """
    T = Fraction(T)
    if T <= 0:
        raise ValueError("T must be positive")
    a, b = T.numerator, T.denominator
    n1, n2, den = x.common_denominator()
    basis, d, lam = _reduced_lattice(n1, n2, den, a, b)
    best_vec = min(basis, key=lambda w: max(map(abs, w)))
    best = m0 = max(map(abs, best_vec))
    for w in _ball_points(basis, d, lam, 3 * m0 * m0):
        val = max(abs(w[0]), abs(w[1]), abs(w[2]))
        if val < best:
            best = val
            best_vec = w

    q = best_vec[2] // (b * den)  # invert phi
    p1 = (a * q * n1 - best_vec[0]) // (a * den)
    p2 = (a * q * n2 - best_vec[1]) // (a * den)
    if q < 0 or (q == 0 and (p1 < 0 or (p1 == 0 and p2 < 0))):
        p1, p2, q = -p1, -p2, -q
    return (p1, p2, q), Fraction(best, b * den)


def _box_heights(n1: int, n2: int, den: int, Q: int, R: int):
    """Yield (q, s) for every (p1, p2, q) with 0 < q <= Q and residual
    numerator s = max_i |q n_i - p_i den| <= R, for x = (n1/den, n2/den),
    Q >= 1 and R >= 1, in unspecified order.

    The phi of shortest_vector_reduced at T = Q den / R = a/b (lowest
    terms) carries these points to the lattice points w with w[2] > 0 and
    ||w||_inf <= m = Q b den, so q = w[2] / (b den) and
    s = max(|w[0]|, |w[1]|) / a.  Their ball ||w||^2 <= 3 m^2 is
    enumerated over the reduced basis: about 22 Q R^2 / den^2 points.
    Nothing caps that volume Q R^2 / den^2 here; both callers bound it by
    proof, at most 2 for records and below 1 for domain membership once
    in_domain's Minkowski test has passed.
    """
    g = math.gcd(Q * den, R)
    a, b = Q * den // g, R // g
    basis, d, lam = _reduced_lattice(n1, n2, den, a, b)
    bd = b * den
    m = Q * bd
    for w in _ball_points(basis, d, lam, 3 * m * m):
        if 0 < w[2] <= m and abs(w[0]) <= m and abs(w[1]) <= m:
            yield w[2] // bd, max(abs(w[0]), abs(w[1])) // a


def accelerated_subsequence(seq: BestApproxSeq) -> list[PrimVec]:
    """Items outside the integer span of their two predecessors.

    Consecutive items span a primitive rank-2 sublattice, so integer-span
    membership reduces to coplanarity, checked exactly on the wedge of the
    two predecessors.  Sequences with fewer than three items yield an
    empty list.
    """
    out: list[PrimVec] = []
    for j in range(2, len(seq.items)):
        w = wedge(seq.items[j - 2], seq.items[j - 1])
        if not wedge_constraint_ok(w, seq.items[j]):
            out.append(seq.items[j])
    return out


def crossing_eps_cubed(seq: BestApproxSeq, j: int) -> Fraction:
    """Cubed profile value at the crossing of items j and j+1."""
    return seq.items[j + 1].q * seq.residuals[j] ** 2


def audit_best_inequalities(seq: BestApproxSeq) -> dict:
    """Exact two-sided bounds on ||x - p_j/q_j|| from consecutive items.

    For each consecutive pair checks

        |L| / (q_j * (q_{j+1} + q_j))  <=  ||x - p_j/q_j||  <=  2|L| / (q_j * q_{j+1})

    where |L| is the sup seminorm of the pair's wedge, plus primitivity of
    the wedge itself.  All comparisons are rational.
    """
    if len(seq.items) < 2:
        raise ValueError("need at least two items")
    rows = []
    for j in range(len(seq.items) - 1):
        u, v = seq.items[j], seq.items[j + 1]
        w = wedge(u, v)
        labs = seminorm(w)
        mid = seq.residuals[j] / u.q
        lower = Fraction(labs, u.q * (v.q + u.q))
        upper = Fraction(2 * labs, u.q * v.q)
        rows.append(
            {
                "j": j,
                "L": labs,
                "distance": frac_str(mid),
                "lower_ok": lower <= mid,
                "upper_ok": mid <= upper,
                "primitive": math.gcd(w.m12, w.m13, w.m23) == 1,
            }
        )
    return {
        "target": [frac_str(c) for c in seq.target],
        "rows": rows,
        "all_ok": all(r["lower_ok"] and r["upper_ok"] and r["primitive"] for r in rows),
    }


def projective_sandwich_ok(x: RatPoint, u: PrimVec, v: PrimVec) -> bool:
    """Strict two-sided comparison of dist(u, x) against dist(u, v).

    Requires (1/2) dist(u, v) < ||u_dot - x|| < 2 dist(u, v), both strict,
    where dist(u, v) is the exact projective sup distance.  Intended for
    best-approximation items v and arbitrary lower-height u.
    """
    pd = proj_dist(u, v)
    du = residual(x, u) / u.q
    return pd < 2 * du and du < 2 * pd


def record_tie_heights(x: RatPoint, height_bound: int) -> list[int]:
    """Record heights whose minimal residual is achieved by several numerators."""
    return [
        v.q for v in best_approximations(x, height_bound).items
        if len(height_minimum(x, v.q)[1]) > 1
    ]
