"""Command-line front end: every library operation as a subcommand.

Output is machine-readable (json, tsv, or a plain table) and fully
deterministic for a fixed configuration and seed, so reports can be
diffed byte for byte.  Exit status is 0 on success, 1 when an audit
finds a violation, and 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from collections.abc import Callable
from fractions import Fraction

from .bestapprox import (
    best_approximations,
    height_minimum,
    shortest_vector_oracle,
    shortest_vector_reduced,
    wx_profile,
)
from .cfrac import convergents, dn_gap_audit, neighbors, quotient_interval
from .construct import (
    expansion_tree,
    fixed_chain,
    growth_ok,
    nesting_ok,
    regularize_schedule,
    slot_children,
    slow_chain,
    slow_step,
    tree_audit,
    verify_spacing,
)
from .core import PrimVec, RatPoint, pvec, wedge
from .dimension import (
    MAX_TREE_DEPTH,
    bounds_crossing,
    cantor_bounds,
    cantor_exact_dim,
    cantor_tree,
    covering_s_estimate,
    dn_bounds,
)
from .domains import audit_ball_sandwich, ball_bounds, in_domain
from .latinv import (
    absL_from_wedge,
    companion_pair,
    cube_below,
    invariants,
    lattice_minima,
    scan_minima,
    wedge_constraint_ok,
)
from .util import frac_str, json_ready


FORMATS = ("json", "tsv", "table")
# Residual ceiling for the root finding of 'dims' and 'dn'; the residuals
# measured over their inputs stay below 2e-12.
ROOT_TOLERANCE = 1e-9


def parse_point(text: str) -> RatPoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"point must be 'x1,x2', got {text!r}")
    return RatPoint(Fraction(parts[0]), Fraction(parts[1]))


def parse_vec(text: str) -> PrimVec:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"vector must be 'p1,p2,q', got {text!r}")
    return pvec(int(parts[0]), int(parts[1]), int(parts[2]))


def emit(payload: dict, fmt: str, rows: list[dict] | None = None) -> str:
    """Render a payload; tsv and table need a row list, json never does."""
    if fmt == "json":
        return json.dumps(json_ready(payload), indent=2, sort_keys=True) + "\n"
    if rows is None:
        rows = [
            {"key": k, "value": json.dumps(json_ready(v), sort_keys=True)}
            for k, v in payload.items()
        ]
    rows = [{k: json_ready(v) for k, v in row.items()} for row in rows]
    if not rows:
        return "\n"
    headers = list(rows[0].keys())
    cells = [[str(r.get(h, "")) for h in headers] for r in rows]
    if fmt == "tsv":
        lines = ["\t".join(headers)] + ["\t".join(c) for c in cells]
        return "\n".join(lines) + "\n"
    widths = [
        max(len(h), max(len(row[i]) for row in cells)) for i, h in enumerate(headers)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------- handlers


def cmd_best_approx(args) -> tuple[int, dict, list[dict] | None]:
    x = parse_point(args.x)
    seq = best_approximations(x, args.qmax)
    payload = seq.to_jsonable()
    payload["norm"] = "sup"
    payload["exact_hit"] = seq.exact_hit
    rows = [
        {"p1": v.p1, "p2": v.p2, "q": v.q, "residual": frac_str(r),
         "residual_float": float(r)}
        for v, r in zip(seq.items, seq.residuals)
    ]
    payload["items"] = rows
    return 0, payload, rows


def cmd_profile(args) -> tuple[int, dict, list[dict] | None]:
    x = parse_point(args.x)
    prof = wx_profile(best_approximations(x, args.qmax))
    payload = prof.to_jsonable()
    if args.samples:
        payload["samples"] = [
            {"t": t, "w": w} for t, w in prof.samples(args.samples)
        ]
    rows = payload["breakpoints"]
    return 0, payload, rows


def cmd_invariants(args) -> tuple[int, dict, list[dict] | None]:
    iv = invariants(parse_vec(args.v))
    return 0, iv.to_jsonable(), None


def cmd_domain(args) -> tuple[int, dict, list[dict] | None]:
    v = parse_vec(args.v)
    bb = ball_bounds(v)
    audit = audit_ball_sandwich(v)
    payload = {"v": [v.p1, v.p2, v.q], "sandwich": audit}
    payload.update(bb.to_jsonable())
    if args.x is not None:
        payload["member"] = in_domain(parse_point(args.x), v)
    return (0 if audit["pass"] else 1), payload, None


def cmd_psi_tree(args) -> tuple[int, dict, list[dict] | None]:
    seed_vec = parse_vec(args.seed_vec)
    eps = Fraction(args.eps)
    root = expansion_tree(
        seed_vec, eps, n=args.family, depth=args.depth,
        expand=args.expand, width=args.width,
    )
    rep = tree_audit(root, eps, n=args.family)
    payload = {
        "seed": [seed_vec.p1, seed_vec.p2, seed_vec.q],
        "eps": frac_str(eps),
        "depth": args.depth,
        "depth1_children": len(root.children),
        **rep,
    }
    rows = [{"check": k, "failures": f} for k, f in sorted(rep["fails"].items())]
    return (0 if rep["pass"] else 1), payload, rows


def cmd_slow_chain(args) -> tuple[int, dict, list[dict] | None]:
    u0 = parse_vec(args.seed_vec)
    if args.target == "log1p":
        target = lambda t: -math.log1p(t)
    else:
        level = args.level
        target = lambda t: level
    try:
        chain, cert = slow_chain(
            u0, target, Fraction(args.delta), steps=args.steps,
            samples=args.samples,
        )
    except OverflowError as ex:
        # the heights outgrow what prints: name the option that drove them
        if args.target == "const":
            raise ValueError(f"--level {args.level}: {ex}") from None
        raise ValueError(f"--steps {args.steps}: {ex}") from None
    del cert["defects"]
    cert["samples"] = len(cert["samples"])
    rows = chain.to_jsonable()
    payload = {"target": args.target, "steps": args.steps, "nodes": rows,
               "certificate": cert}
    return (0 if cert["pass"] else 1), payload, rows


def _root_verdict(payload: dict, residual: float) -> int:
    """Add the tolerance and the verdict on a root-finding residual to the
    payload; the exit code is 0 within ROOT_TOLERANCE, else 1."""
    payload["tolerance"] = ROOT_TOLERANCE
    payload["within_tolerance"] = ok = residual <= ROOT_TOLERANCE
    return 0 if ok else 1


def cmd_dims(args) -> tuple[int, dict, list[dict] | None]:
    if args.action != "crossing" and args.delta is None:
        raise ValueError(f"--delta is required for 'dims {args.action}'")
    if args.action == "cantor":
        res = cantor_exact_dim(Fraction(args.delta))
        payload = {"action": "cantor", "delta": args.delta}
        payload.update(res.to_jsonable())
        if args.depth:
            est = covering_s_estimate(cantor_tree(Fraction(args.delta), args.depth))
            payload["covering_estimate"] = est.to_jsonable()
        return _root_verdict(payload, res.residual), payload, None
    if args.action == "bounds":
        h_d, h_g = cantor_bounds(Fraction(args.delta))
        return 0, {
            "action": "bounds",
            "delta": args.delta,
            "density": h_d,
            "gap": h_g,
        }, None
    rep = bounds_crossing()
    payload = {"action": "crossing", "delta": rep["delta"], "h": rep["h"],
               "residual": rep["residual"]}
    return _root_verdict(payload, rep["residual"]), payload, None


def cmd_dn(args) -> tuple[int, dict, list[dict] | None]:
    s_minus, s_plus = dn_bounds(args.n)
    payload = {"n": args.n, "s_minus": s_minus.to_jsonable(), "s_plus": s_plus.to_jsonable()}
    code = _root_verdict(payload, max(s_minus.residual, s_plus.residual))
    if args.root is not None:
        audit = dn_gap_audit(Fraction(args.root), args.n)
        payload["gap_audit"] = audit
        if not (audit["nested"] and audit["disjoint"] and audit["gaps_ok"]):
            code = 1
    return code, payload, None


def cmd_cf(args) -> tuple[int, dict, list[dict] | None]:
    x = Fraction(args.x)
    conv = convergents(x)
    payload = {"x": frac_str(x), "convergents": [frac_str(c) for c in conv]}
    if x.denominator >= 2:
        vm, vp = neighbors(x)
        payload["neighbors"] = [frac_str(vm), frac_str(vp)]
    if args.n is not None:
        payload["interval"] = quotient_interval(x, args.n).to_jsonable()
    rows = [{"k": i, "convergent": frac_str(c)} for i, c in enumerate(conv)]
    return 0, payload, rows


# --------------------------------------------------------------- audit-all


AUDIT_ITEMS: list[Callable[[int, str | None], dict]] = []


def audit_item(name: str, description: str):
    """Register the decorated body as the next line item of `audit-all`.

    The body is called as body(rng, fault) and yields `ok or witness` per
    check, so a witness string is formatted only on failure; rng is seeded
    by "<seed>:<name>", so an item's draws depend on its name and not on
    its place in the corpus.  The registered item takes (seed, fault),
    counts the checks and the failures (values other than True), and
    returns the item's report row with the witness of its first failure.
    """
    def register(body):
        @functools.wraps(body)
        def item(seed: int, fault: str | None) -> dict:
            checks = failures = 0
            witness = None
            for result in body(random.Random(f"{seed}:{name}"), fault):
                checks += 1
                if result is not True:
                    failures += 1
                    if witness is None:
                        witness = result
            return {"name": name, "description": description, "checks": checks,
                    "failures": failures, "pass": failures == 0, "witness": witness}

        AUDIT_ITEMS.append(item)
        return item

    return register


def _random_targets(rng: random.Random, count: int):
    out = []
    while len(out) < count:
        den = rng.randint(5, 60)
        out.append(RatPoint(
            Fraction(rng.randint(1, den - 1), den),
            Fraction(rng.randint(1, den - 1), den),
        ))
    return out


def _random_vectors(rng: random.Random, count: int, q_max: int = 500):
    out = []
    while len(out) < count:
        q = rng.randint(2, q_max)
        p1, p2 = rng.randint(0, q), rng.randint(0, q)
        if math.gcd(p1, p2, q) == 1:
            out.append(PrimVec(p1, p2, q))
    return out


@audit_item("best-approx-records",
            "record heights strictly increase while residuals strictly decrease")
def item_best_approx_records(rng, fault):
    for x in _random_targets(rng, 12):
        seq = best_approximations(x, 400)
        for a, b in zip(seq.items, seq.items[1:]):
            yield not a.q >= b.q or f"heights stall at {a} -> {b}"
        for a, b in zip(seq.residuals, seq.residuals[1:]):
            yield not a <= b or f"residual rises near {frac_str(b)}"


@audit_item("best-approx-realiser",
            "each record realises its height minimum with lexicographic ties")
def item_best_approx_realiser(rng, fault):
    targets = [RatPoint(Fraction(1, 2), Fraction(1, 2))] + _random_targets(rng, 8)
    pick = max if fault == "tie-break" else min
    for x in targets:
        seq = best_approximations(x, 200)
        for v in seq.items:
            _, realisers = height_minimum(x, v.q)
            expected = pick(realisers)
            yield (
                (v.p1, v.p2) == expected
                or f"target ({frac_str(x.x1)},{frac_str(x.x2)}) height "
                f"{v.q}: tie resolved to ({v.p1},{v.p2}), "
                f"expected ({expected[0]},{expected[1]})"
            )


@audit_item("profile-alternation",
            "profile breakpoints strictly interleave minima and crossings")
def item_profile_alternation(rng, fault):
    for x in _random_targets(rng, 10):
        prof = wx_profile(best_approximations(x, 300))
        bps = prof.breakpoints
        for a, b in zip(bps, bps[1:]):
            yield (a.T < b.T and a.kind != b.kind
                   or f"breakpoints collide at T={frac_str(b.T)}")


@audit_item("profile-crossings",
            "local maxima of the envelope sit exactly at successor heights")
def item_profile_crossings(rng, fault):
    for x in _random_targets(rng, 10):
        prof = wx_profile(best_approximations(x, 300))
        for bp in prof.breakpoints:
            if bp.kind == "max":
                yield (prof.value_at(bp.T) == Fraction(bp.height)
                       or f"crossing value off at T={frac_str(bp.T)}")


@audit_item("lattice-minima-agreement",
            "reduced shortest pair matches the brute-force scan")
def item_lattice_minima_agreement(rng, fault):
    for v in _random_vectors(rng, 40):
        yield (lattice_minima(v) == scan_minima(v)
               or f"reduced pair disagrees with scan at {v}")


@audit_item("wedge-constraint",
            "both minima classes satisfy the defining linear constraint")
def item_wedge_constraint(rng, fault):
    for v in _random_vectors(rng, 40):
        l, h = lattice_minima(v)
        for w in (l, h):
            yield (wedge_constraint_ok(w, v)
                   or f"class {w} violates the constraint at {v}")


@audit_item("distortion-identities",
            "distortion and clock invariants satisfy their defining identities")
def item_distortion_identities(rng, fault):
    for v in _random_vectors(rng, 40):
        iv = invariants(v)
        yield (
            iv.eps3 == Fraction(iv.absL**2, v.q)
            and iv.exp3tau == Fraction(v.q**2, iv.absL)
            and iv.eps3 * iv.exp3tau == iv.absL * v.q
            and iv.absL <= iv.absLhat
            or f"invariant identities fail at {v}"
        )


@audit_item("companion-pair",
            "companions of the shortest class realise that class as a wedge")
def item_companion_pair(rng, fault):
    for v in _random_vectors(rng, 25):
        l, _ = lattice_minima(v)
        um, up = companion_pair(v, l)
        for u in (um, up):
            w = wedge(v, u)
            yield (not (abs(w.m13) != abs(l.m13) or abs(w.m23) != abs(l.m23))
                   or f"companion wedge differs from class at {v}")


@audit_item("domain-sandwich",
            "inner and outer balls bracket domain membership on grids")
def item_domain_sandwich(rng, fault):
    for v in _random_vectors(rng, 15, q_max=120):
        rep = audit_ball_sandwich(v)
        yield rep["pass"] or f"ball sandwich fails at {v}"


@audit_item("domain-band",
            "descendant vectors land in the half-open distortion band")
def item_domain_band(rng, fault):
    eps = Fraction(1, 8)
    seed_vec = pvec(0, 0, 1)
    for _, ch in slot_children(seed_vec, eps):
        absL = absL_from_wedge(ch, seed_vec)
        yield (cube_below(absL, ch.q, eps) and not cube_below(absL, ch.q, eps / 2)
               or f"child {ch} leaves the distortion band")


@audit_item("sibling-spacing",
            "all sibling domains clear the spacing floor pairwise")
def item_sibling_spacing(rng, fault):
    eps = Fraction(1, 8)
    seed_vec = pvec(0, 0, 1)
    kids = [v for _, v in slot_children(seed_vec, eps)]
    for i in range(len(kids)):
        for j in range(i + 1, len(kids)):
            yield (verify_spacing(seed_vec, kids[i], kids[j], eps)["ok"]
                   or f"siblings {kids[i]},{kids[j]} too close")


@audit_item("nested-domains", "chain domains nest strictly with positive slack")
def item_nested_domains(rng, fault):
    chain = fixed_chain(pvec(0, 0, 1), Fraction(1, 8), 3)
    vs = chain.vectors()
    for u, v in zip(vs, vs[1:]):
        yield nesting_ok(u, v)["ok"] or f"domain of {v} escapes {u}"


@audit_item("height-growth",
            "distorted parents grow height by the sixth-power factor")
def item_height_growth(rng, fault):
    chain = fixed_chain(pvec(0, 0, 1), Fraction(1, 8), 3)
    vs = chain.vectors()
    for u, v in zip(vs, vs[1:]):
        rep = growth_ok(u, v, Fraction(1, 8))
        if rep["applicable"]:
            yield rep["ok"] or f"edge {u}->{v} grows too slowly"
    yield (vs[2].q > 8**6 * vs[1].q
           or "second extension misses the sixth-power factor")


@audit_item("schedule-regularity",
            "regularised step schedules stay below target with bounded steps")
def item_schedule_regularity(rng, fault):
    sched = regularize_schedule(lambda s: Fraction(s), 1, Fraction(2))
    rep = sched.verify()
    for k in ("below_target", "nondecreasing", "slope_ok"):
        yield rep[k] or f"schedule verify flags: {rep}"


@audit_item("slow-step-gaps",
            "minimal slow successors land at frozen heights with small gaps")
def item_slow_step_gaps(rng, fault):
    for eps_p, q_expected in ((Fraction(1, 2), 9), (Fraction(1, 8), 513)):
        v, gaps = slow_step(pvec(0, 0, 1), eps_p)
        yield (not (v.q != q_expected or abs(gaps["log_eps_gap"]) > 0.05)
               or f"slow step at {frac_str(eps_p)} lands on {v}")


@audit_item("cantor-dimension",
            "exact Cantor dimension is monotone and matches covering estimates")
def item_cantor_dimension(rng, fault):
    yield (not abs(cantor_exact_dim(1).s - 1.0) > 1e-12
           or "undistorted construction misses dimension one")
    prev = 0.0
    for k in range(1, 11):
        d = Fraction(k, 10)
        s = cantor_exact_dim(d).s
        yield not s <= prev or f"dimension not increasing at delta={d}"
        prev = s
    est = covering_s_estimate(cantor_tree(Fraction(1, 2), 4)).s
    yield (not abs(est - cantor_exact_dim(Fraction(1, 2)).s) > 1e-9
           or "covering estimate drifts from the exact root")


@audit_item("bounds-crossing",
            "density and gap dimension bounds cross at the frozen point")
def item_bounds_crossing(rng, fault):
    rep = bounds_crossing()
    yield (not abs(rep["delta"] - 0.2726604) > 1e-6
           or f"crossing delta={rep['delta']!r}")
    yield not abs(rep["h"] - 0.3478475) > 1e-6 or f"crossing height={rep['h']!r}"


@audit_item("dn-brackets",
            "quotient-level dimension brackets order and shrink in the level")
def item_dn_brackets(rng, fault):
    prev_minus = prev_plus = None
    for n in (72, 100, 1000, 10**6):
        s_minus, s_plus = dn_bounds(n)
        yield 0.5 < s_minus.s < s_plus.s < 1.0 or f"brackets out of order at N={n}"
        if prev_minus is not None:
            yield (s_minus.s < prev_minus and s_plus.s < prev_plus
                   or f"brackets not shrinking at N={n}")
        prev_minus, prev_plus = s_minus.s, s_plus.s


@audit_item("quotient-intervals",
            "neighbor fractions and quotient intervals satisfy exact identities")
def item_quotient_intervals(rng, fault):
    for _ in range(12):
        den = rng.randint(3, 80)
        num = rng.randint(1, den - 1)
        v = Fraction(num, den)
        if math.gcd(num, den) != 1:
            continue
        vm, vp = neighbors(v)
        yield (
            vm.denominator + vp.denominator == den
            and vp.numerator * den - num * vp.denominator == 1
            and quotient_interval(v, 72).contains_point(v)
            or f"neighbor identities fail at {v}"
        )
    rep = dn_gap_audit(Fraction(1, 2), 72)
    yield (rep["nested"] and rep["disjoint"] and rep["gaps_ok"]
           or "gap audit fails for the half family")


@audit_item("shortest-vector-duality",
            "reduction-based shortest vectors match the scanning oracle")
def item_shortest_vector_duality(rng, fault):
    for _ in range(12):
        den = rng.randint(7, 120)
        x = RatPoint(
            Fraction(rng.randint(1, den - 1), den),
            Fraction(rng.randint(1, den - 1), den),
        )
        t_val = Fraction(rng.randint(2, 2500))
        yield (
            shortest_vector_oracle(x, t_val)[1] == shortest_vector_reduced(x, t_val)[1]
            or f"oracles disagree at T={t_val}"
        )


def cmd_audit_all(args) -> tuple[int, dict, list[dict] | None]:
    fault = args.inject_fault
    results = [item(args.seed, fault) for item in AUDIT_ITEMS]
    total_checks = sum(r["checks"] for r in results)
    total_failures = sum(r["failures"] for r in results)
    payload = {
        "seed": args.seed,
        "fault": fault,
        "items": results,
        "total_checks": total_checks,
        "total_failures": total_failures,
        "pass": total_failures == 0,
    }
    return (0 if total_failures == 0 else 1), payload, results


# ----------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diophlab",
        description="Exact simultaneous-approximation toolkit for planar targets.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=list(FORMATS), default="json",
        help="output format (default: json)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("best-approx", parents=[common],
                       help="record-breaking approximations to a rational target")
    p.add_argument("--x", required=True, help="target point 'x1,x2', e.g. 1/2,1/2")
    p.add_argument("--qmax", type=int, required=True, help="height bound")
    p.set_defaults(handler=cmd_best_approx)

    p = sub.add_parser("profile", parents=[common],
                       help="piecewise-linear minima profile of a target")
    p.add_argument("--x", required=True, help="target point 'x1,x2'")
    p.add_argument("--qmax", type=int, required=True, help="height bound")
    p.add_argument("--samples", type=int, default=0,
                   help="optionally sample (t, W) pairs across the window")
    p.set_defaults(handler=cmd_profile)

    p = sub.add_parser("invariants", parents=[common],
                       help="shortest-class invariants of one primitive vector")
    p.add_argument("--v", required=True, help="vector 'p1,p2,q'")
    p.set_defaults(handler=cmd_invariants)

    p = sub.add_parser("domain", parents=[common],
                       help="approximation domain bounds and membership")
    p.add_argument("--v", required=True, help="vector 'p1,p2,q'")
    p.add_argument("--x", default=None, help="optional point to test membership")
    p.set_defaults(handler=cmd_domain)

    p = sub.add_parser("psi-tree", parents=[common],
                       help="expand and audit a self-similar descendant tree")
    p.add_argument("--seed-vec", default="0,0,1", help="root vector 'p1,p2,q'")
    p.add_argument("--eps", default="1/8", help="distortion bound, e.g. 1/8")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--expand", type=int, default=5,
                   help="children recursively expanded per node")
    p.add_argument("--width", type=int, default=50,
                   help="children materialised per node")
    p.add_argument("--family", type=int, default=1, help="branching family size")
    p.set_defaults(handler=cmd_psi_tree)

    p = sub.add_parser("slow-chain", parents=[common],
                       help="chain tracking a prescribed decay profile")
    p.add_argument("--seed-vec", default="67,1,1000", help="seed 'p1,p2,q'")
    p.add_argument("--target", choices=["log1p", "const"], default="log1p")
    p.add_argument("--level", type=float, default=-2.0,
                   help="profile level for --target const")
    p.add_argument("--delta", default="1", help="schedule step bound")
    p.add_argument("--steps", type=int, default=15)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(handler=cmd_slow_chain)

    p = sub.add_parser("dims", parents=[common],
                       help="dimension values and bound crossings")
    p.add_argument("action", choices=["cantor", "bounds", "crossing"])
    p.add_argument("--delta", default=None, help="distortion parameter in (0,1]")
    p.add_argument("--depth", type=int, default=0,
                   help="also estimate from a covering tree of this depth "
                   f"(at most {MAX_TREE_DEPTH})")
    p.set_defaults(handler=cmd_dims)

    p = sub.add_parser("dn", parents=[common],
                       help="dimension brackets for divergent quotient levels")
    p.add_argument("--n", type=int, required=True, help="quotient level N >= 72")
    p.add_argument("--root", default=None,
                   help="optionally audit the interval family at this fraction")
    p.set_defaults(handler=cmd_dn)

    p = sub.add_parser("cf", parents=[common],
                       help="continued-fraction convergents and intervals")
    p.add_argument("--x", required=True, help="rational 'num/den'")
    p.add_argument("--n", type=int, default=None,
                   help="also emit the quotient interval at this level")
    p.set_defaults(handler=cmd_cf)

    p = sub.add_parser("audit-all", parents=[common],
                       help="run the consolidated invariant audit corpus")
    # a string default goes through type only when --seed is absent
    p.add_argument("--seed", type=int, default=os.environ.get("DIOPHLAB_SEED", "0"),
                   help="RNG seed; DIOPHLAB_SEED overrides the default 0")
    p.add_argument("--inject-fault", choices=["tie-break"], default=None,
                   help="corrupt one checked rule to prove the audit bites")
    p.set_defaults(handler=cmd_audit_all)

    # exact option names only: '--seed' must not stand for '--seed-vec'
    for p in sub.choices.values():
        p.allow_abbrev = False
    return ap


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return ex.code if isinstance(ex.code, int) else 2
    try:
        code, payload, rows = args.handler(args)
    except (ValueError, ZeroDivisionError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except RuntimeError as ex:
        # a construction failed its own audit: the message is the witness
        print(f"error: {ex}", file=sys.stderr)
        return 1
    sys.stdout.write(emit(payload, args.format, rows))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
