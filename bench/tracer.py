"""Outside-in tracer for one CLI operation, run in a fresh process.

It imports diophlab, wraps the listed public functions of each module from
outside, runs ``cli.run(argv)`` with stdout captured, and prints one JSON
object: the exit code, the stdout digest, the wall time of the call, and
one aggregate per (parent span, span name) holding calls, total time and
self time.  Self time is total time less the time of child spans.  No raw
spans are kept, so a 10^6-height scan costs a few dictionary updates per
call and no memory.

Each operation runs in its own process, as it does from the command line,
so nothing one operation leaves in memory can serve the next.

    PYTHONPATH=src python3 bench/tracer.py [--plain] -- psi-tree --depth 2

``--plain`` runs the same call without wrappers, the baseline for the
tracing overhead.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from collections import Counter

# The spans, by module.  A function is wrapped at every module attribute
# that holds it, because `from .latinv import invariants` copies the
# reference into construct, domains, cli and the package namespace.
SPANS = {
    "latinv": ["lattice_minima", "invariants", "distortion_below", "scan_minima"],
    "bestapprox": [
        "shortest_vector_reduced", "shortest_vector_oracle",
        "height_minimum", "best_approximations", "wx_profile",
    ],
    "domains": ["in_domain", "ball_bounds", "audit_ball_sandwich"],
    "construct": [
        "expansion_tree", "tree_audit", "child_vector", "verify_spacing",
        "nesting_ok", "growth_ok", "admissible_successor", "slow_chain",
        "slow_step",
    ],
    "cfrac": ["dn_gap_audit", "quotient_interval", "neighbors"],
    "dimension": [
        "dn_bounds", "cantor_exact_dim", "covering_s_estimate", "bounds_crossing",
    ],
    "cli": ["emit"],
}
AUDIT_PREFIX = "cli.audit."


class Tracer:
    """Span aggregates keyed by (parent span, span), plus plain counters."""

    def __init__(self):
        self.stack = [["", 0.0]]  # [span name, time spent in child spans]
        self.agg: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.lattice_args: set = set()
        self.installed: list[str] = []

    def span(self, name, fn, observe=None):
        stack, agg, clock = self.stack, self.agg, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                rec = agg.get((parent[0], name))
                if rec is None:
                    rec = agg[(parent[0], name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        self.installed.append(name)
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        from diophlab import cli, core

        holders = [m for n, m in sys.modules.items()
                   if n == "diophlab" or n.startswith("diophlab.")]
        observers = {
            "latinv.lattice_minima": lambda args, _: self.lattice_args.add(args[0]),
            "cli.emit": lambda _, out: self.counts.update({"cli.emit.bytes": len(out)}),
        }
        for module, names in SPANS.items():
            for fn_name in names:
                name = f"{module}.{fn_name}"
                orig = getattr(sys.modules[f"diophlab.{module}"], fn_name)
                _replace(holders, orig, self.span(name, orig, observers.get(name)))
        for i, item in enumerate(cli.AUDIT_ITEMS):
            name = AUDIT_PREFIX + item.__name__.removeprefix("item_")
            cli.AUDIT_ITEMS[i] = self.span(name, item)
            _replace(holders, item, cli.AUDIT_ITEMS[i])
        core.RatPoint.common_denominator = self.counter(
            "core.RatPoint.common_denominator.calls",
            core.RatPoint.common_denominator)

    def report(self) -> dict:
        counts = dict(self.counts)
        counts["latinv.lattice_minima.distinct"] = len(self.lattice_args)
        return {
            "installed": self.installed,
            "spans": [[p, n, *rec] for (p, n), rec in sorted(self.agg.items())],
            "counts": counts,
        }


def _replace(holders, orig, wrapped) -> None:
    for module in holders:
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapped)


def main(argv: list[str]) -> int:
    plain = argv[:1] == ["--plain"]
    if plain:
        argv = argv[1:]
    if argv[:1] != ["--"]:
        print("usage: tracer.py [--plain] -- <diophlab arguments>", file=sys.stderr)
        return 2
    from diophlab import cli

    tracer = Tracer()
    if not plain:
        tracer.install()
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv[1:])
    wall = time.perf_counter() - t0
    out = {
        "exit": code,
        "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
        "wall_s": wall,
    }
    if not plain:
        out.update(tracer.report())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
