"""diophlab benchmark: seeded CLI workloads timed end to end, or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload tree --seed 1 --seconds 30 --trace 0

With ``--trace 0`` one closed-loop client runs the workload's operations as
``python -m diophlab.cli ...`` processes with ``PYTHONPATH=src``, one at a
time and without ``--jobs``, in passes, until the next pass would end
after ``--seconds``.  Every invocation's exit code and stdout digest are
checked against bench/golden.json; a pass with a failed operation is not
timed, and the run is reported as incorrect.  It reports, for the run:

- wall_s: median wall time of a pass (every operation of the workload),
  at reference host speed (see REFERENCE_START_S);
- setup_s: median wall time of ``diophlab --help``, which does no work
  beyond starting the interpreter, importing diophlab and building the
  parser; two samples before each pass;
- peak_rss_mb: the largest maximum RSS of any child process;
- success_rate: operations that passed the gate over operations attempted,
  that is one less the error rate.

With ``--trace 1`` it runs the seed's first pass in-process instead: each
operation in a fresh process under bench/tracer.py, first plain and then
with every listed function wrapped.  It reports calls and self time per
function, the extra counters, and the tracing overhead.

The next-to-last line of standard output is the run record (commit, source
digest, Python, nproc, load averages, seed, every invocation made); the
last line is the result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from workloads import (
    BENCH_DIR,
    PACKAGE_DIR,
    POOLS,
    cli_env,
    gate,
    load_golden,
    op_key,
    passes,
    run_cli,
    source_digest,
)

SETUP_OP = ["--help"]
SETUP_SAMPLES_PER_PASS = 2
# The speed of a shared host drifts by up to +-20% over tens of seconds, and
# a whole run can fall in a slow or a fast spell.  The time to start a bare,
# isolated interpreter mostly moves with the workload's and cannot be
# changed by the program, so it is timed between passes and wall_s is
# scaled to a host on which that start takes REFERENCE_START_S.  This
# lowers the run-to-run spread of wall_s on average; bench/README.md has
# the measurements.
REFERENCE_CMD = [sys.executable, "-I", "-c", "pass"]
REFERENCE_START_S = 0.05
# Every operation is killed at this many seconds into the run, so a run
# that hangs still ends, and reports the failure, inside three minutes.
HARD_LIMIT_S = 150.0


def git_commit() -> str | None:
    """HEAD of a git checkout in the working directory, without searching
    the directories above it."""
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            env=dict(os.environ, GIT_DIR=".git"), timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _setup_ok(res) -> bool:
    return res.code == 0 and res.stdout.startswith(b"usage: diophlab")


def timed_run(workload: str, seed: int, seconds: int, golden: dict, runs: list):
    t_start = time.perf_counter()

    def remaining() -> float:
        return max(1.0, HARD_LIMIT_S - (time.perf_counter() - t_start))

    # The first start compiles the package to bytecode, as a user's first
    # run does; it is recorded and checked but not timed.
    warm = run_cli(SETUP_OP, remaining())
    runs.append({"op": op_key(SETUP_OP), "role": "warm-up", "exit": warm.code,
                 "wall_s": warm.wall_s, "ok": _setup_ok(warm)})
    attempted, failed = 1, int(not _setup_ok(warm))
    setup, reference, pass_walls = [], [], []
    for ops in passes(workload, seed):
        for _ in range(SETUP_SAMPLES_PER_PASS):
            res = run_cli(SETUP_OP, remaining())
            ok = _setup_ok(res)
            attempted += 1
            failed += not ok
            runs.append({"op": op_key(SETUP_OP), "role": "setup", "exit": res.code,
                         "wall_s": res.wall_s, "ok": ok})
            if ok:
                setup.append(res.wall_s)
            t0 = time.perf_counter()
            subprocess.run(REFERENCE_CMD, check=True)
            reference.append(time.perf_counter() - t0)
            runs.append({"op": "reference", "role": "reference",
                         "wall_s": reference[-1]})
        clean = True
        t_pass = time.perf_counter()
        for argv in ops:
            res = run_cli(argv, remaining())
            why = res.failure(golden)
            attempted += 1
            failed += why is not None
            clean = clean and why is None
            runs.append({"op": op_key(argv), "role": f"pass {len(pass_walls)}",
                         "exit": res.code, "wall_s": res.wall_s, "failure": why})
            if res.code is None:
                break
        pass_wall = time.perf_counter() - t_pass
        runs.append({"role": f"pass {len(pass_walls)}", "wall_s": pass_wall,
                     "clean": clean})
        pass_walls.append((pass_wall, clean))
        elapsed = time.perf_counter() - t_start
        if res.code is None or elapsed + max(w for w, _ in pass_walls) > seconds:
            break
    # With no clean pass the run is incorrect, and wall_s still reports
    # what was measured rather than nothing.
    timed = [w for w, clean in pass_walls if clean] or [w for w, _ in pass_walls]
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "wall_s": (statistics.median(timed) * REFERENCE_START_S
                   / statistics.median(reference), "s"),
        "setup_s": (statistics.median(setup) if setup else warm.wall_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }
    return attempted, failed, metrics


def trace_child(args: list[str], timeout: float) -> tuple[dict | None, bytes]:
    """Run tracer.py on one operation; its report (None if it failed) and stderr."""
    try:
        res = subprocess.run(
            [sys.executable, str(BENCH_DIR / "tracer.py"), *args],
            env=cli_env(), capture_output=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, b""
    if res.returncode != 0:
        return None, res.stderr
    return json.loads(res.stdout.splitlines()[-1]), res.stderr


def traced_run(workload: str, seed: int, golden: dict, runs: list):
    t_start = time.perf_counter()
    ops = next(passes(workload, seed))
    attempted = failed = 0
    plain_wall = traced_wall = 0.0
    spans, counts, installed = {}, {}, []
    for argv in ops:
        for mode in ("plain", "traced"):
            args = (["--plain"] if mode == "plain" else []) + ["--", *argv]
            left = max(1.0, HARD_LIMIT_S - (time.perf_counter() - t_start))
            out, err = trace_child(args, left)
            attempted += 1
            why = ("trace process failed or timed out" if out is None
                   else gate(argv, out["exit"], out["sha256"], err, golden))
            failed += why is not None
            runs.append({"op": op_key(argv), "role": mode,
                         "exit": out and out["exit"],
                         "wall_s": out and out["wall_s"], "failure": why})
            if out is None:
                continue
            if mode == "plain":
                plain_wall += out["wall_s"]
                continue
            traced_wall += out["wall_s"]
            installed = installed or out["installed"]
            for parent, name, calls, total, self_s in out["spans"]:
                rec = spans.setdefault((parent, name), [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
            for name, n in out["counts"].items():
                counts[name] = counts.get(name, 0) + n
    metrics = layer_metrics(installed, spans, counts)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_ratio"] = (
        traced_wall / plain_wall if plain_wall else 0.0, "ratio")
    return attempted, failed, metrics


def layer_metrics(installed: list[str], spans: dict, counts: dict) -> dict:
    calls, total, self_s = {}, {}, {}
    for (_, name), (n, tot, own) in spans.items():
        calls[name] = calls.get(name, 0) + n
        total[name] = total.get(name, 0.0) + tot
        self_s[name] = self_s.get(name, 0.0) + own
    metrics = {}
    for name in installed:
        if name.startswith("cli.audit."):
            metrics[f"{name}.s"] = (total.get(name, 0.0), "s")
        else:
            metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
            metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    svr = "bestapprox.shortest_vector_reduced"
    metrics[f"{svr}.us_per_call"] = (
        1e6 * total.get(svr, 0.0) / calls[svr] if calls.get(svr) else 0.0, "us")
    metrics["latinv.lattice_minima.distinct"] = (
        counts.get("latinv.lattice_minima.distinct", 0), "count")
    metrics["core.RatPoint.common_denominator.calls"] = (
        counts.get("core.RatPoint.common_denominator.calls", 0), "count")
    metrics["domains.in_domain.heights"] = (
        spans.get(("domains.in_domain", "bestapprox.height_minimum"), [0])[0],
        "count")
    metrics["cli.emit.bytes"] = (counts.get("cli.emit.bytes", 0), "bytes")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(POOLS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE_DIR / "cli.py").is_file():
        print(f"error: {PACKAGE_DIR / 'cli.py'} not found; run from the "
              "repository root", file=sys.stderr)
        return 1
    golden = load_golden()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }
    runs: list = []
    if args.trace:
        attempted, failed, metrics = traced_run(args.workload, args.seed, golden, runs)
    else:
        attempted, failed, metrics = timed_run(
            args.workload, args.seed, args.seconds, golden, runs)
    record["loadavg_end"] = os.getloadavg()
    # Asked only now, so that git is not among the children whose peak RSS
    # the timed run reports.
    record["commit"] = git_commit()
    record["runs"] = runs
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
