"""The benchmark tracer wraps library names from outside, by string: a
renamed or deleted name would only show when the benchmark runs.  These
checks catch it in the fast suite."""

import importlib
import json
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

from diophlab import cli

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    # compiled from source, so no bytecode cache is written beside it
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_span_is_a_library_callable():
    for module, names in load_tracer().SPANS.items():
        lib = importlib.import_module(f"diophlab.{module}")
        for name in names:
            assert callable(getattr(lib, name, None)), f"diophlab.{module}.{name}"


def test_every_audit_item_names_its_span():
    # the tracer names each item's span after __name__ less the 'item_' prefix
    assert cli.AUDIT_ITEMS
    for item in cli.AUDIT_ITEMS:
        assert item.__name__.startswith("item_"), item.__name__


def test_cli_import_loads_every_traced_module():
    # the tracer imports only diophlab.cli (and core), then reads each
    # traced module out of sys.modules and the items off cli.AUDIT_ITEMS;
    # a fresh interpreter shows what that import really loads
    code = ("import sys, diophlab.cli as cli; "
            "print(len(cli.AUDIT_ITEMS), *sorted(sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    items, *loaded = proc.stdout.split()
    assert int(items) > 0
    for module in load_tracer().SPANS:
        assert f"diophlab.{module}" in loaded, f"diophlab.{module}"


def test_tracer_counts_the_edge_predicates():
    # the traced run of a small tree, as the benchmark makes it: the edge
    # rule reads its three predicates through the module names the tracer
    # wraps, once per edge, and growth once per edge below a distorted parent
    root = TRACER.parent.parent
    env = dict(os.environ, PYTHONPATH="src")
    argv = ["psi-tree", "--depth", "2", "--width", "3", "--expand", "1"]
    proc = subprocess.run([sys.executable, str(TRACER), "--", *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, proc.stdout
    calls = Counter()
    for _, name, n, *_ in json.loads(lines[0])["spans"]:
        calls[name] += n
    totals = cli.cmd_psi_tree(cli.build_parser().parse_args(argv))[1]["totals"]
    assert totals["edges"] > 0 and totals["growth_checked"] > 0
    assert calls["construct.admissible_successor"] == totals["edges"]
    assert calls["construct.nesting_ok"] == totals["edges"]
    assert calls["construct.growth_ok"] == totals["growth_checked"]


def test_tracer_counts_one_reduction_per_chain_sample():
    # the chain carries its reduced basis through the public name the
    # tracer wraps: 40 samples are 40 traced calls, and the bytes stay golden
    root = TRACER.parent.parent
    env = dict(os.environ, PYTHONPATH="src")
    argv = ["slow-chain", "--seed-vec", "245,631,1255", "--target", "log1p", "--samples", "40"]
    proc = subprocess.run([sys.executable, str(TRACER), "--", *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, proc.stdout
    report = json.loads(lines[0])
    golden = json.loads((root / "bench" / "golden.json").read_text())[" ".join(argv)]
    assert report["exit"] == golden["exit"] == 0
    assert report["sha256"] == golden["sha256"]
    calls = Counter()
    for _, name, n, *_ in report["spans"]:
        calls[name] += n
    assert calls["bestapprox.shortest_vector_reduced"] == 40


def test_tracer_runs_audit_all():
    # the traced audit-all prints the golden bytes, times all 20 items, and
    # shows calls in each layer whose per-layer numbers its speed rests on
    root = TRACER.parent.parent
    env = {k: v for k, v in os.environ.items() if k != "DIOPHLAB_SEED"}
    env["PYTHONPATH"] = "src"
    argv = ["--", "audit-all", "--seed", "0"]
    proc = subprocess.run([sys.executable, str(TRACER), *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, proc.stdout
    report = json.loads(lines[0])
    golden = json.loads((root / "bench" / "golden.json").read_text())["audit-all --seed 0"]
    assert report["exit"] == golden["exit"] == 0
    assert report["sha256"] == golden["sha256"]
    calls = Counter()
    for _, name, n, *_ in report["spans"]:
        calls[name] += n
    items = {name for name in calls if name.startswith("cli.audit.")}
    assert len(items) == len(cli.AUDIT_ITEMS) == 20, sorted(items)
    for name in ("domains.audit_ball_sandwich", "bestapprox.shortest_vector_oracle",
                 "cfrac.dn_gap_audit", "dimension.bounds_crossing"):
        assert calls[name] > 0, name
