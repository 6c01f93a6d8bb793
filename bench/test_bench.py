"""Checks of the benchmark itself; run from the repository root with

    python3 -m pytest bench

They take about half a minute: the traced runs execute real workload passes.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
README_TREE = workloads.POOLS["tree"][0][0][0]


@pytest.fixture(autouse=True)
def at_repo_root(monkeypatch):
    monkeypatch.chdir(REPO)


def _trace(argv):
    out, _ = run.trace_child(["--", *argv], timeout=170)
    assert out is not None
    return out


def test_every_drawable_operation_has_a_golden_output():
    golden = workloads.load_golden()
    assert sorted(workloads.op_key(op) for op in workloads.all_ops()) == sorted(golden)


def test_seed_fixes_the_operations():
    def first(workload, seed, n=3):
        gen = workloads.passes(workload, seed)
        return [next(gen) for _ in range(n)]

    for workload in workloads.POOLS:
        assert first(workload, 7) == first(workload, 7)
    assert first("scan", 7) != first("scan", 8)


def test_workload_names_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.POOLS)


def test_readme_tree_counts():
    """14,043 lattice_minima calls on 1,551 distinct vectors, as profiled."""
    assert README_TREE[README_TREE.index("--eps") + 1] == "1/8"
    out = _trace(README_TREE)
    calls = sum(c for _, name, c, _, _ in out["spans"] if name == "latinv.lattice_minima")
    assert calls == 14043
    assert out["counts"]["latinv.lattice_minima.distinct"] == 1551


def test_traced_counters_repeat_exactly():
    golden = workloads.load_golden()
    first = run.traced_run("audit", 3, golden, [])
    second = run.traced_run("audit", 3, golden, [])
    assert first[:2] == second[:2] == (6, 0)
    counters = [name for name, (_, unit) in first[2].items()
                if unit in ("count", "bytes")]
    assert len(counters) > 30
    assert {n: first[2][n] for n in counters} == {n: second[2][n] for n in counters}
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(first[2]) == names


def test_timed_run_reports_the_end_to_end_metrics(capsys):
    assert run.main(["--workload", "audit", "--seed", "1", "--seconds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["seed"] == 1 and record["runs"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "tree", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert res.returncode != 0
    assert res.stdout == ""
