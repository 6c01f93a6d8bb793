"""Seeded CLI operations for the benchmark workloads, and the golden check.

Every workload draws its operations from fixed, finite pools, so each
operation the benchmark can ever run has a golden exit code and stdout
digest in ``golden.json``, recorded from the program at the commit that
defined the benchmark.  The benchmark seed only permutes the pools: pass k
of a run takes entry k of each permutation, so a run sees as many
different inputs as it makes passes and repeats none until a pool is used
up.  The program itself receives nothing but the generated arguments.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
PACKAGE_DIR = Path("src") / "diophlab"

# psi-tree at the README shape; each of these gives 1,551 nodes.
README_EPS = ("1/8", "1/9", "1/10", "1/12", "3/25")
# slow-chain sample count: enough reductions that they dominate the run
# (97% of its time) while one pass stays near five seconds.
CHAIN_SAMPLES = 40
AUDIT_SEEDS_PER_PASS = 3
AUDIT_SEED_GROUPS = 8


def _primitive(a: int, b: int, c: int) -> bool:
    return math.gcd(math.gcd(a, b), c) == 1


def _random_primitive(rng: random.Random, q_lo: int, q_hi: int) -> str:
    while True:
        q = rng.randint(q_lo, q_hi)
        p1, p2 = rng.randrange(q), rng.randrange(q)
        if _primitive(p1, p2, q):
            return f"{p1},{p2},{q}"


def _tree_pools() -> list[list[list[list[str]]]]:
    readme = [
        [["psi-tree", "--seed-vec", "0,0,1", "--eps", eps, "--depth", "3",
          "--width", "50", "--expand", "5"]]
        for eps in README_EPS
    ]
    # Small roots other than (0,0,1).  Most of them fail the growth check
    # on every depth-2 edge (defect D3); the golden pins exit code 1 and the
    # report, so the defect stays visible without failing the gate.
    roots = [
        [["psi-tree", "--seed-vec", f"{p1},{p2},{q}", "--depth", "2"]]
        for q in range(3, 7)
        for p1 in range(1, q)
        for p2 in range(p1, q)
        if _primitive(p1, p2, q)
    ]
    return [readme, roots]


def _chain_pools() -> list[list[list[list[str]]]]:
    rng = random.Random("bench:chain")
    seeds = [_random_primitive(rng, 500, 2000) for _ in range(12)]
    log1p = [
        [["slow-chain", "--seed-vec", s, "--target", "log1p",
          "--samples", str(CHAIN_SAMPLES)]]
        for s in seeds
    ]
    const = [
        [["slow-chain", "--seed-vec", s, "--target", "const",
          "--samples", str(CHAIN_SAMPLES)]]
        for s in seeds
    ]
    return [log1p, const]


def _scan_pools() -> list[list[list[list[str]]]]:
    rng = random.Random("bench:scan")
    targets = []
    while len(targets) < 12:
        d = 10**6 + rng.randrange(1000)
        a, b = rng.randrange(1, d), rng.randrange(1, d)
        if _primitive(a, b, d):
            # qmax = d: the scan runs every height and stops at the exact hit.
            targets.append([["best-approx", "--x", f"{a}/{d},{b}/{d}",
                             "--qmax", str(d)]])
    domains = [
        [["domain", "--v", _random_primitive(rng, 9500, 10500)]]
        for _ in range(12)
    ]
    return [targets, domains]


def _audit_pools() -> list[list[list[list[str]]]]:
    groups = [
        [["audit-all", "--seed", str(AUDIT_SEEDS_PER_PASS * g + i)]
         for i in range(AUDIT_SEEDS_PER_PASS)]
        for g in range(AUDIT_SEED_GROUPS)
    ]
    return [groups]


POOLS = {
    "tree": _tree_pools(),
    "chain": _chain_pools(),
    "scan": _scan_pools(),
    "audit": _audit_pools(),
}


def passes(workload: str, seed: int):
    """Yield the operation list of each pass of one run, forever."""
    rng = random.Random(f"{workload}:{seed}")
    orders = [rng.sample(pool, len(pool)) for pool in POOLS[workload]]
    for k in itertools.count():
        yield [op for order in orders for op in order[k % len(order)]]


def all_ops() -> list[list[str]]:
    """Every operation any workload can draw, each once."""
    seen = {}
    for pools in POOLS.values():
        for pool in pools:
            for entry in pool:
                for op in entry:
                    seen.setdefault(op_key(op), op)
    return list(seen.values())


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DIOPHLAB_SEED"}
    env["PYTHONPATH"] = "src"
    return env


@dataclass
class OpResult:
    argv: list[str]
    code: int | None  # None when the operation timed out
    stdout: bytes
    stderr: bytes
    wall_s: float

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()

    def failure(self, golden: dict | None) -> str | None:
        return gate(self.argv, self.code, self.digest, self.stderr, golden)


def gate(argv: list[str], code: int | None, digest: str, stderr: bytes,
         golden: dict | None) -> str | None:
    """Why one run of an operation fails the correctness gate, or None.

    With golden None only the checks that need no golden output apply.
    """
    if code is None:
        return "timed out"
    if b"Traceback (most recent call last)" in stderr:
        return "printed a traceback"
    if code == 2:
        return "exited 2"
    if golden is None:
        return None
    want = golden.get(op_key(argv))
    if want is None:
        return "no golden output"
    if code != want["exit"]:
        return f"exit {code}, golden {want['exit']}"
    if digest != want["sha256"]:
        return "stdout differs from golden"
    return None


def run_cli(argv: list[str], timeout: float) -> OpResult:
    """Run one CLI invocation as a user would and time it end to end."""
    cmd = [sys.executable, "-m", "diophlab.cli", *argv]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, env=cli_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            code = None
    return OpResult(argv, code, out, err, time.perf_counter() - t0)


def source_digest() -> str:
    """sha256 over the package sources, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()
