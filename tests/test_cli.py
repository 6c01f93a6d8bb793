"""End-to-end checks of the command-line interface: exit codes, output
formats, schema conformance, determinism, and the fault-injection path."""

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diophlab.cli import AUDIT_ITEMS, build_parser, run

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"
BENCH_GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def load_schema(name):
    with open(SCHEMA_DIR / f"{name}.json") as fh:
        return json.load(fh)


def test_best_approx_frozen_example(capsys):
    code, doc = run_json(
        capsys, ["best-approx", "--x", "1/2,1/2", "--qmax", "10"]
    )
    assert code == 0
    assert len(doc["items"]) == 2
    assert doc["items"][0] == {
        "p1": 0, "p2": 0, "q": 1,
        "residual": "1/2", "residual_float": 0.5,
    }
    assert doc["items"][1]["q"] == 2
    assert doc["items"][1]["residual"] == "0/1"
    assert doc["exact_hit"] is True


def test_best_approx_tie_is_lex_smallest(capsys):
    # all four numerator pairs tie at height 1; (0,0) must win
    _, doc = run_json(capsys, ["best-approx", "--x", "1/2,1/2", "--qmax", "3"])
    assert (doc["items"][0]["p1"], doc["items"][0]["p2"]) == (0, 0)


def test_dims_cantor_delta_one(capsys):
    code, doc = run_json(capsys, ["dims", "cantor", "--delta", "1"])
    assert code == 0
    assert doc["s"] == pytest.approx(1.0, abs=1e-12)


def test_dims_crossing_frozen(capsys):
    code, doc = run_json(capsys, ["dims", "crossing"])
    assert code == 0
    assert doc["delta"] == pytest.approx(0.2726604, abs=1e-6)
    assert doc["h"] == pytest.approx(0.3478475, abs=1e-6)


def test_dims_bounds(capsys):
    # the two bounds trade places on either side of the crossing point
    code, doc = run_json(capsys, ["dims", "bounds", "--delta", "1/4"])
    assert code == 0
    assert 0 < doc["density"] < doc["gap"] <= 1
    _, doc = run_json(capsys, ["dims", "bounds", "--delta", "3/10"])
    assert 0 < doc["gap"] < doc["density"] <= 1


def test_dims_delta_below_float_range(capsys):
    # 1e-400 is in range though float() of it is 0.0; the root of
    # 2^s = 1 + delta^s is near 0.006, where 10^(-400 s) is an ordinary float
    code, doc = run_json(capsys, ["dims", "cantor", "--delta", "1e-400"])
    assert code == 0 and doc["within_tolerance"]
    s = doc["s"]
    assert 0.005 < s < 0.007
    assert abs((2**s - 1) - 10 ** (-400 * s)) < 1e-12
    code, doc = run_json(capsys, ["dims", "bounds", "--delta", "1e-400"])
    assert code == 0
    gap = math.log(2) / (math.log(2) + 400 * math.log(10))
    assert doc["gap"] == pytest.approx(gap, rel=1e-12)
    assert 0 <= doc["density"] < doc["gap"] < s


@pytest.mark.parametrize("argv", [
    ["psi-tree", "--seed-vec", "0,0,1", "--eps", "1/8", "--depth", "3",
     "--width", "50", "--expand", "5"],
    ["audit-all", "--seed", "0"],
    ["audit-all", "--seed", "23"],
    ["psi-tree", "--seed-vec", "1,1,3", "--depth", "2"],
    ["slow-chain", "--seed-vec", "103,233,541", "--target", "const",
     "--samples", "40"],
    ["best-approx", "--x", "208202/1000640,741375/1000640", "--qmax", "1000640"],
    ["domain", "--v", "1395,10058,10448"],
], ids=["readme-tree", "audit-all-seed-0", "audit-all-seed-23", "small-root-tree",
        "slow-chain-const", "best-approx-million", "domain-ten-thousand"])
def test_readme_tree_matches_bench_golden(capsys, argv):
    # one op from each benchmark pool prints exactly the bytes pinned by
    # the benchmark: every count, witness and the item order (the small
    # root tree exits 1 by defect D3, as recorded)
    with open(BENCH_GOLDEN) as fh:
        want = json.load(fh)[" ".join(argv)]
    code = run(argv)
    out = capsys.readouterr().out.encode()
    assert code == want["exit"]
    assert hashlib.sha256(out).hexdigest() == want["sha256"]


def test_usage_errors_exit_two(capsys):
    assert run(["best-approx", "--x", "bogus", "--qmax", "5"]) == 2
    assert run(["invariants", "--v", "0,0,0"]) == 2
    assert run(["dims", "cantor"]) == 2  # missing --delta
    assert run(["dn", "--n", "10"]) == 2  # level below the supported floor
    # a slow-chain certificate needs a nonempty window and two samples
    for argv in (["--samples", "0"], ["--samples", "1"],
                 ["--steps", "0"], ["--steps", "1"], ["--steps", "2"]):
        assert run(["slow-chain", *argv]) == 2, argv
    # a negative sweep size or tree size, and an infinite target level
    assert run(["domain", "--v", "1,2,5", "--rejects", "-1"]) == 2
    assert run(["slow-chain", "--target", "const", "--level", "inf"]) == 2
    assert run(["psi-tree", "--expand", "-1"]) == 2
    assert run(["psi-tree", "--width", "-1"]) == 2
    assert run(["psi-tree", "--depth", "-1"]) == 2
    # --seed and --jobs belong to audit-all alone
    assert run(["psi-tree", "--seed", "1"]) == 2
    assert run(["cf", "--x", "1/2", "--jobs", "2"]) == 2
    # a tolerance and a worker count must be positive
    for argv in (["dims", "crossing", "--tol=0"], ["dims", "crossing", "--tol=nan"],
                 ["dn", "--n", "72", "--tol=-1"], ["audit-all", "--jobs", "0"]):
        assert run(argv) == 2, argv
    capsys.readouterr()
    # the parser's error names the type it expected, not its converter
    assert run(["dims", "crossing", "--tol=x"]) == 2
    assert "invalid float value: 'x'" in capsys.readouterr().err
    # a delta beyond float range is out of range, not an overflow
    assert run(["dims", "cantor", "--delta", "1e400"]) == 2
    assert run(["dims", "bounds", "--delta", "1e400"]) == 2
    # a tiny eps is a usage error, not an overflow or a runaway tree
    assert run(["psi-tree", "--seed-vec", "0,0,1", "--eps", "1e-200",
                "--depth", "1", "--width", "2"]) == 2
    capsys.readouterr()
    # extreme constant levels: a schedule of too many knots, an exponent
    # too large to raise exactly, heights too long to print; a tree whose
    # heights would run to thousands of digits; and a covering tree that
    # doubles with each of its 40 levels.  Each is one error line, within
    # seconds
    errs = []
    for argv in (
        ["slow-chain", "--target", "const", "--level=-1e-300", "--steps", "3",
         "--samples", "2"],
        ["slow-chain", "--target", "const", "--level=-1e300", "--steps", "3",
         "--samples", "2"],
        ["slow-chain", "--target", "const", "--level=-3000", "--steps", "3",
         "--samples", "2"],
        ["psi-tree", "--seed-vec=-5,-4,13", "--eps=1e-400"],
        ["dims", "cantor", "--delta", "1/2", "--depth", "40"],
    ):
        start = time.perf_counter()
        assert run(argv) == 2, argv
        assert time.perf_counter() - start < 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        errs.append(err)
    # the heights too long to print are blamed on the option, not on int
    assert "--level" in errs[2] and "4300 digits" in errs[2], errs[2]


def test_failed_chain_edge_exits_one_naming_the_edge(capsys):
    # the seed's first slow step does not nest: an audit failure, exit 1,
    # reported as one line that names the edge, with no traceback
    code = run(["slow-chain", "--seed-vec", "1,1,2", "--steps", "3", "--samples", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("error: edge ((1,1),2) -> ") and err.count("\n") == 1


# Number fields mix plain values with ones that break float conversion or
# parsing.
NUMBER = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.fractions(max_denominator=10**4).map(str),
    st.sampled_from(["1e400", "-1e400", "1e-400", "nan", "inf", "1/0", "0.5", "x"]),
)


def _csv(*fields):
    return st.tuples(*fields).map(lambda t: ",".join(map(str, t)))


POINT = _csv(NUMBER, NUMBER)
SMALL_VEC = _csv(st.integers(-20, 20), st.integers(-20, 20), st.integers(-3, 60))
BIG_VEC = _csv(*[st.integers(-10**6, 10**6)] * 3)


def _argv(head, required=None, **optional):
    """The head words, every required option, and each optional one drawn
    or left out.  Values go in as '--opt=value' so negative ones reach the
    handler rather than the option parser."""
    def opt(name, values):
        return values.map(lambda v: [f"--{name}={v}"])

    optional = {"format": st.sampled_from(["json", "tsv", "table"]), **optional}
    parts = [st.just(head)]
    parts += [opt(k, s) for k, s in (required or {}).items()]
    parts += [st.one_of(st.just([]), opt(k, s)) for k, s in optional.items()]
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


CHEAP_ARGV = st.one_of(
    # depths past the tree cap must end as usage errors, not run away
    _argv(["dims", "cantor"], delta=NUMBER,
          depth=st.one_of(st.integers(-2, 6), st.integers(13, 60)), tol=NUMBER),
    _argv(["dims", "bounds"], delta=NUMBER, tol=NUMBER),
    _argv(["dims", "crossing"], tol=NUMBER),
    _argv(["cf"], {"x": NUMBER}, n=st.integers(-5, 2000)),
    # N stays small: 'dn --root' builds about 2N children
    _argv(["dn"], {"n": st.integers(-5, 2000)}, root=NUMBER, tol=NUMBER),
    _argv(["invariants"], {"v": BIG_VEC}),
    _argv(["best-approx"], {"x": POINT, "qmax": st.integers(-3, 10**9)},
          norm=st.sampled_from(["sup", "euclid"])),
    _argv(["profile"], {"x": POINT, "qmax": st.integers(-3, 10**9)},
          samples=st.integers(-2, 6)),
    _argv(["domain"], {"v": SMALL_VEC}, x=POINT, rejects=st.integers(-2, 40)),
    # sizes are always drawn: the default trees and chains take seconds,
    # and at eps 1e-400 the default tree takes minutes
    _argv(["psi-tree"], {"seed-vec": SMALL_VEC, "depth": st.integers(0, 1),
                         "width": st.integers(0, 4), "expand": st.integers(0, 2),
                         "family": st.integers(1, 2)}, eps=NUMBER),
    _argv(["slow-chain", "--target", "log1p"],
          {"seed-vec": SMALL_VEC, "steps": st.integers(3, 4),
           "samples": st.integers(2, 3)}, delta=NUMBER),
    _argv(["slow-chain", "--target", "const"],
          {"seed-vec": SMALL_VEC, "level": NUMBER, "steps": st.integers(3, 4),
           "samples": st.integers(2, 3)}, delta=NUMBER),
)


@settings(max_examples=200, deadline=None)
@given(argv=CHEAP_ARGV)
def test_run_ends_with_a_contract_exit_code(argv):
    # every input ends in 0, 1 or 2; no exception escapes run()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (0, 1, 2), argv


def test_unknown_subcommand_exits_two(capsys):
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


def test_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("DIOPHLAB_SEED", "7")
    _, doc = run_json(capsys, ["audit-all"])
    assert doc["seed"] == 7
    monkeypatch.delenv("DIOPHLAB_SEED")
    _, doc = run_json(capsys, ["audit-all"])
    assert doc["seed"] == 0


def test_cli_seed_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("DIOPHLAB_SEED", "7")
    _, doc = run_json(capsys, ["audit-all", "--seed", "3"])
    assert doc["seed"] == 3


def test_bad_env_seed_exits_two_unless_seed_given(capsys, monkeypatch):
    monkeypatch.setenv("DIOPHLAB_SEED", "abc")
    assert run(["audit-all"]) == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err
    _, doc = run_json(capsys, ["audit-all", "--seed", "3"])
    assert doc["seed"] == 3


def test_audit_all_pool_has_at_most_one_worker_per_item(capsys, monkeypatch):
    # records the pool size and maps in process, so no worker is started
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, entries):
            return map(fn, entries)

    run(["audit-all", "--seed", "0"])
    serial = capsys.readouterr().out
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    assert run(["audit-all", "--seed", "0", "--jobs", "1000"]) == 0
    assert sizes and max(sizes) <= len(AUDIT_ITEMS), sizes
    assert capsys.readouterr().out == serial


def test_audit_all_passes_and_reruns_identically(capsys):
    code = run(["audit-all", "--seed", "42"])
    first = capsys.readouterr().out
    assert code == 0
    assert run(["audit-all", "--seed", "42"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_audit_all_parallel_output_identical(capsys):
    run(["audit-all", "--seed", "42"])
    serial = capsys.readouterr().out
    run(["audit-all", "--seed", "42", "--jobs", "3"])
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_audit_all_corpus_shape(capsys):
    _, doc = run_json(capsys, ["audit-all", "--seed", "0"])
    assert len(doc["items"]) >= 15
    assert len(doc["items"]) == len(AUDIT_ITEMS)
    names = [item["name"] for item in doc["items"]]
    assert len(set(names)) == len(names)
    for item in doc["items"]:
        assert item["checks"] >= 1
        assert item["failures"] == 0
        assert item["pass"] is True
        assert item["witness"] is None
    assert doc["total_checks"] == sum(i["checks"] for i in doc["items"])
    assert doc["pass"] is True


def test_fault_injection_breaks_realiser_line(capsys):
    code, doc = run_json(
        capsys, ["audit-all", "--seed", "42", "--inject-fault", "tie-break"]
    )
    assert code == 1
    failing = [item for item in doc["items"] if not item["pass"]]
    assert [item["name"] for item in failing] == ["best-approx-realiser"]
    witness = failing[0]["witness"]
    assert "height 1" in witness
    assert "(0,0)" in witness
    assert doc["pass"] is False


def test_audit_failure_exit_code_from_dn(capsys):
    # a clean family audit exits 0; the corpus has no failing fixture, so
    # only the happy path and the injected fault are reachable here
    assert run(["dn", "--n", "72", "--root", "1/2"]) == 0
    capsys.readouterr()


SCHEMA_CASES = [
    ("best-approx", ["best-approx", "--x", "1/2,1/2", "--qmax", "10"]),
    ("profile", ["profile", "--x", "2/7,3/7", "--qmax", "50", "--samples", "5"]),
    ("invariants", ["invariants", "--v", "67,1,1000"]),
    ("domain", ["domain", "--v", "1,1,3", "--x", "1/3,1/3"]),
    ("psi-tree", ["psi-tree", "--depth", "2", "--expand", "2", "--width", "6"]),
    ("slow-chain", ["slow-chain", "--steps", "4", "--samples", "40"]),
    ("dims", ["dims", "cantor", "--delta", "1/2", "--depth", "3"]),
    ("dims", ["dims", "bounds", "--delta", "1/4"]),
    ("dims", ["dims", "crossing"]),
    ("dn", ["dn", "--n", "72", "--root", "1/2"]),
    ("cf", ["cf", "--x", "5/8", "--n", "72"]),
    ("audit-all", ["audit-all", "--seed", "1"]),
]


@pytest.mark.parametrize("schema_name,argv", SCHEMA_CASES)
def test_json_output_matches_schema(capsys, schema_name, argv):
    code, doc = run_json(capsys, argv)
    assert code == 0
    jsonschema.validate(doc, load_schema(schema_name))


def test_every_subcommand_has_a_schema():
    parser = build_parser()
    actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    subcommands = set(actions[-1].choices)
    published = {p.stem for p in SCHEMA_DIR.glob("*.json")}
    assert subcommands == published


def test_tsv_format(capsys):
    code = run(["best-approx", "--x", "1/3,2/3", "--qmax", "5", "--format", "tsv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p1\tp2\tq\tresidual\tresidual_float"
    assert len(lines) == 3
    assert lines[2].split("\t")[:4] == ["1", "2", "3", "0/1"]


def test_table_format_aligns_columns(capsys):
    run(["profile", "--x", "2/7,3/7", "--qmax", "20", "--format", "table"])
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("kind")
    assert len({len(line) for line in lines}) == 1


def test_table_format_scalar_payload(capsys):
    code = run(["invariants", "--v", "1,1,3", "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].split()[:2] == ["key", "value"]


def test_domain_nonmember_reported(capsys):
    _, doc = run_json(capsys, ["domain", "--v", "1,1,3", "--x", "9/10,1/10"])
    assert doc["member"] is False


def test_psi_tree_small_run(capsys):
    code, doc = run_json(
        capsys, ["psi-tree", "--depth", "2", "--expand", "2", "--width", "6"]
    )
    assert code == 0
    assert doc["pass"] is True
    assert doc["depth1_children"] == 6
    assert doc["totals"]["nodes"] == 19
    assert all(v == 0 for v in doc["fails"].values())


def test_psi_tree_without_sibling_pairs(capsys):
    # one child per node: no spacing pair exists, so no spacing ratio
    code, doc = run_json(
        capsys, ["psi-tree", "--depth", "2", "--expand", "1", "--width", "1"]
    )
    assert code in (0, 1)
    assert doc["totals"]["spacing_pairs"] == 0
    assert doc["min_spacing_ratio"] is None
    jsonschema.validate(doc, load_schema("psi-tree"))


def test_slow_chain_certificate(capsys):
    code, doc = run_json(capsys, ["slow-chain", "--steps", "4", "--samples", "40"])
    assert code == 0
    cert = doc["certificate"]
    assert cert["pass"] is True
    assert cert["strictly_decreasing_eps"] is True
    assert len(doc["nodes"]) == 5


def test_slow_chain_const_target(capsys):
    code, doc = run_json(
        capsys,
        ["slow-chain", "--target", "const", "--level", "-2.0",
         "--steps", "4", "--samples", "40"],
    )
    assert code == 0
    assert doc["certificate"]["constant_eps"] is True


def test_profile_samples_emitted(capsys):
    _, doc = run_json(
        capsys, ["profile", "--x", "2/7,3/7", "--qmax", "50", "--samples", "7"]
    )
    assert len(doc["samples"]) == 7
    ts = [row["t"] for row in doc["samples"]]
    assert ts == sorted(ts)


def test_cf_neighbors_and_interval(capsys):
    _, doc = run_json(capsys, ["cf", "--x", "5/8", "--n", "72"])
    assert doc["convergents"][-1] == "5/8"
    assert doc["neighbors"] == ["3/5", "2/3"]
    assert doc["interval"]["N"] == 72


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "diophlab.cli",
         "best-approx", "--x", "1/2,1/2", "--qmax", "10"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["items"]) == 2
