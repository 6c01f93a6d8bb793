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
import types
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diophlab import construct
from diophlab.cli import AUDIT_ITEMS, build_parser, run
from diophlab.core import pvec

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


@pytest.mark.parametrize("delta,depth,digest", [
    ("1/2", "12", "ac2970c569b0fc35fe8e732af43d40a64d8ec9a526bd45e9fc621069bf8c8e14"),
    ("3/10", "4", "e3d9b6246175df04cd800bf257a3bdd79c1baacb0d6f0038e0ba410e8d568d06"),
])
def test_dims_cantor_tree_estimate_bytes_pinned(capsys, delta, depth, digest):
    # the one CLI path that builds a covering tree: its stdout bytes are
    # frozen, the deepest tree allowed among them
    code = run(["dims", "cantor", "--delta", delta, "--depth", depth])
    out = capsys.readouterr().out.encode()
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == digest


# The README's example commands, `dims bounds`, one tsv and one table
# rendering, and two family trees, whose children each take their own slot
# pair: each subcommand's exit code and stdout bytes, frozen.
SUBCOMMAND_BYTES = [
    ("best-approx --x 1/2,1/2 --qmax 10", 0,
     "64d630b950d644d04dace5cfb94d9159d435dfde01c74fe07dc0d6de1756f6fb"),
    ("profile --x 2/7,3/7 --qmax 50 --samples 9", 0,
     "9677a7c368b9309392c8dde243aea9e5dc939d95175957f6ff6cf547bc14875b"),
    ("invariants --v 67,1,1000", 0,
     "2cb74f7abb593d0afb8f2a83ad565c567828ddd31d91365e34ee5fbd3bdacda7"),
    ("domain --v 1,1,3 --x 1/3,1/3", 0,
     "8cfe56ba8c49933231492430df9717c0ef67ee89b9ee2881e03155597a739a8c"),
    ("psi-tree --eps 1/8 --depth 3 --expand 5 --width 50", 0,
     "5f471ae9cd2607f5e641b98befcf193acf3043492c3c37ef47a26b8ee718621e"),
    ("slow-chain --target log1p --steps 15", 0,
     "fa398322c1e79cbd1b3fb267da310ba93f2c5126c6e6506acc82b96ee9f5b8c5"),
    ("dims cantor --delta 1/2", 0,
     "5955f739f971431e2d3edae94f52593825f20b4ad2086e18493d9447f8b57c06"),
    ("dims crossing", 0,
     "7d398f60844229ef665b02f8fc697c456ef1fe948da14836e82b2aec1754324d"),
    ("dn --n 72 --root 1/2", 0,
     "138d8892023703521b8438662be34ae96b3055eb1140dd9da7e77adeac5f48c3"),
    ("cf --x 5/8 --n 72", 0,
     "7cc785ae37a70dbb60884edeb0d6f1e1224ca33ff35e7d59e91035671dd386c7"),
    ("audit-all --seed 42", 0,
     "bebcf63a7fb71f3b2a9263691fc0290c05fa916348470a93ae1bcac52bb7d88f"),
    ("dims bounds --delta 1/4", 0,
     "1f8908b27aa78a5cbc8f2039f5e467dd82f08101fffc97bb5e781d8e6075f419"),
    ("best-approx --x 1/3,2/3 --qmax 5 --format tsv", 0,
     "0965dfcdca59a790c6cb5a4f870b96bae6748437f9452f0c27d1f4ee3703a535"),
    ("profile --x 2/7,3/7 --qmax 20 --format table", 0,
     "62b6ada519b9458030bc63b7bc83d2ce582979ac2ff1be79f075362c6268f89b"),
    ("psi-tree --family 1000 --eps 1/3 --depth 2 --width 40 --expand 3", 1,
     "5d984c8b385c7727ba4454a226cfc3579436656f40dc6d2df070d0dd28dc446c"),
    ("psi-tree --seed-vec 2,3,7 --family 7 --eps 49/100 --depth 2 --width 30 --expand 2", 1,
     "0353276ed208218e8e6098b174dcc677c24c06c87e6cb0ea968014ca7c64b3bf"),
]


@pytest.mark.parametrize("line,exit_code,digest", SUBCOMMAND_BYTES,
                         ids=[line for line, _, _ in SUBCOMMAND_BYTES])
def test_subcommand_bytes_pinned(capsys, line, exit_code, digest):
    code = run(line.split())
    out = capsys.readouterr().out.encode()
    assert (code, hashlib.sha256(out).hexdigest()) == (exit_code, digest)


def bench_ops():
    # compiled from source, so no bytecode cache is written beside it; the
    # module is registered while it runs, as its dataclass needs
    path = BENCH_GOLDEN.with_name("workloads.py")
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module.all_ops()


def test_every_bench_op_matches_golden(capsys):
    # all 106 ops the benchmark draws, the 34 psi-tree ops among them,
    # print the pinned bytes and exit codes: every tree audit count and
    # margin, every audit-all item and witness, every chain and scan (the
    # D3 trees exit 1, as recorded)
    with open(BENCH_GOLDEN) as fh:
        golden = json.load(fh)
    ops = bench_ops()
    assert len(ops) == 106
    for argv in ops:
        want = golden[" ".join(argv)]
        code = run(argv)
        out = capsys.readouterr().out.encode()
        assert (code, hashlib.sha256(out).hexdigest()) == (want["exit"], want["sha256"]), argv


def test_usage_errors_exit_two(capsys):
    assert run(["best-approx", "--x", "bogus", "--qmax", "5"]) == 2
    assert run(["invariants", "--v", "0,0,0"]) == 2
    assert run(["dims", "cantor"]) == 2  # missing --delta
    assert run(["dn", "--n", "10"]) == 2  # level below the supported floor
    # a slow-chain certificate needs a nonempty window and two samples
    for argv in (["--samples", "0"], ["--samples", "1"],
                 ["--steps", "0"], ["--steps", "1"], ["--steps", "2"]):
        assert run(["slow-chain", *argv]) == 2, argv
    # a negative tree size, and an infinite target level
    assert run(["slow-chain", "--target", "const", "--level", "inf"]) == 2
    assert run(["psi-tree", "--expand", "-1"]) == 2
    assert run(["psi-tree", "--width", "-1"]) == 2
    assert run(["psi-tree", "--depth", "-1"]) == 2
    # a negative covering-tree depth is refused naming the depth
    assert run(["dims", "cantor", "--delta", "1/2", "--depth", "-1"]) == 2
    assert "tree depth -1 " in capsys.readouterr().err
    # --seed belongs to audit-all alone
    assert run(["psi-tree", "--seed", "1"]) == 2
    # a delta beyond float range is out of range, not an overflow
    assert run(["dims", "cantor", "--delta", "1e400"]) == 2
    assert run(["dims", "bounds", "--delta", "1e400"]) == 2
    # a tiny eps whose spacing ratio leaves the float range is a usage
    # error, not an overflow
    assert run(["psi-tree", "--seed-vec", "0,0,1", "--eps", "1e-200",
                "--depth", "1", "--width", "2"]) == 2
    capsys.readouterr()
    # extreme constant levels: a schedule of too many knots, and two whose
    # heights are too long to print (-1e300 is refused by the heights rule
    # before any step); a tree whose heights would run to thousands of
    # digits; an eps whose decimal exponent, 10^7, Fraction would expand
    # before any check (7-10 s); a covering tree that doubles with each of
    # its 40 levels; a quotient family of more than
    # 2 * 10^5 children; descendant trees whose tree_cost passes its cap
    # (5.0 s, 49 s, 23 s and 24 s of work uncapped, and 122 s and 123 s at
    # eps 10^-10 and 10^-16); more than 10^4 profile or slow-chain samples;
    # slow chains whose cost estimate passes its cap (81 s uncapped, and
    # 22 s at the constant level -10); a slow chain whose seed alone has
    # 4291 digits; and a level so close to 0 that the first step's
    # distortion rounds to 1.  Each is one error line, within seconds
    long_seed = f"1,1,{10**4290 + 7}"
    errs = []
    for argv in (
        ["slow-chain", "--target", "const", "--level=-1e-300", "--steps", "3",
         "--samples", "2"],
        ["slow-chain", "--target", "const", "--level=-1e300", "--steps", "3",
         "--samples", "2"],
        ["slow-chain", "--target", "const", "--level=-3000", "--steps", "3",
         "--samples", "2"],
        ["psi-tree", "--seed-vec=-5,-4,13", "--eps=1e-400"],
        ["psi-tree", "--eps", "1e-10000000", "--depth", "1", "--width", "1"],
        ["dims", "cantor", "--delta", "1/2", "--depth", "40"],
        ["dn", "--n", "100001", "--root", "1/2"],
        ["psi-tree", "--depth", "300", "--expand", "1", "--width", "1"],
        ["psi-tree", "--depth", "17", "--expand", "2", "--width", "2"],
        ["psi-tree", "--depth", "16", "--expand", "2", "--width", "2"],
        ["psi-tree", "--depth", "100", "--expand", "1", "--width", "1999"],
        ["profile", "--x", "2/7,3/7", "--qmax", "50", "--samples", "100000"],
        ["slow-chain", "--samples", "100000"],
        ["slow-chain", "--steps", "200"],
        ["psi-tree", "--eps=1e-10", "--depth", "14", "--expand", "2", "--width", "2"],
        ["psi-tree", "--eps=1e-16", "--depth", "100", "--expand", "1", "--width", "1"],
        ["slow-chain", "--target", "const", "--level=-10", "--steps", "292", "--samples", "2"],
        ["slow-chain", "--seed-vec", long_seed, "--steps", "3", "--samples", "2"],
        ["slow-chain", "--seed-vec", "0,0,1", "--target", "const", "--level=-1e-20",
         "--steps", "3", "--samples", "2"],
    ):
        start = time.perf_counter()
        assert run(argv) == 2, argv
        assert time.perf_counter() - start < 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        errs.append(err)
    # the heights too long to print are blamed on the option, not on int
    assert "--level" in errs[2] and "4300 digits" in errs[2], errs[2]
    # the seed's own digits are priced before the first step, and blamed:
    # 3 is the least step count, and the log1p schedule starts at the
    # seed's own log1p(tau)/3
    assert errs[-2].startswith("error: --seed-vec: "), errs[-2]
    assert "a seed of 4291 digits" in errs[-2], errs[-2]
    assert "schedule produced a non-shrinking distortion" in errs[-1], errs[-1]


def test_seed_too_tall_for_any_chain_is_named_before_a_step(capsys, monkeypatch):
    # the first slow step's height is at least |Hhat(seed)|^2 / eps'^3, and
    # a seed with |L| = 1 has |Hhat| near half its height, so no step count
    # and no level passes 4300 digits: the seed is blamed before any step
    def no_step(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(construct, "slow_step", no_step)
    for argv in (
        ["slow-chain", "--seed-vec", f"1,1,{10**2200 + 7}", "--steps", "3", "--samples", "2"],
        ["slow-chain", "--seed-vec", f"1,1,{10**4292 + 7}", "--target", "const",
         "--level=-1", "--steps", "3", "--samples", "2"],
    ):
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 2
        err = capsys.readouterr().err
        assert err.startswith("error: --seed-vec: ") and err.count("\n") == 1, err


def test_tiny_eps_trees_end_within_seconds(capsys):
    # tree_cost alone bounds a tree at tiny eps: the costliest shapes it
    # accepts from eps 10^-34 to 10^-1300 end at once, some through the
    # float range of the spacing ratio
    for argv in (
        ["--eps", "1e-1300", "--depth", "1", "--width", "1"],
        ["--eps", "1e-100", "--depth", "3", "--expand", "2", "--width", "2"],
        ["--eps", "1e-200", "--depth", "2", "--expand", "2", "--width", "3"],
        ["--eps", "1e-34", "--depth", "4", "--expand", "2", "--width", "2"],
        ["--eps", "1e-400", "--depth", "1", "--width", "4"],
    ):
        start = time.perf_counter()
        assert run(["psi-tree", *argv]) in (0, 1, 2), argv
        assert time.perf_counter() - start < 2, argv
        assert "multiplier" not in capsys.readouterr().err, argv


def test_failed_chain_edge_exits_one_naming_the_edge(capsys, monkeypatch):
    # slow steps nest by construction, so a nesting check that rejects
    # every edge stands in for a failing one: an audit failure, exit 1,
    # reported as one line that names the edge, with no traceback
    argv = ["slow-chain", "--seed-vec", "1,1,2", "--steps", "3", "--samples", "2"]
    assert run(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(construct, "nesting_ok", lambda inv, v, w, lv: False)
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("error: edge ((1,1),2) -> ") and err.count("\n") == 1


# Number fields mix plain values with ones that break float conversion or
# parsing, and exponents past 4300 that are refused before they are expanded.
NUMBER = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.fractions(max_denominator=10**4).map(str),
    st.sampled_from(["1e400", "-1e400", "1e-400", "1e5000", "-1e-5000", "nan", "inf", "1/0",
                     "0.5", "x"]),
)


def _csv(*fields):
    return st.tuples(*fields).map(lambda t: ",".join(map(str, t)))


POINT = _csv(NUMBER, NUMBER)
SMALL_VEC = _csv(st.integers(-20, 20), st.integers(-20, 20), st.integers(-3, 60))
# heights near the domain op of the scan workload, where the sandwich audit
# and the membership test run on denominators of about 10^9
DOMAIN_VEC = _csv(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4),
                  st.integers(-3, 10**4))
BIG_VEC = _csv(*[st.integers(-10**6, 10**6)] * 3)
# a slow chain takes 2 to 10^4 samples, one reduction each
CHAIN_SAMPLES = st.one_of(st.integers(2, 3), st.integers(10**4 + 1, 10**9))
# slow-chain step counts: 3-4 run in milliseconds, and from 293 steps the
# cost estimate samples * span^3, span >= steps, passes the cap at every
# sample count
CHAIN_STEPS = st.one_of(st.integers(3, 4), st.integers(293, 10**9))
assert 2 * 293**3 > construct.MAX_CHAIN_WORK >= 2 * 292**3
# tree depths past which every width and expand from 1 is over the cap:
# from 312 at eps 1/2 or beyond (an eps outside (0, 1/2) is priced as 1/2),
# from 44 at eps 10^-5 and below; each from the cheapest seed, (0, 0, 1)
SMALL_EPS = st.integers(5, 15).flatmap(
    lambda k: st.integers(10**k, 10**(k + 1))).map(lambda d: f"1/{d}")
TINY_EPS = st.integers(34, 1300).map(lambda k: f"1e-{k}")
TREE_DEPTHS = {Fraction(1, 2): 312, Fraction(1, 10**5): 44}
for _eps, _depth in TREE_DEPTHS.items():
    assert construct.tree_cost(pvec(0, 0, 1), _eps, 1, _depth, 1, 1) > construct.MAX_TREE_COST
    assert construct.tree_cost(pvec(0, 0, 1), _eps, 1, _depth - 1, 1, 1) <= construct.MAX_TREE_COST


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
          depth=st.one_of(st.integers(-2, 6), st.integers(13, 60))),
    _argv(["dims", "bounds"], delta=NUMBER),
    _argv(["dims", "crossing"]),
    _argv(["cf"], {"x": NUMBER}, n=st.integers(-5, 2000)),
    # 'dn --root' builds 2N children up to N = 10^5 and refuses larger N
    _argv(["dn"], {"n": st.one_of(st.integers(-5, 2000),
                                  st.integers(10**5 + 1, 10**12))}, root=NUMBER),
    _argv(["invariants"], {"v": BIG_VEC}),
    _argv(["best-approx"], {"x": POINT, "qmax": st.integers(-3, 10**9)}),
    # sample counts past the cap of 10^4 must end as usage errors
    _argv(["profile"], {"x": POINT, "qmax": st.integers(-3, 10**9)},
          samples=st.one_of(st.integers(-2, 6), st.integers(10**4 + 1, 10**9))),
    _argv(["domain"], {"v": SMALL_VEC}, x=POINT),
    _argv(["domain"], {"v": DOMAIN_VEC}, x=POINT),
    # sizes are always drawn: the default trees and chains take seconds,
    # and at eps 1e-400 the default tree takes minutes; a narrow tree
    # enumerates at most width + 1 slot pairs of any family; shapes whose
    # tree_cost passes its cap are refused before any node is built (see
    # TREE_DEPTHS), and width 0 or expand 0 end at once at any depth
    _argv(["psi-tree"], {"seed-vec": SMALL_VEC,
                         "depth": st.one_of(st.integers(0, 1),
                                            st.integers(TREE_DEPTHS[Fraction(1, 2)], 10**9)),
                         "width": st.one_of(st.integers(0, 4), st.integers(2 * 10**5, 10**9)),
                         "expand": st.one_of(st.integers(0, 2), st.integers(3, 10**9)),
                         "family": st.one_of(st.integers(1, 2),
                                             st.integers(10**3, 10**9))},
          eps=NUMBER),
    # family trees at depth 2, where each depth-1 parent computes its own
    # windows over the first slot pairs of a large family
    _argv(["psi-tree"], {"seed-vec": SMALL_VEC, "depth": st.just(2),
                         "width": st.integers(1, 4), "expand": st.integers(1, 2),
                         "family": st.integers(10**3, 10**9)},
          eps=NUMBER),
    _argv(["psi-tree"], {"seed-vec": SMALL_VEC, "depth": st.integers(15, 10**9),
                         "width": st.just(2), "expand": st.just(2)}),
    _argv(["psi-tree"], {"seed-vec": SMALL_VEC, "depth": st.integers(16, 10**9),
                         "width": st.integers(1999, 10**5), "expand": st.just(1)}),
    # eps from 10^-16 to 10^-5, where heights gain 30 to 96 digits a level
    _argv(["psi-tree"], {"seed-vec": SMALL_VEC, "eps": SMALL_EPS,
                         "depth": st.integers(TREE_DEPTHS[Fraction(1, 10**5)], 10**9),
                         "width": st.integers(1, 4),
                         "expand": st.integers(1, 4)}),
    # eps from 10^-34 to 10^-1300 on shallow, narrow trees, which tree_cost
    # alone bounds
    _argv(["psi-tree"], {"seed-vec": SMALL_VEC, "eps": TINY_EPS, "depth": st.integers(1, 2),
                         "width": st.integers(1, 4), "expand": st.integers(1, 4)}),
    _argv(["slow-chain", "--target", "log1p"],
          {"seed-vec": SMALL_VEC, "steps": CHAIN_STEPS,
           "samples": CHAIN_SAMPLES}, delta=NUMBER),
    _argv(["slow-chain", "--target", "const"],
          {"seed-vec": SMALL_VEC, "level": NUMBER, "steps": CHAIN_STEPS,
           "samples": CHAIN_SAMPLES}, delta=NUMBER),
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


@pytest.mark.parametrize("argv", [
    ["audit-all", "--jobs", "2"],
    ["domain", "--v", "1,2,5", "--rejects", "1000000"],
    ["best-approx", "--x", "1/3,2/3", "--qmax", "50", "--norm", "euclid"],
    ["dims", "crossing", "--tol", "1e-6"],
    ["dn", "--n", "72", "--tol", "1e-6"],
])
def test_removed_options_are_usage_errors(capsys, argv):
    # worker count, sweep density, report norm and root tolerance are
    # fixed, not options: each is refused by the parser before any work
    # starts
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


def test_audit_all_passes_and_reruns_identically(capsys):
    code = run(["audit-all", "--seed", "42"])
    first = capsys.readouterr().out
    assert code == 0
    assert run(["audit-all", "--seed", "42"]) == 0
    second = capsys.readouterr().out
    assert first == second


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


def test_fault_injection_report_keeps_the_first_witness(capsys):
    # the realiser item fails twice at seed 1; its row keeps the first witness
    code, doc = run_json(
        capsys, ["audit-all", "--seed", "1", "--inject-fault", "tie-break"]
    )
    assert code == 1
    assert [item for item in doc["items"] if not item["pass"]] == [{
        "name": "best-approx-realiser",
        "description": "each record realises its height minimum with "
                       "lexicographic ties",
        "checks": 30,
        "failures": 2,
        "pass": False,
        "witness": "target (1/2,1/2) height 1: tie resolved to (0,0), "
                   "expected (1,1)",
    }]
    assert doc["total_failures"] == 2


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


def modules_after(statement: str) -> set[str]:
    # a fresh interpreter shows what an import really loads
    code = f"import sys; {statement}; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_leaves_heavy_modules_unloaded():
    # start-up is most of a short command's time: the CLI loads neither
    # dataclasses (which pulls in inspect, ast, dis and tokenize) nor a
    # process pool
    loaded = modules_after("import diophlab.cli")
    assert "diophlab.cli" in loaded
    heavy = {"dataclasses", "inspect", "ast", "concurrent.futures", "multiprocessing"}
    assert loaded & heavy == set()


def test_package_import_loads_no_submodule():
    # the package namespace holds only __version__; names are imported
    # from their own modules, so the bare package loads none of them
    loaded = modules_after("import diophlab")
    assert "diophlab" in loaded
    assert sorted(m for m in loaded if m.startswith("diophlab.")) == []
