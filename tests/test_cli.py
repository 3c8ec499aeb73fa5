"""End-to-end CLI tests against the JSON fixture files."""

import argparse
import gc
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slab_harmonics import (
    MultiPoly,
    VerificationReport,
    cli,
    diffeq,
    oracle_compare,
    poly,
    slab,
    variables,
)
from slab_harmonics.cli import build_parser, main
from test_poly import json_reference, report_json_reference

FIXTURES = Path(__file__).parent / "fixtures"

F = Fraction


def fixture(name):
    return str(FIXTURES / name)


def run_module(argv, **kwargs):
    """Run `python -m slab_harmonics.cli` on `argv` with this checkout's src first on the path."""
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "slab_harmonics.cli", *argv], env=env, timeout=60, **kwargs
    )


def test_solve_slab_basic(tmp_path, capsys):
    out = tmp_path / "solution.json"
    code = main(["solve-slab", "--input", fixture("slab_basic.json"), "--output", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    h = MultiPoly.from_json_dict(obj["solution"])
    t, y1 = variables(1)
    assert h == t * y1 * y1 + t.scale(F(1, 3)) - (t ** 3).scale(F(1, 3))
    assert obj["report"]["status"] == "pass"


def test_solve_slab_zero_data(tmp_path):
    out = tmp_path / "solution.json"
    assert main(["solve-slab", "--input", fixture("slab_zero.json"), "--output", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert MultiPoly.from_json_dict(obj["solution"]).is_zero


def test_solve_slab_bad_endpoints(capsys):
    code = main(["solve-slab", "--input", fixture("slab_bad_endpoints.json"), "--quiet"])
    assert code == 2
    assert "a < b" in capsys.readouterr().err


def test_solve_slab_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve-slab", "--input", str(bad), "--quiet"]) == 2
    assert "error" in capsys.readouterr().err

    # malformed polynomials exit 2 with one line from every command reading one
    good = {"d": 1, "terms": [{"coeff": "1", "exps": [0, 1]}]}
    bad_polys = [
        {"d": 1, "terms": [{"coeff": "1/0", "exps": [0, 1]}]},
        {"d": 1, "terms": [5]},
        {"d": True, "terms": [{"coeff": "1", "exps": [0, 1]}]},
        {"d": 1, "terms": [{"coeff": "1", "exps": [True, 0]}]},
        {"d": 1, "terms": 5},
        {"d": 1, "terms": [{"coeff": None, "exps": [0, 1]}]},
        [],
        # unknown keys in a polynomial and in a term
        {**good, "junk": 1},
        {"d": 1, "terms": [{"coeff": "1", "exps": [0, 1], "x": 0}]},
    ]
    # only "p" and "p/q" in ASCII digits: no exponent, decimal point, blank,
    # digit separator or plus sign
    bad_coeffs = ["1e200000", "1.5", "2e3", " 3 ", "1_000", "+3", "1/-2", "/3", "3/", "-", "\u0663"]
    bad_polys += [{"d": 1, "terms": [{"coeff": c, "exps": [0, 1]}]} for c in bad_coeffs]
    for poly in bad_polys:
        inputs = {
            "solve-slab": {"a": "0", "b": "1", "d": 1, "f0": poly, "f1": good},
            "solve-diffeq": {"d": 1, "g": poly},
            "oracle-compare": {"d": 1, "g": poly},
            "verify": {"kind": "diffeq", "problem": {"d": 1, "g": good}, "h": poly},
            "eval": poly,
        }
        for command, obj in inputs.items():
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(obj))
            argv = [command, "--input", str(path), "--quiet"]
            if command == "eval":
                argv += ["--grid", "t=0:1:1,y1=0:1:1"]
            assert main(argv) == 2, (command, poly)
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (command, poly, err)

    # malformed problem-level fields, through every command reading a problem
    slab = {"a": "0", "b": "1", "d": 1, "f0": good, "f1": good}
    diffeq = {"d": 1, "g": good}
    bad_slabs = [
        {**slab, "a": "1/0"},
        {**slab, "a": None},
        {**slab, "a": [1]},
        {**slab, "b": 1.5},  # a JSON float is not an exact rational
        {**slab, "d": True},
        {**slab, "extra": 5},
        [],
    ]
    bad_slabs += [{**slab, "a": c} for c in bad_coeffs] + [{**slab, "b": c} for c in bad_coeffs]
    bad_diffeqs = [{**diffeq, "d": True}, {**diffeq, "d": "1"}, {**diffeq, "extra": 5}, []]
    cases = [("solve-slab", p) for p in bad_slabs]
    cases += [("verify", {"kind": "slab", "problem": p, "h": good}) for p in bad_slabs]
    for p in bad_diffeqs:
        cases += [("solve-diffeq", p), ("oracle-compare", p)]
        cases.append(("verify", {"kind": "diffeq", "problem": p, "h": good}))
    cases.append(("verify", {"kind": "diffeq", "problem": diffeq, "h": good, "extra": 5}))
    for command, obj in cases:
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(obj))
        assert main([command, "--input", str(path), "--quiet"]) == 2, (command, obj)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (command, obj, err)


def test_verify_bundle_of_another_dimension_exits_2(tmp_path, capsys):
    # an h in d = 2 against a d = 1 problem is malformed input, also when
    # both are zero and every residual would be zero in its own dimension
    zero1 = {"d": 1, "terms": []}
    y2 = {"d": 2, "terms": [{"coeff": "1", "exps": [0, 0, 1]}]}
    slab_prob = {"a": "0", "b": "1", "d": 1, "f0": zero1, "f1": zero1}
    bundles = [
        {"kind": "diffeq", "problem": {"d": 1, "g": zero1}, "h": {"d": 2, "terms": []}},
        {"kind": "diffeq", "problem": {"d": 1, "g": zero1}, "h": y2},
        {"kind": "slab", "problem": slab_prob, "h": {"d": 2, "terms": []}},
    ]
    for bundle in bundles:
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle))
        assert main(["verify", "--input", str(path), "--quiet"]) == 2, bundle
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (bundle, err)


def _passing_runs(tmp_path):
    """Commands that exit 0: solve-slab on slab_basic.json and on walls
    (-1/2, 4/3), solve-diffeq, verify on both good bundles, oracle-compare."""
    walls = tmp_path / "walls.json"
    _, y1 = variables(1)
    prob = slab.SlabProblem(F(-1, 2), F(4, 3), 1, y1 ** 6, y1 * y1 + MultiPoly.constant(1, 3))
    walls.write_text(json.dumps(prob.to_json_dict()))
    return [
        ["solve-slab", "--input", fixture("slab_basic.json")],
        ["solve-slab", "--input", str(walls)],
        ["solve-diffeq", "--input", fixture("diffeq_basic.json")],
        ["verify", "--input", fixture("verify_good.json")],
        ["verify", "--input", fixture("verify_slab_good.json")],
        ["oracle-compare", "--input", fixture("diffeq_oracle.json")],
    ]


def test_passing_commands_do_not_shift(monkeypatch, tmp_path):
    # solve-slab works from the Cauchy data at t = 0 for any walls, and a
    # passing difference check reads the Cauchy data of its residual
    def shift_t(self, s):
        raise AssertionError("shift_t called")

    monkeypatch.setattr(MultiPoly, "shift_t", shift_t)
    for argv in _passing_runs(tmp_path):
        assert main(argv + ["--quiet"]) == 0, argv


def test_passing_commands_group_each_polynomial_once(monkeypatch, tmp_path):
    # the wall traces, the Laplacian and the Cauchy residuals of one
    # polynomial all read the grouping by y-monomial that it keeps
    grouped = []  # holds each grouped map, so that no id is reused
    t_fibres = poly._t_fibres
    monkeypatch.setattr(poly, "_t_fibres", lambda num: grouped.append(num) or t_fibres(num))
    for argv in _passing_runs(tmp_path):
        grouped.clear()
        assert main(argv + ["--quiet"]) == 0, argv
        assert grouped and len(set(map(id, grouped))) == len(grouped), argv


def test_solve_diffeq_basic(tmp_path):
    out = tmp_path / "solution.json"
    code = main(["solve-diffeq", "--input", fixture("diffeq_basic.json"), "--output", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["report"]["status"] == "pass"
    assert set(obj) == {"h", "report"}
    # round-trip through the schema is canonical
    h = MultiPoly.from_json_dict(obj["h"])
    assert h.to_json_dict() == obj["h"]


def test_solve_diffeq_nonharmonic(capsys):
    # the Laplacian that refuses g is kept on g for verify_difference
    for command in ("solve-diffeq", "oracle-compare"):
        code = main([command, "--input", fixture("diffeq_nonharmonic.json"), "--quiet"])
        assert code == 2
        assert capsys.readouterr().err == "error: right-hand side must be harmonic; laplacian = 2\n"


@pytest.mark.parametrize("name", ["verify_good.json", "verify_slab_good.json"])
def test_verify_non_harmonic_tamper_reports_its_laplacian(name, tmp_path, capsys):
    bundle = json.loads(Path(fixture(name)).read_text())
    t, y1 = variables(1)
    bundle["h"] = (MultiPoly.from_json_dict(bundle["h"]) + t * t).to_json_dict()
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    assert main(["verify", "--input", str(path)]) == 1
    assert "  residual laplacian: 2\n" in capsys.readouterr().err


def test_verify_good(capsys):
    assert main(["verify", "--input", fixture("verify_good.json")]) == 0
    assert main(["verify", "--input", fixture("verify_slab_good.json")]) == 0


def test_verify_tampered_prints_residual(capsys):
    code = main(["verify", "--input", fixture("verify_tampered.json")])
    assert code == 1
    err = capsys.readouterr().err
    # adding t to a solution shifts the difference residual by exactly 1
    assert "residual difference: 1" in err


def test_oracle_compare(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["oracle-compare", "--input", fixture("diffeq_oracle.json"), "--output", str(out)])
    assert code == 0
    assert "r(y) = 0" in capsys.readouterr().out
    obj = json.loads(out.read_text())
    assert obj["report"]["status"] == "pass"
    assert MultiPoly.from_json_dict(obj["report"]["extras"]["r"]).is_zero


def test_oracle_compare_prints_the_solution_then_r_then_the_verdict(capsys):
    assert main(["oracle-compare", "--input", fixture("diffeq_oracle.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3, lines
    assert json.loads(lines[0])["report"]["status"] == "pass"
    assert lines[1] == "r(y) = 0"
    assert lines[2] == "oracle_compare: pass"


def test_oracle_compare_passes_at_d2_and_d3(tmp_path, capsys):
    # the Bernoulli route solves on the line y1 = 0 at every d
    t, y1, y2 = variables(2)
    g2 = t * y2 + y1 * y2 + t * t - y1 * y1
    t, y1, y2, y3 = variables(3)
    g3 = t * y1 * y3 + (t * t).scale(3) - (y2 * y2).scale(2) - y3 * y3 + y2
    for g in (g2, g3):
        path, out = tmp_path / f"d{g.d}.json", tmp_path / f"d{g.d}.out.json"
        path.write_text(json.dumps({"d": g.d, "g": g.to_json_dict()}))
        assert main(["oracle-compare", "--input", str(path), "--output", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "oracle_compare: pass"
        obj = json.loads(out.read_text())
        assert obj["report"]["status"] == "pass"
        h = MultiPoly.from_json_dict(obj["solution"])
        assert h == diffeq.solve(diffeq.DiffEqProblem(g, g.d))
        r = MultiPoly.from_json_dict(obj["report"]["extras"]["r"])
        assert r.is_t_free and r.laplacian_y().is_zero


def test_eval_grid(tmp_path):
    out = tmp_path / "samples.csv"
    code = main([
        "eval", "--input", fixture("poly_saddle.json"),
        "--grid", "t=0:1:1,y1=0:1:1", "--output", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,y1,value"
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    assert rows == [(0, 0, 0), (0, 1, -1), (1, 0, 1), (1, 1, 0)]


def test_eval_zero_poly(tmp_path):
    out = tmp_path / "samples.csv"
    assert main([
        "eval", "--input", fixture("poly_zero.json"),
        "--grid", "t=0:1:0.5,y1=-1:1:0.5", "--output", str(out),
    ]) == 0
    lines = out.read_text().strip().splitlines()[1:]
    assert lines
    assert all(float(ln.split(",")[-1]) == 0.0 for ln in lines)


@pytest.mark.parametrize("grid", [
    "t=1:0:1,y1=0:1:1",       # empty range
    "t=0:1:0,y1=0:1:1",       # zero step
    "t=0:1:nan,y1=0:1:1",     # NaN step
    "t=0:1:1",                # missing variable
    "t=0:1:1,y1=0:1:1,y2=0:1:1",  # unknown variable
    "bogus",
    "t=0:1e9:1,y1=0:1:1",     # 2e9 points, over the bound
    "t=0:1:1,t=5:6:1,y1=0:0:1",  # t given twice
])
def test_eval_malformed_grid(grid, capsys):
    assert main(["eval", "--input", fixture("poly_saddle.json"), "--grid", grid, "--quiet"]) == 2


def test_self_test_seeded(monkeypatch, capsys):
    monkeypatch.setenv("SLAB_HARMONICS_SEED", " 12345 ")  # printed as parsed
    assert main(["self-test", "--rounds", "3"]) == 0
    assert capsys.readouterr().out == "self-test: 6/6 checks passed (seed=12345)\n"


def test_self_test_rounds(capsys):
    assert main(["self-test", "--rounds", "0"]) == 0
    assert "0/0 checks passed" in capsys.readouterr().out
    assert main(["self-test", "--rounds", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


def test_self_test_takes_no_output_option(tmp_path, capsys):
    out = tmp_path / "st.json"
    with pytest.raises(SystemExit) as exc:
        main(["self-test", "--rounds", "1", "--output", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --output" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, usage, extra", [
    (["self-test", "--rounds", "1", "--output", "o"],
     "usage: slab-harmonics self-test [-h] [--quiet] [--rounds ROUNDS]\n", "--output o"),
    (["solve-slab", "extra", "--input", "x"],
     "usage: slab-harmonics solve-slab [-h] --input INPUT", "extra"),
])
def test_unrecognized_argument_shows_the_command_usage(argv, usage, extra, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(usage)
    assert err.endswith(f"slab-harmonics {argv[0]}: error: unrecognized arguments: {extra}\n")


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["--quiet", "verify", "--input", "x"], "unrecognized arguments: --quiet"),
])
def test_no_command_falls_back_to_the_full_parser(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: slab-harmonics [-h]")
    assert f"slab-harmonics: error: {message}" in err


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_one_command_help_matches_the_full_parser(name, capsys):
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == subparsers.choices[name].format_help()


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_texts_match_their_goldens(command, monkeypatch, capsys):
    # tests/fixtures/help/ holds each help text as printed at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    golden = FIXTURES / "help" / f"{command or 'slab-harmonics'}.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", [
    *([name, "--input", "p.json"] + rest
      for name in ["solve-slab", "solve-diffeq", "verify", "oracle-compare"]
      for rest in ([], ["--output", "o.json"], ["--quiet"], ["--quiet", "--output", "o.json"])),
    ["eval", "--input", "p.json", "--grid", "t=0:1:0.5,y1=-1:1:0.5"],
    ["eval", "--grid", "t=0:1:1,y1=0:1:1", "--input", "p.json", "--output", "o.csv", "--quiet"],
    ["self-test"],
    ["self-test", "--quiet"],
    ["self-test", "--rounds", "3"],
    ["self-test", "--rounds", "3", "--quiet"],
])
def test_main_parses_as_the_full_parser(argv, monkeypatch):
    # record the parsed arguments in place of running the command
    parsed = []
    for name, (_, options) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, (parsed.append, options))
    main(argv)
    assert list(map(vars, parsed)) == [vars(build_parser().parse_args(argv))]


def test_readme_cli_block_lists_each_command_with_its_options():
    # the code block under the README's "## CLI" heading, one line a command
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    listed = {}
    for line in block.splitlines():
        words = line.split("#", 1)[0].split()
        assert words[0] == "slab-harmonics" and words[1] not in listed, line
        flags = [w.strip("[]") for w in words[2:]]
        listed[words[1]] = sorted(w[2:] for w in flags if w.startswith("--"))
    assert listed == {name: sorted(options) for name, (_, options) in cli._COMMANDS.items()}


# tokens that a command line may hold besides the options of its command
_SCAN_TOKENS = [
    *cli._COMMANDS, "--input", "--output", "--grid", "--quiet", "--rounds",
    "--in", "--out", "--gr", "--q", "--r", "--input=p.json", "--output=o.json", "--rounds=3",
    "-h", "--help", "--", "-", "", "-5", "+5", "1_0", "\u0663", "5", "007", "p.json", "++quiet",
]
_SCAN_VALUES = ["p.json", "t=0:1:1,y1=0:1:1", "0", "3", "007", "a b", ""]
_ODD_VALUES = ["-", "-5", "+5", "1_0", "\u0663", "\u00b2", " 5", "1" * 4301, "--quiet", "-h"]


@st.composite
def _command_lines(draw):
    """Some of a command's options in any order, mostly with plain values,
    and up to two more tokens put anywhere."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    dests = draw(st.permutations(list(cli._COMMANDS[name][1])))
    argv = [name]
    for dest in dests[: draw(st.integers(0, len(dests)))]:
        argv.append(f"--{dest}")
        if dest != "quiet":
            argv.append(draw(st.sampled_from(_SCAN_VALUES * 3 + _ODD_VALUES)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(_SCAN_TOKENS)))
    return argv


@settings(max_examples=1000, deadline=None)
@given(argv=_command_lines())
def test_scan_gives_what_the_command_parser_gives(argv):
    # each command line the scanner reads parses to the same Namespace under
    # the command's own parser; any other is left to that parser
    scanned = cli._scan(argv)
    if scanned is not None:
        parser = argparse.ArgumentParser(prog=f"slab-harmonics {argv[0]}")
        cli._add_options(parser, argv[0])
        assert vars(scanned) == vars(parser.parse_args(argv[1:])), argv


@pytest.mark.parametrize("argv", [
    ["verify", "--input=x"],
    ["verify", "--in", "x"],
    ["verify", "--input", "x", "--quiet", "--quiet"],
    ["verify", "--input", "-"],
    ["self-test", "--rounds", "-1"],
    ["self-test", "--rounds", "+5"],
    ["self-test", "--rounds", "\u0663"],
    ["verify", "--input", "x", "--"],
    ["verify", "--input", "x", "-h"],
    ["verify", "--quiet"],  # no --input
    ["eval", "--input", "x"],  # no --grid
])
def test_scan_leaves_other_command_lines_to_argparse(argv):
    assert cli._scan(argv) is None


# "{out}" stands for an output file in the test's directory
_GRID = "t=0:1:0.5,y1=-1:1:0.5"
_PLAIN_FORMS = [
    # as the benchmark sends them
    ["solve-slab", "--input", fixture("slab_basic.json"), "--output", "{out}", "--quiet"],
    ["solve-diffeq", "--input", fixture("diffeq_basic.json"), "--output", "{out}", "--quiet"],
    ["oracle-compare", "--input", fixture("diffeq_oracle.json"), "--output", "{out}", "--quiet"],
    ["verify", "--input", fixture("verify_good.json"), "--quiet"],
    ["self-test", "--rounds", "0", "--quiet"],
    # the README's CLI block
    ["solve-slab", "--input", fixture("slab_basic.json")],
    ["solve-diffeq", "--input", fixture("diffeq_basic.json"), "--quiet"],
    ["verify", "--input", fixture("verify_good.json"), "--output", "{out}"],
    ["oracle-compare", "--input", fixture("diffeq_oracle.json")],
    ["eval", "--input", fixture("poly_saddle.json"), "--grid", _GRID],
    ["eval", "--input", fixture("poly_saddle.json"), "--grid", _GRID, "--output", "{out}", "--quiet"],
    ["self-test"],
    ["self-test", "--quiet", "--rounds", "1"],
]


@pytest.mark.parametrize("from_sys_argv", [False, True])
@pytest.mark.parametrize("argv, built", [
    *((argv, []) for argv in _PLAIN_FORMS),
    (["verify", f"--input={fixture('verify_good.json')}", "--quiet"], ["slab-harmonics verify"]),
    (["verify", "--in", fixture("verify_good.json"), "--quiet"], ["slab-harmonics verify"]),
])
def test_a_named_command_builds_at_most_one_parser(argv, built, from_sys_argv, monkeypatch, tmp_path):
    # a plain command line builds no parser; any other spelling builds only
    # the command's own
    argv = [token.replace("{out}", str(tmp_path / "out")) for token in argv]
    monkeypatch.setattr(sys, "argv", ["slab-harmonics", *argv])
    parsers = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        parsers.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert (main() if from_sys_argv else main(argv)) == 0
    assert parsers == built


def _run(argv, out, capsys):
    """Exit code, output file (less its run time) and printed text of `argv`
    run through `main`, with "{out}" standing for `out`."""
    code = main([token.replace("{out}", str(out)) for token in argv])
    if not out.exists():
        written = None
    elif out.suffix == ".csv":
        written = out.read_text()
    else:
        written = json.loads(out.read_text())
        for report in (written, written.get("report", {})):
            report.pop("elapsed_seconds", None)
    captured = capsys.readouterr()
    return code, written, captured.out, captured.err


@pytest.mark.parametrize("plain, spelled", [
    (["solve-slab", "--input", fixture("slab_basic.json"), "--output", "{out}", "--quiet"],
     ["solve-slab", f"--input={fixture('slab_basic.json')}", "--output", "{out}", "--quiet"]),
    (["solve-diffeq", "--input", fixture("diffeq_basic.json"), "--output", "{out}"],
     ["solve-diffeq", "--in", fixture("diffeq_basic.json"), "--out", "{out}"]),
    (["eval", "--input", fixture("poly_saddle.json"), "--grid", _GRID, "--output", "{out}"],
     ["eval", "--out={out}", "--grid", _GRID, "--in", fixture("poly_saddle.json")]),
    (["oracle-compare", "--input", fixture("diffeq_oracle.json"), "--output", "{out}"],
     ["oracle-compare", "--output", "FIRST", "--input", fixture("diffeq_oracle.json"), "--output", "{out}"]),
    (["verify", "--input", fixture("verify_tampered.json"), "--output", "{out}", "--quiet"],
     ["verify", "--quiet", "--output", "{out}", "--input", fixture("verify_tampered.json"), "--quiet"]),
    (["self-test", "--rounds", "0", "--quiet"], ["self-test", "--rounds=0", "--quiet"]),
])
def test_argparse_spellings_run_as_the_plain_form(plain, spelled, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where FIRST would be written
    out = tmp_path / ("out.csv" if plain[0] == "eval" else "out.json")
    expected = _run(plain, out, capsys)
    out.unlink(missing_ok=True)
    assert _run(spelled, out, capsys) == expected
    assert not (tmp_path / "FIRST").exists()  # a repeated --output: the last wins


def test_argparse_reads_a_negative_rounds_and_a_late_help(monkeypatch, capsys):
    assert main(["self-test", "--rounds", "-1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: --rounds must be >= 0, got -1\n")
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--input", fixture("verify_good.json"), "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == (FIXTURES / "help" / "verify.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("argv, stdout_check", [
    (["--help"], lambda out: all(name in out for name in cli._COMMANDS)),
    (["verify", "--help"], lambda out: out.startswith("usage: slab-harmonics verify")),
    (["self-test", "--rounds", "0", "--quiet"], lambda out: out == ""),
])
def test_entry_point_reads_sys_argv(argv, stdout_check):
    proc = run_module(argv, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert stdout_check(proc.stdout), proc.stdout


@pytest.mark.parametrize("seed", ["abc", "1e3", "", "7.0"])
def test_self_test_malformed_seed_exits_2(seed, monkeypatch, capsys):
    monkeypatch.setenv("SLAB_HARMONICS_SEED", seed)
    assert main(["self-test", "--rounds", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: SLAB_HARMONICS_SEED") and captured.err.count("\n") == 1


def test_self_test_failure_prints_replayable_problem(monkeypatch, capsys, tmp_path):
    def failing(*args):
        return VerificationReport("forced", {"r": MultiPoly.constant(1, 1)})

    monkeypatch.setattr(slab, "verify_boundary", failing)
    monkeypatch.setattr(diffeq, "verify_difference", failing)
    monkeypatch.setenv("SLAB_HARMONICS_SEED", " 7 ")  # printed as parsed
    assert main(["self-test", "--rounds", "2", "--quiet"]) == 1
    lines = capsys.readouterr().err.splitlines()
    monkeypatch.undo()
    assert len(lines) == 4
    for line, (kind, i) in zip(lines, [("slab", 0), ("diffeq", 0), ("slab", 1), ("diffeq", 1)]):
        head, problem = line.split(": FAIL ", 1)
        assert head == f"self-test {kind} round {i} seed=7"
        # the printed problem replays through the solver and its real verifier
        path = tmp_path / f"{kind}{i}.json"
        path.write_text(problem)
        assert main([f"solve-{kind}", "--input", str(path), "--quiet"]) == 0


def test_coefficient_over_4300_digits_round_trips(tmp_path, capsys):
    # Python refuses int <-> str past 4300 digits by default; the CLI reads up
    # to 100,000 digits and writes any size.  The test itself stays on strings.
    poly = {"d": 1, "terms": [{"coeff": "1" * 5000 + "/3", "exps": [0, 2]}]}
    prob = {"a": "1/3", "b": "2", "d": 1, "f0": poly, "f1": {"d": 1, "terms": []}}
    path, out = tmp_path / "prob.json", tmp_path / "sol.json"
    path.write_text(json.dumps(prob))
    assert main(["solve-slab", "--input", str(path), "--output", str(out), "--quiet"]) == 0
    h = json.loads(out.read_text())["solution"]
    assert max(len(term["coeff"]) for term in h["terms"]) > 5000
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps({"kind": "slab", "problem": prob, "h": h}))
    assert main(["verify", "--input", str(bundle), "--quiet"]) == 0
    assert capsys.readouterr().err == ""

    # over the bound: exit 2 with one error line, from the reader
    poly["terms"][0]["coeff"] = "7" * 100_001
    path.write_text(json.dumps(prob))
    assert main(["solve-slab", "--input", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_integer_over_the_digit_bound_exits_2_in_one_line(tmp_path, capsys):
    # a numerator over the bound, and a JSON integer over it in the exponents
    big = "7" * 100_001
    f0 = {"d": 1, "terms": [{"coeff": big, "exps": [0, 1]}]}
    texts = [
        json.dumps({"a": "0", "b": "1", "d": 1, "f0": f0, "f1": {"d": 1, "terms": []}}),
        '{"a": "0", "b": "1", "d": 1, "f1": {"d": 1, "terms": []}, '
        '"f0": {"d": 1, "terms": [{"coeff": "1", "exps": [0, ' + big + "]}]}}",
    ]
    path = tmp_path / "prob.json"
    for text in texts:
        path.write_text(text)
        assert main(["solve-slab", "--input", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "100,000 digits" in err
        assert "set_int_max_str_digits" not in err


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["solve-slab", "--input", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_eval_out_of_float_range_exits_2(tmp_path, capsys):
    # a coefficient too large for a float, and a power that overflows
    polys = [
        {"d": 1, "terms": [{"coeff": "1" + "0" * 400, "exps": [0, 1]}]},
        {"d": 1, "terms": [{"coeff": "1", "exps": [2000, 0]}]},
        # each coefficient fits a float, their sum at y1 = 1 does not
        {"d": 1, "terms": [{"coeff": "9" * 308, "exps": [0, 0]}, {"coeff": "9" * 308, "exps": [0, 1]}]},
    ]
    path = tmp_path / "poly.json"
    for poly in polys:
        path.write_text(json.dumps(poly))
        assert main(["eval", "--input", str(path), "--grid", "t=0:2:1,y1=0:1:1", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err


def test_eval_grid_check_does_not_list_a_huge_dimension(tmp_path, capsys):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"d": 10**30, "terms": []}))
    assert main(["eval", "--input", str(path), "--grid", "t=0:1:1,y1=0:1:1", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid is missing variables") and len(err.splitlines()) == 1


def test_solve_diffeq_zero_rhs_in_a_huge_dimension(tmp_path, capsys):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"d": 10**30, "g": {"d": 10**30, "terms": []}}))
    assert main(["solve-diffeq", "--input", str(path), "--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_writers_emit_one_line(tmp_path):
    out = tmp_path / "solution.json"
    assert main(["solve-slab", "--input", fixture("slab_basic.json"), "--output", str(out)]) == 0
    text = out.read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    assert json.loads(text)["report"]["status"] == "pass"


def _expected_output(command, obj):
    """(key, h, report) of what a command writes for input `obj`, computed
    in process; key and h are None for verify."""
    if command == "solve-slab":
        prob = slab.SlabProblem.from_json_dict(obj)
        h = slab.solve_slab(prob)
        return "solution", h, slab.verify_boundary(h, prob)
    if command == "verify":
        h = MultiPoly.from_json_dict(obj["h"])
        if obj["kind"] == "slab":
            return None, None, slab.verify_boundary(h, slab.SlabProblem.from_json_dict(obj["problem"]))
        return None, None, diffeq.verify_difference(h, diffeq.DiffEqProblem.from_json_dict(obj["problem"]).g)
    prob = diffeq.DiffEqProblem.from_json_dict(obj)
    h = diffeq.solve(prob)
    if command == "solve-diffeq":
        return "h", h, diffeq.verify_difference(h, prob.g)
    return "solution", h, oracle_compare(prob.g, h)


def _degree_90_slab(tmp_path):
    path = tmp_path / "y90.json"
    f0 = MultiPoly(1, {(0, 90): 1})
    path.write_text(json.dumps(slab.SlabProblem(F(1, 3), F(2), 1, f0, MultiPoly.zero(1)).to_json_dict()))
    return str(path)


@pytest.mark.parametrize("command,name", [
    ("solve-slab", "slab_basic.json"),
    ("solve-slab", "slab_zero.json"),
    ("solve-slab", "y90"),
    ("solve-diffeq", "diffeq_basic.json"),
    ("solve-diffeq", "diffeq_oracle.json"),
    ("oracle-compare", "diffeq_oracle.json"),
    ("verify", "verify_good.json"),
    ("verify", "verify_slab_good.json"),
    ("verify", "verify_tampered.json"),
])
def test_written_bytes_are_json_dumps_of_the_reference(command, name, tmp_path):
    # the reference builds each polynomial from its Fraction terms; only
    # elapsed_seconds is read back from the file
    path = _degree_90_slab(tmp_path) if name == "y90" else fixture(name)
    out = tmp_path / "out.json"
    key, h, report = _expected_output(command, json.loads(Path(path).read_text()))
    assert main([command, "--input", path, "--output", str(out), "--quiet"]) == (0 if report.passed else 1)
    text = out.read_text()
    written = json.loads(text)
    ref = report_json_reference(report)
    if key is None:
        ref["elapsed_seconds"] = written["elapsed_seconds"]
        expected = json.dumps(ref) + "\n"
    else:
        ref["elapsed_seconds"] = written["report"]["elapsed_seconds"]
        expected = json.dumps({key: json_reference(h), "report": ref}) + "\n"
    if text != expected:  # pytest's own diff of two long lines takes minutes
        i = len(os.path.commonprefix([text, expected]))
        j = max(i - 30, 0)
        pytest.fail(f"differs at offset {i}: {text[j:i + 30]!r} != {expected[j:i + 30]!r}")


@pytest.mark.parametrize("argv", [
    ["solve-slab", "--input", fixture("slab_basic.json")],
    ["solve-diffeq", "--input", fixture("diffeq_basic.json")],
    ["verify", "--input", fixture("verify_good.json")],
    ["oracle-compare", "--input", fixture("diffeq_oracle.json")],
    ["eval", "--input", fixture("poly_saddle.json"), "--grid", "t=0:1:1,y1=0:1:1"],
])
def test_unwritable_output_exits_2_in_one_line(argv, tmp_path, capsys):
    # no parent; a directory; a NUL byte, for which open() raises ValueError;
    # a control character, which the message escapes
    for out in map(str, (tmp_path / "missing" / "out.json", tmp_path, tmp_path / "a\x00b",
                         tmp_path / "missing" / "a\x01b")):
        assert main(argv + ["--output", out, "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out!r}: ")
        assert captured.err.count("\n") == 1 and captured.err[:-1].isprintable()


@pytest.mark.parametrize("argv", [
    ["solve-slab"],
    ["solve-diffeq"],
    ["verify"],
    ["oracle-compare"],
    ["eval", "--grid", "t=0:1:1,y1=0:1:1"],
])
def test_unreadable_input_exits_2_in_one_line_naming_the_path(argv, tmp_path, capsys):
    # no such file; a directory; a NUL byte, for which open() raises
    # ValueError; a control character, which the message escapes; a file
    # that is not UTF-8
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"d": 1, "g": "\xff"}')
    for path in map(str, (tmp_path / "missing.json", tmp_path, tmp_path / "a\x00b",
                          tmp_path / "a\x01b", not_utf8)):
        assert main(argv + ["--input", path, "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {path!r}: "), captured.err
        assert captured.err.count("\n") == 1 and captured.err[:-1].isprintable()
    assert "'utf-8' codec can't decode byte 0xff" in captured.err


@pytest.mark.parametrize("argv", [
    ["solve-slab"],
    ["solve-diffeq"],
    ["verify"],
    ["oracle-compare"],
    ["eval", "--grid", "t=0:1:1,y1=0:1:1"],
])
def test_malformed_input_error_names_the_path_with_repr(argv, tmp_path, capsys):
    # a control character in the name, which the message escapes, on a file
    # whose top-level value is no object and on one holding an integer over
    # the digit bound
    for name, text in (("a\x01b.json", "[]"), ("c\x01d.json", "7" * 100_001)):
        path = str(tmp_path / name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert main(argv + ["--input", path, "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and repr(path) in captured.err, captured.err
        assert captured.err.count("\n") == 1 and captured.err[:-1].isprintable()


@pytest.mark.parametrize("argv", [
    ["solve-slab", "--input", fixture("slab_basic.json")],
    ["solve-diffeq", "--input", fixture("diffeq_basic.json")],
    ["verify", "--input", fixture("verify_good.json")],
    ["oracle-compare", "--input", fixture("diffeq_oracle.json")],
    ["eval", "--input", fixture("poly_saddle.json"), "--grid", "t=0:1:1,y1=0:1:1"],
    ["self-test", "--rounds", "1"],
])
def test_closed_stdout_exits_2_in_one_line(argv):
    # stdout is a pipe whose read end is closed before the command starts
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_module(argv, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert err.startswith("error: cannot write to stdout: ") and err.count("\n") == 1, err


@pytest.fixture
def gc_back_on():
    """Switch the collector back on after the test, whatever the test left."""
    yield
    gc.enable()


def _closed_stdout(monkeypatch):
    """Point sys.stdout at a pipe whose read end is closed; the file to close."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    pipe = open(write_end, "w", encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", pipe)
    return pipe


@pytest.mark.usefixtures("gc_back_on")
@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, outcome", [
    (["verify", "--input", fixture("verify_good.json"), "--quiet"], 0),
    (["verify", "--input", fixture("verify_tampered.json"), "--quiet"], 1),
    (["verify", "--input", "missing.json"], 2),
    (["self-test", "--rounds", "0"], "closed stdout"),
    (["verify", "--bogus"], SystemExit),
    (["oracle-compare", "--input", "x"], RuntimeError),  # its handler raises
], ids=["code 0", "code 1", "code 2", "closed stdout", "usage error", "handler raises"])
def test_main_gives_back_the_collector_state_it_found(argv, outcome, enabled, monkeypatch, tmp_path):
    # the command runs with the collector paused, and every way out of main
    # leaves it as the caller had it
    seen = []

    def handler(args):
        seen.append(gc.isenabled())
        raise RuntimeError("handler failed")

    monkeypatch.setitem(cli._COMMANDS, "oracle-compare", (handler, cli._COMMANDS["oracle-compare"][1]))
    monkeypatch.chdir(tmp_path)  # where missing.json is missing
    pipe = _closed_stdout(monkeypatch) if outcome == "closed stdout" else None
    gc.enable() if enabled else gc.disable()
    try:
        if isinstance(outcome, type):
            with pytest.raises(outcome):
                main(argv)
        else:
            assert main(argv) == (2 if pipe else outcome)
    finally:
        if pipe:
            pipe.close()  # its fd now writes to /dev/null
    assert gc.isenabled() is enabled
    assert seen == ([False] if outcome is RuntimeError else [])


@pytest.mark.parametrize("argv, expected", [
    (["solve-slab", "--input", fixture("slab_basic.json"), "--output", "{out}"], 0),
    (["solve-diffeq", "--input", fixture("diffeq_basic.json"), "--output", "{out}"], 0),
    (["oracle-compare", "--input", fixture("diffeq_oracle.json"), "--output", "{out}"], 0),
    (["verify", "--input", fixture("verify_good.json"), "--output", "{out}"], 0),
    (["verify", "--input", fixture("verify_tampered.json"), "--output", "{out}"], 1),
    (["eval", "--input", fixture("poly_saddle.json"), "--grid", _GRID, "--output", "{out}"], 0),
    (["self-test", "--rounds", "2"], 0),
    (["solve-slab", "--input", "{bad}"], 2),
])
@pytest.mark.usefixtures("gc_back_on")
def test_a_command_leaves_nothing_for_the_collector(argv, expected, tmp_path, capsys):
    # the premise of pausing the collector: what a command builds holds no
    # reference cycle, so reference counting frees all of it
    bad = tmp_path / "bad.json"  # a coefficient that is no number
    f0 = {"d": 1, "terms": [{"coeff": "x", "exps": [0, 1]}]}
    bad.write_text(json.dumps({"a": "0", "b": "1", "d": 1, "f0": f0, "f1": {"d": 1, "terms": []}}))
    argv = [token.format(out=tmp_path / "out", bad=bad) for token in argv]
    gc.disable()
    gc.collect()
    assert main(argv) == expected
    assert gc.collect() == 0


@pytest.mark.usefixtures("gc_back_on")
def test_a_large_verify_starts_no_collection(tmp_path, capsys):
    # a dense d = 3, degree 12 slab: its solution has over 2,000 terms, and
    # the collector would start some dozens of times reading and checking it
    rng = random.Random(3)

    def dense(n):
        exps = (e for e in itertools.product(range(n + 1), repeat=3) if sum(e) <= n)
        return MultiPoly(3, {(0, *e): rng.randint(1, 9) for e in exps})

    prob = slab.SlabProblem(F(0), F(1), 3, dense(12), dense(12))
    h = slab.solve_slab(prob)
    assert len(h.terms) >= 2000
    bundle = tmp_path / "bundle.json"
    bundle.write_text('{"kind": "slab", "problem": %s, "h": %s}'
                      % (json.dumps(prob.to_json_dict()), h.to_json_text()))
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.enable()
    gc.callbacks.append(count)
    try:
        assert main(["verify", "--input", str(bundle), "--quiet"]) == 0
    finally:
        gc.callbacks.remove(count)
    assert starts == []
