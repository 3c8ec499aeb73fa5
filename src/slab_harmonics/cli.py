"""Command-line front end.

Commands:
    solve-slab      solve a slab Dirichlet problem from a JSON file
    solve-diffeq    solve the difference equation for a harmonic g
    verify          re-check a stored solution against its problem
    oracle-compare  compare the general solver against the Bernoulli route
    eval            sample a polynomial on a float grid, CSV output
    self-test       seeded randomized identity checks (SLAB_HARMONICS_SEED)

Exit codes: 0 all checks pass, 1 verification failure, 2 malformed input
(or an output file that cannot be written).

A plain command line (each option spelled in full, once) is read without
argparse, which loads only for any other spelling and for help.  Each command
runs with the cyclic garbage collector paused, and `main` gives a caller the
collector's state back on every exit: the data a command builds hold no
reference cycles, so reference counting frees them all.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import sys
import types
from collections.abc import Callable
from fractions import Fraction

from . import diffeq as de
from . import slab as sl
from .complex_oracle import oracle_compare
from .poly import MultiPoly, _int_digits, _json_keys
from .report import VerificationReport

# The most decimal digits an integer in an input file may have: Python's
# str -> int conversion takes quadratic time (about 0.06 s at this size).
# Output is not limited, so a solve never fails after the work is done;
# `verify` reads such a solution back only within this bound.
_MAX_INPUT_DIGITS = 100_000

# The most points an `eval` grid may have: the CSV is built in memory, and a
# million rows of a d = 1 polynomial take about 3 s and 110 MB.
_MAX_GRID_POINTS = 1_000_000


class InputError(Exception):
    """Malformed or invalid input file; maps to exit code 2."""


class _gc_paused:
    """Pause the cyclic garbage collector for a `with` block, then restore the
    state it found.  A command's data are acyclic, so reference counting
    frees all of it, and each collection would only scan containers that
    stay alive until the command ends."""

    def __enter__(self):
        self.was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info):
        if self.was_enabled:
            gc.enable()


def _read_input(path: str, parse: Callable[[dict], object]):
    """Load the JSON object in file `path` and parse it; a file that cannot
    be read, malformed content and an integer over _MAX_INPUT_DIGITS digits
    raise InputError, which `main` turns into exit code 2."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path, or not UTF-8
        raise InputError(f"cannot read {path!r}: {exc}") from exc
    try:
        with _int_digits(_MAX_INPUT_DIGITS):
            obj = json.loads(text)
            if not isinstance(obj, dict):
                raise InputError(f"{path!r}: top-level JSON value must be an object")
            return parse(obj)
    except json.JSONDecodeError as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"cannot read {path!r}: JSON nested too deeply") from exc
    except KeyError as exc:
        raise InputError(f"missing key {exc}") from exc
    except ValueError as exc:
        if str(exc).startswith("Exceeds the limit"):  # Python's int <-> str limit
            raise InputError(
                f"{path!r} holds an integer of more than {_MAX_INPUT_DIGITS:,} digits, "
                "the bound for input files"
            ) from exc
        raise InputError(str(exc)) from exc


def _write(path: str | None, text: str, quiet: bool) -> None:
    """Write `text` to `path`, or to stdout unless quiet; a path that cannot
    be written raises InputError, which `main` turns into exit code 2."""
    if not path:
        if not quiet:
            sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise InputError(f"cannot write {path!r}: {exc}") from exc


def _write_solution(args, key: str, h: MultiPoly, report: VerificationReport) -> None:
    """Write {key: h, "report": report} as one line of JSON to --output, or
    to stdout unless --quiet."""
    text = '{"%s": %s, "report": %s}\n' % (key, h.to_json_text(), report.to_json_text())
    _write(args.output, text, args.quiet)


def _report_exit(report: VerificationReport, quiet: bool) -> int:
    if report.passed:
        if not quiet:
            print(f"{report.name}: pass")
        return 0
    print(f"{report.name}: {report.status}", file=sys.stderr)
    for key, residual in report.nonzero_residuals().items():
        print(f"  residual {key}: {residual}", file=sys.stderr)
    return 1


def cmd_solve_slab(args) -> int:
    prob = _read_input(args.input, sl.SlabProblem.from_json_dict)
    h = sl.solve_slab(prob)
    report = sl.verify_boundary(h, prob)
    _write_solution(args, "solution", h, report)
    return _report_exit(report, args.quiet)


def cmd_solve_diffeq(args) -> int:
    prob = _read_input(args.input, de.DiffEqProblem.from_json_dict)
    h = de.solve(prob)
    report = de.verify_difference(h, prob.g)
    _write_solution(args, "h", h, report)
    return _report_exit(report, args.quiet)


def _check_bundle(obj: dict) -> VerificationReport:
    _json_keys(obj, "a verify bundle", {"kind", "problem", "h"})
    kind = obj["kind"]
    h = MultiPoly.from_json_dict(obj["h"])
    if kind == "slab":
        return sl.verify_boundary(h, sl.SlabProblem.from_json_dict(obj["problem"]))
    if kind == "diffeq":
        return de.verify_difference(h, de.DiffEqProblem.from_json_dict(obj["problem"]).g)
    raise InputError(f"unknown problem kind {kind!r}")


def cmd_verify(args) -> int:
    # the check runs inside the reader: an h of another d than its problem
    # raises ValueError there, and that is malformed input
    report = _read_input(args.input, _check_bundle)
    if args.output:
        _write(args.output, report.to_json_text() + "\n", args.quiet)
    return _report_exit(report, args.quiet)


def cmd_oracle_compare(args) -> int:
    prob = _read_input(args.input, de.DiffEqProblem.from_json_dict)
    h = de.solve(prob)
    report = oracle_compare(prob.g, h)
    _write_solution(args, "solution", h, report)
    if report.passed and not args.quiet:
        print(f"r(y) = {report.extras['r']}")
    return _report_exit(report, args.quiet)


def _parse_grid(spec: str, d: int) -> list[list[float]]:
    """Parse "t=lo:hi:step,y1=lo:hi:step,..." into per-variable sample lists
    lo, lo + step, ..., up to hi; a grid of more than _MAX_GRID_POINTS points
    is rejected before any list is built."""
    parts = spec.split(",")
    if len(parts) < d + 1:  # before listing the names, which may be too many
        raise InputError(f"grid is missing variables: {len(parts)} given, {d + 1} needed")
    names = ["t"] + [f"y{j}" for j in range(1, d + 1)]
    axes: dict[str, tuple[float, float, int]] = {}  # (lo, step, number of points)
    for part in parts:
        try:
            name, rng = part.split("=")
            lo, hi, step = (float(v) for v in rng.split(":"))
        except ValueError as exc:
            raise InputError(f"malformed grid component {part!r}") from exc
        if not step > 0:  # also NaN
            raise InputError(f"grid step must be positive in {part!r}")
        if not (lo <= hi) or any(x != x or abs(x) == float("inf") for x in (lo, hi)):
            raise InputError(f"empty or non-finite grid range in {part!r}")
        if name not in names:
            raise InputError(f"unknown grid variable {name!r} (expected {names})")
        if name in axes:
            raise InputError(f"grid variable {name!r} is given twice")
        # capped, so a range too long for a float count is over the bound too
        count = int(min((hi - lo) / step + 1e-9, _MAX_GRID_POINTS)) + 1
        axes[name] = (lo, step, count)
    missing = [n for n in names if n not in axes]
    if missing:
        raise InputError(f"grid is missing variables: {missing}")
    if math.prod(axes[n][2] for n in names) > _MAX_GRID_POINTS:
        raise InputError(f"grid has more than {_MAX_GRID_POINTS:,} points, the bound for eval")
    return [[lo + i * step for i in range(count)] for lo, step, count in map(axes.get, names)]


def cmd_eval(args) -> int:
    p = _read_input(args.input, MultiPoly.from_json_dict)
    axes = _parse_grid(args.grid, p.d)
    names = ["t"] + [f"y{j}" for j in range(1, p.d + 1)]
    lines = [",".join(names + ["value"])]
    for point in map(list, itertools.product(*axes)):
        try:
            value = p.eval_float(point)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise InputError(f"float evaluation at {point} overflows")
        lines.append(",".join(f"{v:.17g}" for v in point + [value]))
    _write(args.output, "\n".join(lines) + "\n", args.quiet)
    return 0


def cmd_self_test(args) -> int:
    import random  # here, so that no other command loads it at start

    from .randgen import random_harmonic_poly, random_tfree_poly

    text = os.environ.get("SLAB_HARMONICS_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        raise InputError(f"SLAB_HARMONICS_SEED must be an integer, got {text!r}") from None
    rng = random.Random(seed)
    failures = 0
    rounds = args.rounds
    if rounds < 0:
        raise InputError(f"--rounds must be >= 0, got {rounds}")
    for i in range(rounds):
        d = rng.randint(1, 3)
        f0 = random_tfree_poly(rng, d, 6)
        f1 = random_tfree_poly(rng, d, 6)
        slab = sl.SlabProblem(Fraction(0), Fraction(1), d, f0, f1)
        diffeq = de.DiffEqProblem(random_harmonic_poly(rng, d, 6), d)
        for kind, prob, report in (
            ("slab", slab, sl.verify_boundary(sl.solve_slab(slab), slab)),
            ("diffeq", diffeq, de.verify_difference(de.solve(diffeq), diffeq.g)),
        ):
            if not report.passed:
                failures += 1
                # one line; the problem JSON replays through solve-<kind>
                problem = json.dumps(prob.to_json_dict())
                print(f"self-test {kind} round {i} seed={seed}: FAIL {problem}", file=sys.stderr)
    if not args.quiet:
        print(f"self-test: {2 * rounds - failures}/{2 * rounds} checks passed (seed={seed})")
    return 1 if failures else 0


_FILES = {
    "input": {"required": True, "help": "input JSON file"},
    "output": {"help": "output file (default: stdout)"},
}
_GRID = {"grid": {"required": True, "help": 'sampling grid, e.g. "t=0:1:0.5,y1=-1:1:0.5"'}}
_QUIET = {"quiet": {"action": "store_true", "default": False}}

# name -> (handler, its options --<dest> as {dest: add_argument keywords}), in help order
_COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], int], dict[str, dict]]] = {
    "solve-slab": (cmd_solve_slab, {**_FILES, **_QUIET}),
    "solve-diffeq": (cmd_solve_diffeq, {**_FILES, **_QUIET}),
    "verify": (cmd_verify, {**_FILES, **_QUIET}),
    "oracle-compare": (cmd_oracle_compare, {**_FILES, **_QUIET}),
    "eval": (cmd_eval, {**_FILES, **_GRID, **_QUIET}),
    "self-test": (cmd_self_test, {**_QUIET, "rounds": {"type": int, "default": 20}}),
}


def _add_options(parser: argparse.ArgumentParser, name: str) -> None:
    """Give `parser` the options of command `name`."""
    func, options = _COMMANDS[name]
    for dest, keywords in options.items():
        parser.add_argument(f"--{dest}", **keywords)
    parser.set_defaults(func=func, command=name)


def _scan(argv: list[str]) -> types.SimpleNamespace | None:
    """The attributes of the Namespace command `argv[0]`'s parser gives when
    each option is one it takes, in full and once, and no value starts with
    "-" (--rounds: ASCII digits); None for any other command line, which is
    left to argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, options = _COMMANDS[argv[0]]
    given: dict[str, object] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        dest = token[2:]
        if not token.startswith("--") or dest not in options or dest in given:
            return None
        keywords = options[dest]
        if "action" in keywords:  # --quiet
            given[dest] = True
            continue
        value = next(tokens, "-")  # a missing value is declined as "-" is
        if value.startswith("-"):
            return None
        if "type" in keywords:  # --rounds
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # over Python's int <-> str digit limit
                return None
        given[dest] = value
    if any(kw.get("required") and dest not in given for dest, kw in options.items()):
        return None
    values = {dest: given.get(dest, kw.get("default")) for dest, kw in options.items()}
    return types.SimpleNamespace(**values, func=func, command=argv[0])


def build_parser() -> argparse.ArgumentParser:
    """The full parser: top-level help and the error for an unknown command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="slab-harmonics",
        description="Exact slab Dirichlet and harmonic difference-equation solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_options(sub.add_parser(name), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a plain command line needs no parser, nor argparse itself: building a
    # parser and parsing takes about 0.16 ms, scanning 5 us
    args = _scan(argv)
    if args is None and argv and argv[0] in _COMMANDS:
        import argparse

        # build the invoked command's parser alone: building the full one
        # (seven parsers) takes about 1 ms, twenty times the parse itself
        name = argv[0]
        parser = argparse.ArgumentParser(prog=f"slab-harmonics {name}")
        _add_options(parser, name)
        args = parser.parse_args(argv[1:])
    elif args is None:
        args = build_parser().parse_args(argv)
    try:
        with _int_digits(0), _gc_paused():
            code = args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at exit
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        # the reader of stdout has gone; send what is still buffered to
        # /dev/null, or the interpreter's flush at exit fails once more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
