"""The mutation kill matrix: small wrong edits of the program that the
tier-1 tests must catch (DeMillo, Lipton & Sayward 1978).

Usage, from any directory:

    python tests/mutants.py            # each mutant's first catching test
    python tests/mutants.py --all      # how many tests catch each mutant
    python tests/mutants.py NAME ...   # only the mutants named

A mutant is (name, file, old text, new text, what it breaks, tests run).
Each one runs alone, one after the other, in a fresh copy of the tree in a
temporary directory, so the tree itself is never changed.  A mutant whose
old text does not occur exactly once in its file is reported as stale and
not run.  Without --all, pytest stops at the first failure (-x); with it,
every test runs, and a mutant that only one test catches is a thin spot.
The exit code is 1 if a mutant survives or the unmutated tree fails.

Standard library only; pytest does not collect this file (no test_ prefix).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900  # per run; a mutant that hangs the suite counts as caught


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    breaks: str
    tests: tuple[str, ...] = ()  # pytest arguments; () is all of tier-1


INDEPENDENT = ("tests/test_independent_check.py",)

MUTANTS = [
    Mutant(
        "wall-sign", "src/slab_harmonics/laplace.py",
        "        den *= k * (k + 1)\n        sign = -sign",
        "        den *= k * (k + 1)\n        sign = sign",
        "_wall_quotients' sign (-1)^m never flips",
    ),
    Mutant(
        "ck-sign-even", "src/slab_harmonics/poly.py",
        "m if n % 4 < 2 else -m", "m if n % 4 < 3 else -m",
        "the CK kernel's t^(4k+2) terms have the wrong sign",
    ),
    Mutant(
        "ck-sign-odd", "src/slab_harmonics/poly.py",
        "m if n % 4 < 2 else -m", "m if n % 4 < 2 or n % 4 == 3 else -m",
        "the CK kernel's t^(4k+3) terms have the wrong sign",
    ),
    Mutant(
        "laplacian-weight", "src/slab_harmonics/poly.py",
        "weights = [(k + 2) * (k + 1) for k in range(length)]",
        "weights = [(k + 2) * (k + 2) for k in range(length)]",
        "the grouped Laplacian's d2/dt2 weight",
    ),
    Mutant(
        "fill-weight", "src/slab_harmonics/poly.py",
        "j is None else j, n * (n - 1)))", "j is None else j, n * (n + 1)))",
        "an index target's Laplacian weight (_fill)",
    ),
    Mutant(
        "traces-horner", "src/slab_harmonics/poly.py",
        "v = v * p + a[k] * powers[m - k]", "v = v * p + a[k] * powers[m - k - 1]",
        "a Horner step of traces",
    ),
    Mutant(
        "shift-drops-t3", "src/slab_harmonics/poly.py",
        "                if a[j]:\n                    out[(j,) + rest] = a[j] * qj",
        "                if a[j] and j != 3:\n                    out[(j,) + rest] = a[j] * qj",
        "shift_t drops its t^3 terms",
    ),
    Mutant(
        "eval-reversed-point", "src/slab_harmonics/poly.py",
        "map(pow, xs, e)", "map(pow, reversed(xs), e)",
        "eval_exact pairs the exponents with the point reversed",
    ),
    Mutant(
        "json-negative-exponent", "src/slab_harmonics/poly.py",
        "map(type, flat)) and min(flat, default=0) >= 0):", "map(type, flat))):",
        "_json_terms accepts negative exponents",
    ),
    Mutant(
        "check-exps-type", "src/slab_harmonics/poly.py",
        "    if not {int}.issuperset(map(type, exps)):  # no float, no bool\n"
        '        raise ValueError(f"exponents must be integers: {exps!r}")\n',
        "",
        "the constructor takes float and bool exponents",
    ),
    Mutant(
        "variables-unit-index", "src/slab_harmonics/poly.py",
        "{(0,) * i + (1,) + (0,) * (d - i): 1}", "{(0,) * (d - i) + (1,) + (0,) * i: 1}",
        "variables(d) gives (yd, ..., y1, t)",
    ),
    Mutant(
        "zero-laplacian-cycle", "src/slab_harmonics/poly.py",
        '        object.__setattr__(self, "_lap", lap)\n',
        '        object.__setattr__(self, "_lap", lap)\n'
        "        if lap.is_zero:\n"
        '            object.__setattr__(lap, "_lap", lap)\n',
        "a zero Laplacian keeps itself, a reference cycle for the collector",
    ),
    Mutant(
        "height-c-not-inverse", "src/slab_harmonics/laplace.py",
        "top, bottom = (v, u) if u > 0 else (-v, -u)", "top, bottom = u, v",
        "_height_series meets the table at c^(2k+1), not c^(2k-1)",
    ),
    Mutant(
        "s-x-denominator", "src/slab_harmonics/laplace.py",
        "s_table.append((sign * s * x.numerator, den * x.denominator))",
        "s_table.append((sign * s * x.numerator, den))",
        "S_x / S_w without x's denominator",
    ),
    Mutant(
        "tangent-step", "src/slab_harmonics/laplace.py",
        "(j - k + 2) * tan[j]", "(j - k + 1) * tan[j]",
        "a step of _cot_series' tangent-number recurrence",
    ),
    Mutant(
        "cot-sign", "src/slab_harmonics/laplace.py",
        "(-2 * tan[k], ", "(2 * tan[k], ",
        "K_k for k >= 1 has the wrong sign",
    ),
    Mutant(
        "poisson-q", "src/slab_harmonics/laplace.py",
        "2 * (k + 1) * (2 * (j + k) + d)", "2 * (k + 1) * (2 * (j + k) + d + 1)",
        "the Poisson solve's q_k",
    ),
    Mutant(
        "cauchy-residual-skip", "src/slab_harmonics/diffeq.py",
        "        if sum(a[1:]) * g_den != g0 * h_den:\n            return False\n", "",
        "_cauchy_residuals_vanish skips its r(0,y) check",
    ),
    Mutant(
        "wall-a-zero-branch", "src/slab_harmonics/slab.py",
        "u0 = prob.f0 if not prob.a else", "u0 = prob.f0 if prob.a >= 0 else",
        "solve_slab takes u0 = f0 at every wall a >= 0, not only at a = 0",
    ),
    Mutant(
        "trace-at-b-zero", "src/slab_harmonics/slab.py",
        '"trace_at_b": zero if at_b == prob.f1 else at_b - prob.f1,', '"trace_at_b": zero,',
        "verify_boundary's trace_at_b is always zero",
    ),
    Mutant(
        "oracle-term", "src/slab_harmonics/complex_oracle.py",
        "for i, b in enumerate(bs[j + 1][0]):", "for i, b in enumerate(bs[j][0]):",
        "the oracle maps t^j to B_j, not B_(j+1)",
    ),
    Mutant(
        "oracle-swap-yd", "src/slab_harmonics/complex_oracle.py",
        "{(e[1], e[0]) + e[2:]: v", "{(e[-1],) + e[1:-1] + (e[0],): v",
        "the oracle swaps t with yd, not y1",
    ),
    Mutant(
        "status-always-pass", "src/slab_harmonics/report.py",
        "return PASS if self.passed else FAIL", "return PASS",
        "a report's status is always pass",
    ),
    Mutant(
        "passed-as-any", "src/slab_harmonics/report.py",
        "return all(r.is_zero for r in self.residuals.values())",
        "return any(r.is_zero for r in self.residuals.values())",
        "a report passes when any residual is zero",
    ),
    Mutant(
        "gc-always-enabled", "src/slab_harmonics/cli.py",
        "        if self.was_enabled:\n            gc.enable()", "        gc.enable()",
        "_gc_paused switches the collector on even if it was off",
    ),
    Mutant(
        "check-slab-trace", "bench/check.py",
        "got, want = h([wall] + y), f([0] + y)", "got, want = h([wall] + y), h([wall] + y)",
        "the independent slab check never compares a trace",
        INDEPENDENT,
    ),
    Mutant(
        "check-diffeq-difference", "bench/check.py",
        "        if lhs != rhs:\n", "        if False:\n",
        "the independent diffeq check never compares a difference",
        INDEPENDENT,
    ),
    Mutant(
        "check-oracle-r", "bench/check.py",
        "        if h(pt) - ho(pt) != r(pt):\n", "        if False:\n",
        "the independent oracle check never compares h - h_oracle with r",
        INDEPENDENT,
    ),
    Mutant(
        "check-harmonic", "bench/check.py",
        "if (lap := h.laplacian(pt))", "if (lap := h.laplacian(pt)) and False",
        "the independent check never reports a nonzero Laplacian",
        INDEPENDENT,
    ),
    Mutant(
        "check-laplacian-series", "bench/check.py",
        "second += 2 * (-1) ** k * harmonic_number", "second += 2 * (-1) ** (k + 1) * harmonic_number",
        "the independent Laplacian's forward-difference series has the wrong sign",
        INDEPENDENT,
    ),
]


def _copy_tree(dest: Path) -> Path:
    """A copy of the tree under dest, without version control, caches or
    benchmark output."""

    def ignore(directory: str, names: list[str]) -> set[str]:
        skip = {".git", "__pycache__", ".hypothesis", ".pytest_cache"}
        if Path(directory) == ROOT / "bench":
            skip.add("out")
        return skip.intersection(names)

    tree = dest / "tree"
    shutil.copytree(ROOT, tree, ignore=ignore)
    return tree


def _pytest(tree: Path, tests: tuple[str, ...], stop_first: bool) -> tuple[list[str], float, bool]:
    """(failing test ids in order, seconds, timed out) of one pytest run in
    tree."""
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
        "--continue-on-collection-errors", *(["-x"] if stop_first else []), *tests,
    ]
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [], time.perf_counter() - start, True
    failed = [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in out.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    if out.returncode and not failed:  # a crash that pytest could not report
        failed = [f"pytest exit code {out.returncode}"]
    return failed, time.perf_counter() - start, False


def run(mutant: Mutant, every: bool) -> tuple[str, str]:
    """(status, detail) of one mutant: stale, caught, timeout or SURVIVED."""
    source = (ROOT / mutant.path).read_text(encoding="utf-8")
    count = source.count(mutant.old)
    if count != 1:
        return "stale", f"old text occurs {count} times in {mutant.path}"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = _copy_tree(Path(tmp))
        (tree / mutant.path).write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
        failed, seconds, timed_out = _pytest(tree, mutant.tests, not every)
    if timed_out:
        return "timeout", f"no result in {seconds:.0f} s"
    if not failed:
        return "SURVIVED", f"{seconds:.1f} s"
    caught_by = f"{len(failed)} tests, first " if every else ""
    return "caught", f"{seconds:.1f} s, {caught_by}{failed[0]}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    parser.add_argument("--all", action="store_true", help="run every test and count those that catch")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]

    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        failed, seconds, timed_out = _pytest(_copy_tree(Path(tmp)), (), True)
    if failed or timed_out:
        print(f"the unmutated tree fails ({failed[:1] or 'timeout'}); no mutant was run")
        return 1
    print(f"unmutated tree passes in {seconds:.1f} s")

    survived = 0
    for mutant in chosen:
        status, detail = run(mutant, args.all)
        survived += status == "SURVIVED"
        print(f"{status:8} {mutant.name:24} {mutant.breaks}: {detail}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
