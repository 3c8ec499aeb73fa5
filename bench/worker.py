"""Runs one workload's commands in this process, one at a time.

Usage: python worker.py PLAN.json RESULT.json

The plan lists passes of problems (see gen.write_pass).  For each problem the
worker calls `slab_harmonics.cli.main` with solve-slab or solve-diffeq, then
verify on the bundle the solve wrote, then oracle-compare where the plan asks
for it.  Only the `main` calls are timed; building the bundle and collecting
garbage between passes are not.  Unless the plan traces, a `speed.Probe`
samples the CPU's speed throughout, and each command's time is also given
at the probe's reference speed (`ref_s`).  Passes run until `seconds` have
gone by, with at least `min_passes` of them, and never start one that the
last pass's length says would end past the budget.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

SOLVE = {"slab": "solve-slab", "diffeq": "solve-diffeq"}


def run_command(cli, argv: list[str]) -> tuple[tuple[float, float], object]:
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse and sys.exit
        code = f"SystemExit({exc.code})"
    except Exception as exc:  # the benchmark must record a crash, not stop
        code = f"{type(exc).__name__}: {exc}"[:500]
    return (start, time.perf_counter()), code


def run_problem(cli, entry: dict, pass_index: int, records: list) -> None:
    stem = entry["input"][: -len(".json")]
    solve_out = f"{stem}.solve.json"
    span, code = run_command(cli, [SOLVE[entry["kind"]], "--input", entry["input"], "--output", solve_out, "--quiet"])
    records.append({"pass": pass_index, "id": entry["id"], "cmd": "solve", "span": span, "code": code, "out": solve_out})
    try:
        with open(solve_out, encoding="utf-8") as fh:
            solved = json.load(fh)
        with open(entry["input"], encoding="utf-8") as fh:
            problem = json.load(fh)
        h = solved["solution"] if entry["kind"] == "slab" else solved["h"]
    except (OSError, ValueError, KeyError):
        records.append({"pass": pass_index, "id": entry["id"], "cmd": "verify", "span": (0.0, 0.0), "code": "no solution to verify"})
    else:
        bundle = f"{stem}.bundle.json"
        Path(bundle).write_text(json.dumps({"kind": entry["kind"], "problem": problem, "h": h}), encoding="utf-8")
        span, code = run_command(cli, ["verify", "--input", bundle, "--quiet"])
        records.append({"pass": pass_index, "id": entry["id"], "cmd": "verify", "span": span, "code": code})
    if entry["oracle"]:
        oracle_out = f"{stem}.oracle.json"
        span, code = run_command(cli, ["oracle-compare", "--input", entry["input"], "--output", oracle_out, "--quiet"])
        records.append({"pass": pass_index, "id": entry["id"], "cmd": "oracle", "span": span, "code": code, "out": oracle_out})


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    src = str(Path(plan["src"]).resolve())
    sys.path.insert(0, src)
    from slab_harmonics import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"slab_harmonics imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = probe = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        from speed import Probe

        probe = Probe()
        probe.start()
    records: list[dict] = []
    start = time.perf_counter()
    last = 0.0
    for pass_index, entries in enumerate(plan["passes"]):
        elapsed = time.perf_counter() - start
        if pass_index >= plan["min_passes"] and elapsed + last > plan["seconds"]:
            break
        gc.collect()
        pass_start = time.perf_counter()
        for entry in entries:
            run_problem(cli, entry, pass_index, records)
        last = time.perf_counter() - pass_start
    if probe:
        probe.stop()
    for rec in records:
        start, end = rec.pop("span")
        rec["s"] = end - start
        if probe:
            rec["ref_s"] = probe.scale(start, end) if end > start else 0.0
    result = {"records": records, "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        tracer.uninstall()
        result["spans"] = tracer.summary()
        result["terms_in"] = tracer.terms_in
        tracer.write(plan["spans_path"])
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
