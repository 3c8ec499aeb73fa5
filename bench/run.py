"""Seeded, checked benchmark of the slab-harmonics CLI.

Usage (from any directory):

    python3 bench/run.py --workload small-mix --seed 1 --seconds 25 --trace 0

Set-up, untimed apart from `setup_s`: time a fresh interpreter running
`python -m slab_harmonics.cli self-test --rounds 0 --quiet` several times,
then write the workload's seeded inputs under bench/out/.  The workload then
runs in its own fresh process (worker.py), which calls the CLI's `main`
in-process, one command at a time.  Every output is checked afterwards with
check.py, which shares no code with the program.  The end-to-end timings are
given at a reference CPU speed (speed.py; `setup_s` against a bare
interpreter's start), so that the shared machine's changing speed cancels
out.

--trace 0 prints the end-to-end metrics; --trace 1 runs pass 0 four times,
untraced and traced by turns, and prints the per-layer metrics.  The last
line of standard output is the JSON result; a fuller record goes to
bench/out/<workload>-s<seed>-t<trace>.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen
from tracer import NAMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
PINS = BENCH / "pins.json"

# Passes written per run: enough to fill the time budget with room to spare.
MAX_PASSES = {"small-mix": 10, "dense-multivar": 12, "high-degree-1d": 8}
MIN_PASSES = 3
SETUP_RUNS = 21
# The yardstick for `setup_s`, and its time at the reference speed.
BARE_START = "import argparse, dataclasses, fractions, json, math, pathlib, random, typing"
BARE_START_REF_S = 0.08
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END_UNITS = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "solve_p50_s": "s",
    "verify_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


def program_env() -> dict:
    """The caller's environment, importing the program from this checkout.

    Bytecode writing is switched on whatever the caller says, so that
    `setup_s` measures a start with a bytecode cache, as an installed
    package has.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def measure_setup(env: dict, deadline: float) -> tuple[float, float]:
    """Median start-up time of a fresh CLI process that does no work, at the
    reference speed and as measured.

    Each start of the CLI follows a start of a bare interpreter that imports
    the standard-library modules the CLI uses, and is divided by it.  When
    the CPU slows down, a cold start slows less than speed.py's kernel, but
    as much as another cold start.  This process is pinned to one CPU
    meanwhile, so that both starts of a pair run on the same one.
    """
    cli = [sys.executable, "-m", "slab_harmonics.cli", "self-test", "--rounds", "0", "--quiet"]
    bare = [sys.executable, "-c", BARE_START]

    def start_up(cmd: list[str]) -> float:
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, timeout=deadline - time.monotonic())
        return time.perf_counter() - start

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    ratios, raw = [], []
    try:
        start_up(cli)  # writes the bytecode cache
        for _ in range(SETUP_RUNS):
            bare_s = start_up(bare)
            raw.append(start_up(cli))
            ratios.append(raw[-1] / bare_s)
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(ratios) * BARE_START_REF_S, statistics.median(raw)


def run_worker(plan: dict, work: Path, env: dict, deadline: float) -> dict:
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    with open(work / "worker.log", "w", encoding="utf-8") as log:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(result_path)],
            env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
            timeout=deadline - time.monotonic(),
        )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}; see {work / 'worker.log'}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_records(records: list, entries: dict, workload: str, seed: int, pins: dict) -> dict:
    """Mark each command record ok or not, and collect digests and sizes.

    A command fails when it does not exit 0, when its output fails an
    independent check, or when a slab solution's digest differs from its pin.
    A diffeq digest that differs from its pin is reported, not failed.
    """
    solutions: dict = {}
    digests: dict = {}
    changed: list = []
    sizes = []
    for rec in records:
        entry = entries[rec["id"]]
        failures = [] if rec["code"] == 0 else [f"exit {rec['code']}"]
        rng = random.Random(f"check:{workload}:{seed}:{rec['pass']}:{rec['id']}:{rec['cmd']}")
        try:
            problem = load_json(entry["input"])
            if rec["cmd"] == "solve" and not failures:
                out = load_json(rec["out"])
                if out.get("report", {}).get("status") != "pass":
                    failures.append("solve report status is not pass")
                h = out["solution"] if entry["kind"] == "slab" else out["h"]
                solutions[(rec["pass"], rec["id"])] = h
                failures += (check.check_slab if entry["kind"] == "slab" else check.check_diffeq)(problem, h, rng)
                key, value = check.json_digest(problem), check.digest(h)
                digests[key] = [entry["kind"], value, rec["pass"]]
                pinned = pins.get(entry["kind"], {}).get(key)
                if pinned and pinned != value:
                    if entry["kind"] == "slab":
                        failures.append(f"slab digest {value} differs from pin {pinned}")
                    else:
                        changed.append(rec["id"])
                sizes.append(check.size(h))
            elif rec["cmd"] == "oracle" and not failures:
                h = solutions.get((rec["pass"], rec["id"]))
                if h is None:
                    failures.append("no solve-diffeq solution to compare with")
                else:
                    failures += check.check_oracle(problem, load_json(rec["out"]), h, rng)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            failures.append(f"unreadable output: {type(exc).__name__}: {exc}")
        rec["ok"] = not failures
        if failures:
            rec["failures"] = failures[:3]
    return {"digests": digests, "changed": changed, "sizes": sizes}


def latency(records: list, key: str) -> dict:
    """p50: each problem's median over passes, geometric mean over problems.
    p90: over all samples, only where at least ten samples lie beyond it.

    A problem keeps its place, and nearly its cost, in every pass, so the
    samples form one group per problem.  A median over all samples can fall
    between two groups and jump between them from run to run; a median per
    problem cannot.  Commands that did not exit 0 are left out.
    """
    by_problem: dict = {}
    for r in records:
        if r["code"] == 0:
            by_problem.setdefault(r["id"].split("-", 1)[1], []).append(r[key])
    values = [s for group in by_problem.values() for s in group]
    out = {"n": len(values)}
    if values:
        out["p50_s"] = statistics.geometric_mean(statistics.median(g) for g in by_problem.values())
    if len(values) >= 100:
        out["p90_s"] = statistics.quantiles(values, n=10)[-1]
    return out


def latencies(records: list, key: str) -> dict:
    return {cmd: latency([r for r in records if r["cmd"] == cmd], key) for cmd in ("solve", "verify", "oracle")}


def pass_walls(records: list, key: str) -> list:
    walls: dict = {}
    for r in records:
        walls[r["pass"]] = walls.get(r["pass"], 0.0) + r[key]
    return [walls[p] for p in sorted(walls)]


def end_to_end(records: list, result: dict, setup_s: float) -> dict:
    """Timings at the reference speed (speed.py; setup_s: measure_setup)."""
    ok = sum(r["ok"] for r in records)
    lat = latencies(records, "ref_s")
    return {
        "wall_s": statistics.median(pass_walls(records, "ref_s")),
        "ops_per_s": ok / sum(r["ref_s"] for r in records),
        "solve_p50_s": lat["solve"].get("p50_s", 0.0),  # 0 only when every command failed
        "verify_p50_s": lat["verify"].get("p50_s", 0.0),
        "setup_s": setup_s,
        "peak_rss_mb": result["max_rss_kb"] / 1024,
        "pass_ratio": ok / len(records),
    }


def trace_counts(result: dict) -> dict:
    return {"calls": {n: row["calls"] for n, row in result["spans"].items()}, "terms_in": result["terms_in"]}


def per_layer(records: list, result: dict, inputs: dict, checked: dict, untraced_wall: float) -> dict:
    spans = result["spans"]
    metrics: dict = {}
    for name in NAMES:
        row = spans[name]
        metrics[f"{name}.calls"] = (row["calls"], "count")
        if name != "laplace.trace_operator":  # its calls count the Neumann steps
            metrics[f"{name}.total_s"] = (row["total_s"], "s")
            metrics[f"{name}.self_s"] = (row["self_s"], "s")
    metrics["poly.init.terms_in"] = (result["terms_in"], "count")
    diffeq_cmds = sum(1 for r in records if inputs[r["id"]]["kind"] == "diffeq")
    metrics["diffeq.verify_difference.calls_per_cmd"] = (
        spans["diffeq.verify_difference"]["calls"] / diffeq_cmds if diffeq_cmds else 0.0,
        "calls/cmd",
    )
    bytes_in = bytes_out = 0
    for r in records:
        entry = inputs[r["id"]]
        stem = entry["input"][: -len(".json")]
        read = Path(f"{stem}.bundle.json" if r["cmd"] == "verify" else entry["input"])
        bytes_in += read.stat().st_size if read.is_file() else 0
        if "out" in r and os.path.isfile(r["out"]):
            bytes_out += os.path.getsize(r["out"])
    metrics["cli.bytes_in"] = (bytes_in, "bytes")
    metrics["cli.bytes_out"] = (bytes_out, "bytes")
    sizes = checked["sizes"]
    metrics["out.terms"] = (sum(s[0] for s in sizes), "count")
    metrics["out.degree"] = (max(s[1] for s in sizes), "degree")
    metrics["out.coeff_bits_max"] = (max(s[2] for s in sizes), "bits")
    traced_wall = sum(r["s"] for r in records)
    self_sum = sum(spans[n]["self_s"] for n in NAMES)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.self_sum_s"] = (self_sum, "s")
    return metrics


def prepare(work: Path, passes: list) -> tuple[list, dict]:
    work.mkdir(parents=True)
    plan = [gen.write_pass(problems, work, i) for i, problems in enumerate(passes)]
    return plan, {e["id"]: e for entries in plan for e in entries}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "slab_harmonics" / "cli.py").is_file():
        print(f"error: no program to measure at {ROOT / 'src' / 'slab_harmonics'}", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # checks read coefficients of any size
    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.is_file() else {}
    env = program_env()
    work = OUT / f"work-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    spans_path = OUT / f"spans-{args.workload}.tsv"
    run_failures: list[str] = []  # failures of the run as a whole, not of one command
    key = "s" if args.trace else "ref_s"  # traced runs time without the speed probe

    def plan_for(entries: list, trace: bool, seconds: float, min_passes: int) -> dict:
        return {
            "src": str(ROOT / "src"), "passes": entries, "trace": trace,
            "seconds": seconds, "min_passes": min_passes, "spans_path": str(spans_path),
        }

    if args.trace:
        # Untraced and traced runs of pass 0 alternate, each in a fresh
        # process; the overhead compares the faster run of each kind.
        passes = gen.generate(args.workload, args.seed, 1)
        runs = []
        for i, trace in enumerate((False, True, False, True)):
            label = f"{'traced' if trace else 'untraced'}{i // 2}"
            plan, inputs = prepare(work / label, passes)
            result = run_worker(plan_for(plan, trace, 0, 1), work / label, env, deadline)
            checked = check_records(result["records"], inputs, args.workload, args.seed, pins)
            runs.append({"trace": trace, "result": result, "inputs": inputs, "checked": checked,
                         "wall": sum(r["s"] for r in result["records"])})
        all_records = [r for run in runs for r in run["result"]["records"]]
        traced = [run for run in runs if run["trace"]]
        best = min(traced, key=lambda run: run["wall"])
        untraced_wall = min(run["wall"] for run in runs if not run["trace"])
        records, checked = best["result"]["records"], best["checked"]
        metrics = per_layer(records, best["result"], best["inputs"], checked, untraced_wall)
        if any(run["checked"]["digests"] != runs[0]["checked"]["digests"] for run in runs):
            run_failures.append("solutions differ between runs of the same inputs")
        if len({json.dumps(trace_counts(run["result"])) for run in traced}) != 1:
            run_failures.append("call counts differ between two traced runs of the same inputs")
    else:
        setup_s, setup_raw_s = measure_setup(env, deadline)
        passes = gen.generate(args.workload, args.seed, MAX_PASSES[args.workload])
        plan, inputs = prepare(work, passes)
        result = run_worker(plan_for(plan, False, args.seconds, MIN_PASSES), work, env, deadline)
        records = all_records = result["records"]
        checked = check_records(records, inputs, args.workload, args.seed, pins)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(records, result, setup_s).items()}

    failed = sum(not r["ok"] for r in all_records)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(pass_walls(records, "s")),
        "pass_walls_s": pass_walls(records, key),
        "latency": latencies(records, key),
        "digests": checked["digests"],
        "diffeq_digest_changes": checked["changed"],
        "failures": [r for r in all_records if not r["ok"]][:20],
        "run_failures": run_failures,
        "records": [[r["pass"], r["id"], r["cmd"], r["s"], r.get("ref_s")] for r in records],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if not args.trace:  # as the clock read them, at whatever speed the CPU ran
        detail["measured"] = {"pass_walls_s": pass_walls(records, "s"), "setup_s": setup_raw_s}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)

    for cmd, lat in detail["latency"].items():
        if lat["n"]:
            p90 = f" p90 {lat['p90_s']:.4f} s" if "p90_s" in lat else " (p90 needs n >= 100)"
            print(f"{cmd}: n={lat['n']} p50 {lat['p50_s']:.4f} s{p90}")
    print(f"passes: {detail['passes']}, commands: {len(records)}, failed: {failed}")
    if not args.trace:
        walls = detail["measured"]["pass_walls_s"]
        print(f"pass time as measured: {min(walls):.3f} to {max(walls):.3f} s; "
              f"at the reference speed: median {metrics['wall_s'][0]:.3f} s")
    for rec in detail["failures"]:
        print(f"FAIL {rec.get('id')} {rec.get('cmd')}: {rec.get('failures') or rec.get('code')}")
    if checked["changed"]:
        print(f"diffeq digests changed against pins: {len(checked['changed'])}")
    for problem in run_failures:
        print(f"FAIL {problem}")
    print(json.dumps({
        "correct": failed == 0 and not run_failures,
        "attempted": len(all_records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
