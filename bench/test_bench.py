"""Tests of the benchmark's own generator, checker and tracer.

Run with: PYTHONPATH=src python -m pytest -q bench
"""

import copy
import json
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import check
import gen
import run
import speed
import tracer

from slab_harmonics import MultiPoly, cli

BENCH = Path(__file__).resolve().parent


def test_inputs_depend_only_on_seed():
    for workload in gen.WORKLOADS:
        first = json.dumps(gen.generate(workload, 7, 1))
        assert json.dumps(gen.generate(workload, 7, 1)) == first
        assert json.dumps(gen.generate(workload, 8, 1)) != first


def test_generated_right_hand_sides_are_harmonic():
    rng = random.Random(0)
    problems = gen.generate("small-mix", 3, 1)[0] + gen.generate("dense-multivar", 3, 1)[0]
    for item in problems:
        if item["kind"] == "diffeq":
            g = check.Poly(item["problem"]["g"])
            assert g.laplacian(check.random_point(rng, g.d + 1)) == 0


def test_finite_difference_laplacian_is_exact():
    rng = random.Random(1)
    p = {(0, 3, 1): Fraction(2, 3), (2, 0, 2): Fraction(-5), (1, 1, 1): Fraction(7, 2)}
    obj = gen.poly_json(p, 2)
    pt = check.random_point(rng, 3)
    expected = MultiPoly.from_json_dict(obj).laplacian().eval_exact(pt)
    assert check.Poly(obj).laplacian(pt) == expected != 0


def solve_pass(tmp_path, workload, seed, count):
    """Solve the first problems of a pass through the CLI; return check records."""
    problems = gen.generate(workload, seed, 1)[0][:count]
    entries = gen.write_pass(problems, tmp_path, 0)
    records = []
    for entry in entries:
        out = str(tmp_path / f"{entry['id']}.solve.json")
        argv = [f"solve-{entry['kind']}", "--input", entry["input"], "--output", out, "--quiet"]
        records.append({"pass": 0, "id": entry["id"], "cmd": "solve", "s": 0.0, "code": cli.main(argv), "out": out})
    return records, {e["id"]: e for e in entries}


def tamper(path):
    obj = json.loads(Path(path).read_text())
    h = obj.get("solution") or obj["h"]
    term = h["terms"][0]  # the leading term, which has positive degree
    term["coeff"] = str(Fraction(term["coeff"]) + Fraction(1, 7))
    Path(path).write_text(json.dumps(obj))


def test_checker_counts_tampered_solutions_as_failures(tmp_path):
    records, entries = solve_pass(tmp_path, "small-mix", 5, 12)
    run.check_records(records, entries, "small-mix", 5, {})
    assert all(r["ok"] for r in records)
    bad = [records[2], records[3]]  # one slab, one diffeq
    assert {entries[r["id"]]["kind"] for r in bad} == {"slab", "diffeq"}
    for r in bad:
        tamper(r["out"])
        del r["ok"]
    run.check_records(records, entries, "small-mix", 5, {})
    assert [r["ok"] for r in records].count(False) == 2
    assert not bad[0]["ok"] and not bad[1]["ok"]


def test_slab_digest_differing_from_pin_is_a_failure(tmp_path):
    records, entries = solve_pass(tmp_path, "small-mix", 6, 2)
    found = run.check_records(records, entries, "small-mix", 6, {})
    pins = {kind: {} for kind in ("slab", "diffeq")}
    for key, (kind, _, _) in found["digests"].items():
        pins[kind][key] = "0" * 12
    checked = copy.deepcopy(records)
    found = run.check_records(checked, entries, "small-mix", 6, pins)
    kinds = {entries[r["id"]]["kind"]: r["ok"] for r in checked}
    assert kinds == {"slab": False, "diffeq": True}
    assert len(found["changed"]) == 1


def test_tracer_spans_nest_and_uninstall(tmp_path):
    problems = gen.generate("small-mix", 2, 1)[0][:4]
    entries = gen.write_pass(problems, tmp_path, 0)
    original_init = MultiPoly.__init__
    tr = tracer.Tracer()
    tr.install()
    try:
        for entry in entries:
            argv = [f"solve-{entry['kind']}", "--input", entry["input"], "--output", str(tmp_path / "o.json"), "--quiet"]
            assert cli.main(argv) == 0
    finally:
        tr.uninstall()
    assert MultiPoly.__init__ is original_init
    summary = tr.summary()
    assert summary["cli.main"]["calls"] == 4
    assert summary["slab.solve_slab"]["calls"] >= 2 + 2  # two slab problems, two even diffeq parts
    assert summary["poly.__init__"]["calls"] > 0 and tr.terms_in > 0
    self_sum = sum(row["self_s"] for row in summary.values())
    assert abs(self_sum - summary["cli.main"]["total_s"]) < 1e-6
    assert set(tr.commands) == {sid for sid, parent in zip(tr.ids, tr.parents) if parent == 0}


def test_probe_scales_to_the_reference_speed():
    probe = speed.Probe()
    # A CPU twice as fast as the reference: the kernel takes half as long.
    probe.starts = [0.1 * i for i in range(100)]
    probe.kernels = [speed.KERNEL_REF_S / 2] * 100
    # 2 s with 20 samples inside; their kernel time is taken out first.
    inside = 20 * speed.KERNEL_REF_S / 2
    assert abs(probe.scale(2.05, 4.05) - 2 * (2.0 - inside)) < 1e-9
    # An interval with no sample inside takes its speed from the nearest ones.
    probe.kernels[50:] = [speed.KERNEL_REF_S] * 50
    assert abs(probe.scale(9.01, 9.02) - 0.01) < 1e-9
    assert abs(probe.scale(0.01, 0.02) - 0.02) < 1e-9


def test_probe_samples_while_the_process_runs():
    probe = speed.Probe()
    probe.start()
    try:
        deadline = time.process_time() + 0.3
        while time.process_time() < deadline:
            pass
    finally:
        probe.stop()
    assert len(probe.kernels) >= 5
    assert all(k > 0 for k in probe.kernels)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-mix", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
