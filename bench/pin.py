"""Write bench/pins.json from the digests of earlier untraced runs.

Usage: python3 bench/pin.py SEED [SEED ...]

Reads bench/out/<workload>-s<seed>-t0.json for every workload and seed and
pins the solution digest of each pass-0 problem, keyed by the digest of the
problem itself.  Run it only on a commit whose outputs passed every check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent


def main(seeds: list[str]) -> int:
    pins: dict = {"slab": {}, "diffeq": {}}
    for workload in sorted(gen.WORKLOADS):
        for seed in seeds:
            detail = json.loads((BENCH / "out" / f"{workload}-s{seed}-t0.json").read_text(encoding="utf-8"))
            if detail["metrics"]["pass_ratio"] != 1.0:
                raise SystemExit(f"{workload} seed {seed} had failures; not pinning")
            for key, (kind, digest, pass_index) in detail["digests"].items():
                if pass_index == 0:
                    pins[kind][key] = digest
    for kind in pins:
        pins[kind] = dict(sorted(pins[kind].items()))
    (BENCH / "pins.json").write_text(json.dumps(pins, indent=0) + "\n", encoding="utf-8")
    print({kind: len(p) for kind, p in pins.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
