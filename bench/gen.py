"""Seeded input generator for the benchmark workloads.

Polynomials here are plain term dicts {exps: Fraction}, exponent tuples with
t first, exactly as in the CLI's JSON schema.  Harmonic right-hand sides are
built with this file's own Cauchy-Kovalevskaya series, so the inputs depend
on nothing in `slab_harmonics` and stay byte-identical whatever a change to
the solver does.

Each workload is a list of passes; a pass is a fixed list of problems whose
shape (kind, d, degree, term count) depends only on its position, and whose
coefficients, exponents and walls are drawn from `random.Random` seeded by
(workload, seed, pass).  Fixing the shape keeps the cost of a pass nearly the
same from seed to seed; drawing the rest keeps problems distinct, so passes
share little work.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

Terms = dict  # {tuple[int, ...]: Fraction}


# -- term-dict algebra ---------------------------------------------------------


def lap_y(terms: Terms) -> Terms:
    """Sum of second partials in y1..yd (exponent indices 1..d)."""
    out: Terms = {}
    for e, c in terms.items():
        for j in range(1, len(e)):
            n = e[j]
            if n >= 2:
                k = e[:j] + (n - 2,) + e[j + 1 :]
                out[k] = out.get(k, 0) + c * n * (n - 1)
    return {e: c for e, c in out.items() if c}


def ck_series(f: Terms, odd: bool) -> Terms:
    """sum_k (-1)^k t^(2k+p) / (2k+p)! Lap_y^k f, p = 1 if odd else 0.

    Harmonic for t-free f: the even (odd) extension with trace f (normal
    derivative f) at t = 0.
    """
    p = 1 if odd else 0
    out: Terms = {}
    term, coeff, k = f, Fraction(1), 0
    while term:
        for e, c in term.items():
            out[(e[0] + 2 * k + p,) + e[1:]] = coeff * c
        term = lap_y(term)
        k += 1
        coeff = -coeff / ((2 * k + p) * (2 * k + p - 1))
    return out


def harmonic(f_even: Terms, f_odd: Terms) -> Terms:
    """Even extension of f_even plus odd extension of f_odd.  Their terms
    have even and odd t-exponents, so no two of them meet."""
    return {**ck_series(f_even, odd=False), **ck_series(f_odd, odd=True)}


# -- random data -----------------------------------------------------------------


def small_rational(rng: random.Random, num: int = 9, den: int = 4) -> Fraction:
    n = rng.randint(1, num) * rng.choice((-1, 1))
    return Fraction(n, rng.randint(1, den))


def walls(rng: random.Random) -> tuple[Fraction, Fraction]:
    """a < b, a != 0, small denominators."""
    a = small_rational(rng, 5, 4)
    return a, a + Fraction(rng.randint(1, 9), rng.randint(1, 4))


def sized_walls(rng: random.Random, slot: int) -> tuple[Fraction, Fraction]:
    """Walls whose size is fixed by the problem's slot: a = +-p/3 and
    b - a = q/2, with p and q taken from the slot and the sign from rng.

    At high degree the cost grows with the bit size of a and b - a (they are
    raised to the degree), so fixing their size keeps the cost of a slot the
    same from seed to seed.
    """
    a = Fraction(rng.choice((-1, 1)) * (4, 5, 7)[slot % 3], 3)
    return a, a + Fraction((5, 7, 3)[slot % 3], 2)


def sparse_tfree(rng: random.Random, d: int, degree: int, nterms: int) -> Terms:
    """min(nterms, #monomials) distinct y-monomials, the first of exactly `degree`."""
    nterms = min(nterms, math.comb(degree + d, d))
    out: Terms = {}
    while len(out) < nterms:
        deg = degree if not out else rng.randint(0, degree)
        e = [0] * (d + 1)
        for _ in range(deg):
            e[rng.randint(1, d)] += 1
        out.setdefault(tuple(e), small_rational(rng))
    return out


def dense_tfree(rng: random.Random, d: int, degree: int) -> Terms:
    """Every y-monomial of total degree <= degree, small integer coefficients."""
    out: Terms = {}
    for e in itertools.product(range(degree + 1), repeat=d):
        if sum(e) <= degree:
            out[(0,) + e] = Fraction(rng.randint(1, 9) * rng.choice((-1, 1)))
    return out


def y_power(d: int, n: int) -> Terms:
    return {(0, n) + (0,) * (d - 1): Fraction(1)}


# -- JSON --------------------------------------------------------------------------


def poly_json(terms: Terms, d: int) -> dict:
    items = sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    return {"d": d, "terms": [{"coeff": str(c), "exps": list(e)} for e, c in items]}


def slab_problem(a: Fraction, b: Fraction, d: int, f0: Terms, f1: Terms) -> dict:
    return {
        "kind": "slab",
        "problem": {
            "a": str(a),
            "b": str(b),
            "d": d,
            "f0": poly_json(f0, d),
            "f1": poly_json(f1, d),
        },
    }


def diffeq_problem(d: int, g: Terms, oracle: bool = False) -> dict:
    return {"kind": "diffeq", "problem": {"d": d, "g": poly_json(g, d)}, "oracle": oracle}


# -- workloads -------------------------------------------------------------------------

SMALL_MIX_PROBLEMS = 240


def small_mix(rng: random.Random) -> list[dict]:
    """Acceptance-sized problems: d = 1..3, degree <= 10, <= 6 terms.

    Slab and diffeq alternate; every fourth d = 1 diffeq problem is also
    cross-checked with oracle-compare.
    """
    out = []
    d1_diffeq = 0
    for i in range(SMALL_MIX_PROBLEMS):
        d = 1 + (i // 2) % 3
        degree = (i * 7 // 2) % 11
        nterms = 1 + (i // 6) % 6
        if i % 2 == 0:
            a, b = walls(rng)
            out.append(
                slab_problem(
                    a, b, d,
                    sparse_tfree(rng, d, degree, nterms),
                    sparse_tfree(rng, d, degree, nterms),
                )
            )
        else:
            g = harmonic(
                sparse_tfree(rng, d, degree, nterms),
                sparse_tfree(rng, d, max(degree - 1, 0), nterms),
            )
            oracle = d == 1 and d1_diffeq % 4 == 0
            d1_diffeq += d == 1
            out.append(diffeq_problem(d, g, oracle))
    return out


DENSE_SLAB = ((2, 16), (3, 12), (4, 8))
DENSE_DIFFEQ = ((2, 14), (3, 10), (4, 7))


def dense_multivar(rng: random.Random) -> list[dict]:
    """Dense data (every monomial up to the degree), d = 2..4, a != 0."""
    out = []
    for slot, ((ds, ns), (dg, ng)) in enumerate(zip(DENSE_SLAB, DENSE_DIFFEQ)):
        a, b = sized_walls(rng, slot)
        out.append(slab_problem(a, b, ds, dense_tfree(rng, ds, ns), dense_tfree(rng, ds, ns)))
        g = harmonic(dense_tfree(rng, dg, ng), dense_tfree(rng, dg, ng - 1))
        out.append(diffeq_problem(dg, g))
    return out


HIGH_SLAB_POWER = 90
HIGH_SLAB_DENSE = 48
HIGH_DIFFEQ = 36
HIGH_DIFFEQ_COUNT = 3


def high_degree_1d(rng: random.Random) -> list[dict]:
    """d = 1 at high degree, where coefficient growth dominates: slab data y^n
    against a constant, dense slab data, and dense harmonic right-hand sides,
    the first of them cross-checked with oracle-compare.
    """
    a, b = sized_walls(rng, 0)
    a2, b2 = sized_walls(rng, 1)
    out = [
        slab_problem(a, b, 1, y_power(1, HIGH_SLAB_POWER), {(0, 0): small_rational(rng)}),
        slab_problem(a2, b2, 1, dense_tfree(rng, 1, HIGH_SLAB_DENSE), dense_tfree(rng, 1, HIGH_SLAB_DENSE)),
    ]
    for i in range(HIGH_DIFFEQ_COUNT):
        g = harmonic(dense_tfree(rng, 1, HIGH_DIFFEQ), dense_tfree(rng, 1, HIGH_DIFFEQ - 1))
        out.append(diffeq_problem(1, g, oracle=i == 0))
    return out


WORKLOADS = {
    "small-mix": small_mix,
    "dense-multivar": dense_multivar,
    "high-degree-1d": high_degree_1d,
}


def generate(workload: str, seed: int, passes: int) -> list[list[dict]]:
    make = WORKLOADS[workload]
    return [make(random.Random(f"{workload}:{seed}:{p}")) for p in range(passes)]


def write_pass(problems: list[dict], directory: Path, pass_index: int) -> list[dict]:
    """Write each problem's input file; return the plan entries for the worker."""
    plan = []
    for i, item in enumerate(problems):
        stem = f"p{pass_index}-{i:03d}-{item['kind']}"
        path = directory / f"{stem}.json"
        path.write_text(json.dumps(item["problem"]), encoding="utf-8")
        plan.append(
            {"id": stem, "kind": item["kind"], "input": str(path), "oracle": item.get("oracle", False)}
        )
    return plan
