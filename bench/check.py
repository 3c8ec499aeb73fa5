"""Output checks that share no code with `slab_harmonics`.

Solutions are read straight from the JSON the CLI wrote and evaluated exactly
with Python integers: each polynomial is scaled to integer numerators over one
common denominator, and a rational point to integers over one common
denominator, so no `Fraction` gcd runs per term.  Identities are checked at
seeded rational points; the Laplacian is taken by exact finite differences
along each coordinate line, of order equal to the degree in that coordinate,
which is exact for polynomials.  A nonzero residual polynomial of degree n
vanishes at a random point of an S^k grid with probability at most n/S, and
the points avoid zero coordinates, so a changed coefficient shows at once.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

Term = tuple  # (exps tuple, Fraction)


def parse_poly(obj: dict) -> tuple[int, list[Term]]:
    d = obj["d"]
    terms = []
    for item in obj["terms"]:
        exps = tuple(item["exps"])
        if len(exps) != d + 1 or not all(type(e) is int and e >= 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps!r} for d={d}")
        terms.append((exps, Fraction(item["coeff"])))
    return d, terms


def digest(obj: dict) -> str:
    """sha256 of the canonical JSON of a polynomial: reduced coefficients,
    terms sorted by exponent vector, no whitespace."""
    d, terms = parse_poly(obj)
    merged: dict = {}
    for e, c in terms:
        merged[e] = merged.get(e, 0) + c
    canon = {
        "d": d,
        "terms": [[list(e), str(c)] for e, c in sorted(merged.items()) if c],
    }
    text = json.dumps(canon, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def json_digest(obj: dict) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:12]


class Poly:
    """A polynomial as integer numerators N_e over one denominator L."""

    def __init__(self, obj: dict):
        self.d, terms = parse_poly(obj)
        self.den = math.lcm(*(c.denominator for _, c in terms)) if terms else 1
        self.nums = [(e, c.numerator * (self.den // c.denominator)) for e, c in terms if c]
        self.degree = max((sum(e) for e, _ in self.nums), default=0)

    def __call__(self, point) -> Fraction:
        return self._scaled(point, None)[0]

    def _scaled(self, point, line_var):
        """p(point) exactly; with line_var = i, also the integer coefficients
        U_k of s -> L * D^n * p(point + s e_i) in powers of Z = X_i + s D."""
        if len(point) != self.d + 1:
            raise ValueError("point has the wrong dimension")
        pt = [Fraction(x) for x in point]
        den = math.lcm(*(x.denominator for x in pt))
        xs = [x.numerator * (den // x.denominator) for x in pt]
        n = self.degree
        powers = [_powers(x, max((e[i] for e, _ in self.nums), default=0)) for i, x in enumerate(xs)]
        dpow = _powers(den, n)
        total = 0
        coeffs: dict[int, int] = {}
        for e, num in self.nums:
            v = num * dpow[n - sum(e)]
            for i, k in enumerate(e):
                if k and i != line_var:
                    v *= powers[i][k]
            if line_var is None:
                total += v
            else:
                coeffs[e[line_var]] = coeffs.get(e[line_var], 0) + v
        scale = self.den * dpow[n]
        if line_var is None:
            return Fraction(total, scale), None
        return (den, xs[line_var], scale), coeffs

    def laplacian(self, point) -> Fraction:
        """Sum over coordinates of d^2/dx_i^2 p at point, by exact forward
        differences of step 1: f'' = sum_k 2 (-1)^k H_(k-1)/k Delta^k f,
        the series of (log(1 + Delta))^2, which stops at the degree."""
        total = Fraction(0)
        for i in range(self.d + 1):
            (den, x0, scale), coeffs = self._scaled(point, i)
            m = max(coeffs, default=0)
            if m < 2:
                continue
            values = []
            for s in range(m + 1):
                z = x0 + s * den
                acc = 0
                for k in range(m, -1, -1):
                    acc = acc * z + coeffs.get(k, 0)
                values.append(acc)
            second = Fraction(0)
            harmonic_number = Fraction(0)
            for k in range(1, m + 1):
                values = [b - a for a, b in zip(values, values[1:])]
                if k >= 2:
                    second += 2 * (-1) ** k * harmonic_number / k * values[0]
                harmonic_number += Fraction(1, k)
            total += second / scale
        return total


def _powers(x: int, n: int) -> list[int]:
    out = [1]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def random_point(rng: random.Random, dim: int) -> list[Fraction]:
    """Nonzero rational coordinates, numerators up to 60, denominators up to 7."""
    return [Fraction(rng.randint(1, 60) * rng.choice((-1, 1)), rng.randint(1, 7)) for _ in range(dim)]


POINTS = 2


def _harmonic(h: Poly, rng: random.Random, label: str) -> list[str]:
    return [
        f"{label}: laplacian {lap} at {pt}"
        for pt in (random_point(rng, h.d + 1) for _ in range(POINTS))
        if (lap := h.laplacian(pt))
    ]


def check_slab(problem: dict, h_obj: dict, rng: random.Random) -> list[str]:
    """Failures of h as a solution of the slab problem (empty when correct)."""
    h, f0, f1 = Poly(h_obj), Poly(problem["f0"]), Poly(problem["f1"])
    a, b = Fraction(problem["a"]), Fraction(problem["b"])
    failures = []
    for _ in range(POINTS):
        y = random_point(rng, h.d)
        for wall, f, name in ((a, f0, "a"), (b, f1, "b")):
            got, want = h([wall] + y), f([0] + y)
            if got != want:
                failures.append(f"trace at {name}: h={got} but f={want} at y={y}")
    return failures + _harmonic(h, rng, "h")


def check_diffeq(problem: dict, h_obj: dict, rng: random.Random) -> list[str]:
    """Failures of h as a harmonic solution of h(t+1,y) - h(t,y) = g."""
    h, g = Poly(h_obj), Poly(problem["g"])
    failures = []
    for _ in range(POINTS):
        t, *y = random_point(rng, h.d + 1)
        lhs, rhs = h([t + 1] + y) - h([t] + y), g([t] + y)
        if lhs != rhs:
            failures.append(f"difference: h(t+1)-h(t)={lhs} but g={rhs} at {[t] + y}")
    return failures + _harmonic(h, rng, "h")


def check_oracle(problem: dict, out: dict, h_obj: dict, rng: random.Random) -> list[str]:
    """oracle-compare output: its solution is the solve-diffeq one, the
    Bernoulli-route h_oracle solves the equation, and r = h - h_oracle is a
    t-free harmonic polynomial."""
    failures = []
    if out.get("report", {}).get("status") != "pass":
        failures.append("oracle report status is not pass")
    if digest(out["solution"]) != digest(h_obj):
        failures.append("oracle-compare solution differs from solve-diffeq solution")
    extras = out.get("report", {}).get("extras", {})
    if "h_oracle" not in extras or "r" not in extras:
        return failures + ["oracle report lacks h_oracle or r"]
    failures += [f"h_oracle {f}" for f in check_diffeq(problem, extras["h_oracle"], rng)]
    h, ho, r = Poly(h_obj), Poly(extras["h_oracle"]), Poly(extras["r"])
    if any(e[0] for e, _ in r.nums):
        failures.append("r depends on t")
    for _ in range(POINTS):
        pt = random_point(rng, h.d + 1)
        if h(pt) - ho(pt) != r(pt):
            failures.append(f"h - h_oracle != r at {pt}")
    return failures + _harmonic(r, rng, "r")


def size(h_obj: dict) -> tuple[int, int, int]:
    """(terms, total degree, largest numerator or denominator bit length)."""
    _, terms = parse_poly(h_obj)
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length()) for _, c in terms), default=0)
    return len(terms), max((sum(e) for e, _ in terms), default=-1), bits
