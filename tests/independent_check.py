"""An exact check of solutions that shares no kernel with the solver.

It evaluates polynomials only through `MultiPoly.eval_exact`, at seeded
random rational points, and does the rest in plain integers and Fractions:

- harmonicity: each second partial at a point is read off the exact
  interpolating polynomial of the values at m + 1 unit-spaced nodes along
  that coordinate line, m above the total degree, so the interpolation is
  exact;
- the slab traces: h(a, y) = f0(y) and h(b, y) = f1(y);
- the difference identity: h(t + 1, y) - h(t, y) = g(t, y).

It calls no `derivative`, `laplacian`, `shift_t` or `trace`, so a fault in
those kernels cannot hide behind a verifier that shares them.  A nonzero
residual polynomial vanishes at a random point only by chance, so each
check uses a few points.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

from slab_harmonics import MultiPoly


def _degree(p: MultiPoly) -> int:
    return max((sum(e) for e in p.terms), default=0)


def random_point(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]


@lru_cache(maxsize=None)
def second_derivative_weights(m: int) -> tuple[Fraction, ...]:
    """w_0..w_m with phi''(0) = sum_j w_j phi(j) for every polynomial phi of
    degree <= m: w_j = L_j''(0) for the Lagrange basis on the nodes 0..m."""
    prod = [1]  # prod_(i=0..m) (s - i), coefficients from s^0 up
    for i in range(m + 1):
        prod = [(prod[k - 1] if k else 0) - i * (prod[k] if k < len(prod) else 0) for k in range(len(prod) + 1)]
    weights = []
    for j in range(m + 1):
        # prod / (s - j) by synthetic division, from the top coefficient down
        q = [0] * (m + 1)
        q[m] = prod[m + 1]
        for k in range(m, 0, -1):
            q[k - 1] = prod[k] + j * q[k]
        denom = (-1) ** (m - j) * math.factorial(j) * math.factorial(m - j)
        weights.append(Fraction(2 * q[2], denom) if m >= 2 else Fraction(0))
    return tuple(weights)


def laplacian_at(p: MultiPoly, point: list[Fraction]) -> Fraction:
    """The Laplacian of p at `point`, from values of p alone."""
    m = _degree(p) + 1
    weights = second_derivative_weights(m)
    total = Fraction(0)
    for var in range(len(point)):
        for j, w in enumerate(weights):
            node = list(point)
            node[var] += j
            total += w * p.eval_exact(node)
    return total


def check_slab(h: MultiPoly, a, b, f0: MultiPoly, f1: MultiPoly, seed: int, points: int = 2) -> list[str]:
    """Failures of h as the slab solution with data f0 at t = a, f1 at t = b."""
    rng = random.Random(seed)
    failures = []
    for _ in range(points):
        y = random_point(rng, h.d)
        for name, wall, f in (("trace at a", a, f0), ("trace at b", b, f1)):
            if h.eval_exact([wall, *y]) != f.eval_exact([wall, *y]):
                failures.append(f"{name} differs at y = {y}")
        pt = random_point(rng, h.d + 1)
        if laplacian_at(h, pt):
            failures.append(f"laplacian nonzero at {pt}")
    return failures


def check_difference(h: MultiPoly, g: MultiPoly, seed: int, points: int = 2) -> list[str]:
    """Failures of h as a harmonic solution of h(t+1,y) - h(t,y) = g(t,y)."""
    rng = random.Random(seed)
    failures = []
    for _ in range(points):
        pt = random_point(rng, h.d + 1)
        if h.eval_exact([pt[0] + 1, *pt[1:]]) - h.eval_exact(pt) != g.eval_exact(pt):
            failures.append(f"difference identity fails at {pt}")
        pt = random_point(rng, h.d + 1)
        if laplacian_at(h, pt):
            failures.append(f"laplacian nonzero at {pt}")
    return failures
