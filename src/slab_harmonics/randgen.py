"""Seeded random polynomial generators for property tests and self-tests.

Harmonic polynomials are generated through the CK extensions: every harmonic
polynomial is the sum of the even extension of its trace and the odd
extension of its normal derivative at t = 0, so extending random t-free data
samples the full space.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .laplace import cauchy_extension
from .poly import MultiPoly


def random_rational(rng: random.Random, max_num: int = 9, max_den: int = 4) -> Fraction:
    num = rng.randint(-max_num, max_num)
    return Fraction(num if num else 1, rng.randint(1, max_den))


def random_tfree_poly(
    rng: random.Random,
    d: int,
    max_degree: int,
    max_terms: int = 6,
) -> MultiPoly:
    """Sparse random polynomial in the y-variables only."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, max_degree)
        exps = [0] * (d + 1)
        for _ in range(deg):
            exps[rng.randint(1, d)] += 1
        terms[tuple(exps)] = random_rational(rng)
    return MultiPoly(d, terms)


def random_harmonic_poly(
    rng: random.Random,
    d: int,
    max_degree: int,
    max_terms: int = 4,
) -> MultiPoly:
    """Random harmonic polynomial of total degree <= max_degree."""
    f = random_tfree_poly(rng, d, max_degree, max_terms)
    p = random_tfree_poly(rng, d, max(0, max_degree - 1), max_terms)
    return cauchy_extension(f, p)


def random_y_harmonic(rng: random.Random, d: int, max_degree: int) -> MultiPoly:
    """Random t-free polynomial r(y) with Lap_y r = 0.

    For d = 1 these are exactly the affine polynomials in y1; for d >= 2 a
    harmonic polynomial in d variables is generated one dimension down and
    its variables are relabeled (t, y1, ..., y(d-1)) -> (y1, ..., yd).
    """
    if d == 1:
        y1 = MultiPoly.variable(1, 1)
        return MultiPoly.constant(1, random_rational(rng)) + y1.scale(random_rational(rng))
    inner = random_harmonic_poly(rng, d - 1, max_degree)
    terms = {(0,) + exps: c for exps, c in inner.terms.items()}
    return MultiPoly(d, terms)
