"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact (zero tolerance); the only numeric tolerances are the
per-criterion wall-clock budgets.  Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from slab_harmonics import (
    DiffEqProblem,
    MultiPoly,
    SlabProblem,
    compare_solutions,
    even_ck_extension,
    even_reflection_identity,
    odd_ck_extension,
    odd_wall_reflection,
    oracle_compare,
    poisson_solve,
    solve,
    solve_slab,
    variables,
    verify_difference,
)
from slab_harmonics.cli import main
from slab_harmonics.complex_oracle import oracle_solve
from slab_harmonics.diffeq import harmonic_t_antiderivative
from slab_harmonics.randgen import (
    random_harmonic_poly,
    random_tfree_poly,
    random_y_harmonic,
)

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"


def _criterion(num, name, budget_seconds, body):
    start = time.perf_counter()
    try:
        body()
    except Exception:
        print(f"[ACCEPTANCE {num}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"[ACCEPTANCE {num}] {name}: FAIL (over {budget_seconds}s budget: {elapsed:.1f}s)")
        raise AssertionError(f"criterion {num} exceeded time budget")
    print(f"[ACCEPTANCE {num}] {name}: PASS ({elapsed:.1f}s)")


def test_criterion_1_ck_extension_suite():
    def body():
        rng = random.Random(1001)
        for d in (1, 2, 3, 4):
            zero = MultiPoly.zero(d)
            for _ in range(200):
                f = random_tfree_poly(rng, d, 12)
                h_even = even_ck_extension(f)
                h_odd = odd_ck_extension(f)
                assert h_even.laplacian() == zero
                assert h_odd.laplacian() == zero
                assert h_even.trace(0) == f
                assert h_even.derivative(0).trace(0) == zero
                assert h_odd.trace(0) == zero
                assert h_odd.derivative(0).trace(0) == f

    _criterion(1, "C-K extension suite", 60, body)


def test_criterion_2_slab_dirichlet_suite():
    def body():
        rng = random.Random(1002)
        for _ in range(200):
            d = rng.randint(1, 3)
            a = F(rng.randint(-6, 6), rng.randint(1, 4))
            b = a + F(rng.randint(1, 6), rng.randint(1, 4))
            f0 = random_tfree_poly(rng, d, 10)
            f1 = random_tfree_poly(rng, d, 10)
            prob = SlabProblem(a, b, d, f0, f1)
            h = solve_slab(prob)
            assert h.laplacian().is_zero
            assert h.trace(a) == f0
            assert h.trace(b) == f1
            # linearity
            f0p = random_tfree_poly(rng, d, 10)
            f1p = random_tfree_poly(rng, d, 10)
            assert solve_slab(SlabProblem(a, b, d, f0 + f0p, f1 + f1p)) == h + solve_slab(
                SlabProblem(a, b, d, f0p, f1p)
            )
            # translation covariance
            s = F(rng.randint(-4, 4), rng.randint(1, 3))
            assert h.shift_t(-s) == solve_slab(SlabProblem(a + s, b + s, d, f0, f1))

    _criterion(2, "Slab Dirichlet suite", 120, body)


def test_criterion_3_reflection_identities():
    def body():
        rng = random.Random(1003)
        for _ in range(100):
            d = rng.randint(1, 3)
            h = random_harmonic_poly(rng, d, 9)
            assert even_reflection_identity(h).passed
            c = F(rng.randint(-5, 5), rng.randint(1, 3))
            g = random_tfree_poly(rng, d, 9)
            wall = odd_ck_extension(g).shift_t(-c)  # vanishes on t = c
            assert odd_wall_reflection(wall, c).passed

    _criterion(3, "Reflection identities", 60, body)


def test_criterion_4_difference_equation_suite():
    def body():
        rng = random.Random(1004)
        for _ in range(200):
            d = rng.randint(1, 3)
            g = random_harmonic_poly(rng, d, 10)
            h = solve(DiffEqProblem(g, d))
            assert h.laplacian().is_zero
            assert h.shift_t(1) - h == g
            partial = MultiPoly.zero(d)
            for n in range(1, 6):
                partial = partial + g.shift_t(n - 1)
                assert h.shift_t(n) - h == partial
            _, g_odd = g.parity_split_t()
            u = harmonic_t_antiderivative(g_odd)
            assert u.derivative(0) == g_odd
            assert u.laplacian().is_zero
            assert u.negate_t() == u

    _criterion(4, "Difference-equation suite", 180, body)


def test_criterion_5_golden_instances():
    def body():
        t, y1 = variables(1)
        from slab_harmonics import solve_even, solve_odd, verify_boundary

        prob = SlabProblem(F(0), F(1), 1, MultiPoly.zero(1), y1 * y1)
        h1 = solve_slab(prob)
        assert verify_boundary(h1, prob).passed  # re-verify before golden check
        assert h1 == t * y1 * y1 + t.scale(F(1, 3)) - (t ** 3).scale(F(1, 3))

        g_even = t * t - y1 * y1
        h2 = solve_even(g_even)
        assert verify_difference(h2, g_even).passed
        assert h2 == (
            (y1 * y1).scale(F(1, 2))
            - (t * t).scale(F(1, 2))
            - t * y1 * y1
            + t.scale(F(1, 6))
            + (t ** 3).scale(F(1, 3))
        )

        h3 = solve_odd(t)
        assert verify_difference(h3, t).passed
        assert h3 == (
            (t * t).scale(F(1, 2))
            - t.scale(F(1, 2))
            - (y1 * y1).scale(F(1, 2))
            + MultiPoly.constant(1, F(1, 12))
        )

        h4 = oracle_solve(g_even)
        assert verify_difference(h4, g_even).passed
        assert h4 == h2  # the Bernoulli route reproduces the same polynomial

    _criterion(5, "Golden worked instances", 60, body)


def test_criterion_6_oracle_equivalence():
    def body():
        rng = random.Random(1006)
        for _ in range(100):
            g = random_harmonic_poly(rng, 1, 10)
            h_general = solve(DiffEqProblem(g, 1))
            rep = oracle_compare(g, h_general)
            assert rep.passed
            r = rep.extras["r"]
            assert r.is_t_free
            assert r.laplacian_y().is_zero

    _criterion(6, "Oracle equivalence (d=1)", 60, body)


def test_criterion_7_uniqueness_shadow():
    def body():
        rng = random.Random(1007)
        for i in range(100):
            if i % 2 == 0:
                # solver output vs output + planted harmonic r(y)
                d = rng.randint(1, 3)
                g = random_harmonic_poly(rng, d, 8)
                h = solve(DiffEqProblem(g, d))
                r = random_y_harmonic(rng, d, 6)
                assert compare_solutions(h + r, h, g) == r
            else:
                # solver vs Bernoulli oracle (d=1): difference must be t-free
                g = random_harmonic_poly(rng, 1, 8)
                h1 = solve(DiffEqProblem(g, 1))
                h2 = oracle_solve(g)
                delta = compare_solutions(h1, h2, g)
                assert delta.is_t_free

    _criterion(7, "Uniqueness shadow", 60, body)


def test_criterion_8_poisson_solver():
    def body():
        rng = random.Random(1008)
        for d in (1, 2, 3, 4):
            for _ in range(200):
                f = random_tfree_poly(rng, d, 12)
                assert poisson_solve(f).laplacian_y() == f

    _criterion(8, "Poisson solver", 60, body)


def test_criterion_9_cli_end_to_end(tmp_path):
    def body():
        out = tmp_path / "slab.json"
        assert main(["solve-slab", "--input", str(FIXTURES / "slab_basic.json"),
                     "--output", str(out), "--quiet"]) == 0
        obj = json.loads(out.read_text())
        h = MultiPoly.from_json_dict(obj["solution"])  # schema-valid
        assert obj["report"]["status"] == "pass"
        assert h.to_json_dict() == obj["solution"]  # canonical round-trip

        out = tmp_path / "diffeq.json"
        assert main(["solve-diffeq", "--input", str(FIXTURES / "diffeq_basic.json"),
                     "--output", str(out), "--quiet"]) == 0
        assert json.loads(out.read_text())["report"]["status"] == "pass"

        out = tmp_path / "oracle.json"
        assert main(["oracle-compare", "--input", str(FIXTURES / "diffeq_oracle.json"),
                     "--output", str(out), "--quiet"]) == 0
        assert json.loads(out.read_text())["report"]["status"] == "pass"

        assert main(["verify", "--input", str(FIXTURES / "verify_good.json"),
                     "--quiet"]) == 0

        csv_out = tmp_path / "grid.csv"
        assert main(["eval", "--input", str(FIXTURES / "poly_saddle.json"),
                     "--grid", "t=0:1:1,y1=0:1:1", "--output", str(csv_out),
                     "--quiet"]) == 0
        assert csv_out.read_text().splitlines()[0] == "t,y1,value"

        # tampered solution: exit 1 and the exact residual printed
        import contextlib
        import io

        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["verify", "--input", str(FIXTURES / "verify_tampered.json")])
        assert code == 1
        assert "residual difference: 1" in err.getvalue()

    _criterion(9, "CLI end-to-end", 60, body)
