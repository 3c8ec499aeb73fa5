"""Exact polynomial solvers for the slab Dirichlet problem and the harmonic
difference equation h(t+1,y) - h(t,y) = g(t,y), with bit-exact verification."""

from .complex_oracle import bernoulli_polynomial, harmonic_part, oracle_compare, oracle_solve
from .diffeq import (
    DiffEqProblem,
    compare_solutions,
    harmonic_t_antiderivative,
    solve,
    solve_even,
    solve_odd,
    verify_difference,
)
from .laplace import (
    even_ck_extension,
    invert_trace_operator,
    odd_ck_extension,
    poisson_solve,
    trace_operator,
)
from .poly import MultiPoly, variables
from .report import VerificationReport
from .slab import (
    SlabProblem,
    even_reflection_identity,
    odd_wall_reflection,
    solve_slab,
    verify_boundary,
    zero_data_rigidity,
)

__all__ = [
    "DiffEqProblem",
    "MultiPoly",
    "SlabProblem",
    "VerificationReport",
    "bernoulli_polynomial",
    "compare_solutions",
    "even_ck_extension",
    "even_reflection_identity",
    "harmonic_part",
    "harmonic_t_antiderivative",
    "invert_trace_operator",
    "odd_ck_extension",
    "odd_wall_reflection",
    "oracle_compare",
    "oracle_solve",
    "poisson_solve",
    "solve",
    "solve_even",
    "solve_odd",
    "solve_slab",
    "trace_operator",
    "variables",
    "verify_boundary",
    "verify_difference",
    "zero_data_rigidity",
]
