"""Solvers for the quadratic matrix equation D X + X^T A - X^T B X + C = 0.

The unknown enters transposed, so the linear part is not a Sylvester
operator but its transposed sibling D X + X^T A; everything here builds
on that: a direct QZ-based solver for the linear equation, fixed-point
and Newton iterations for the quadratic one (dense), and a factored
inexact Newton iteration whose inner equations are solved by extended
Krylov projection (large sparse).  Problem generators, Matrix Market
persistence, and a command line that generates and solves problems round
out the package.
"""

from .errors import SingularOperatorError, TRiccatiError
from .dense_core import (
    commutation_matrix,
    elementwise_leq,
    spectral_radius,
)
from .tsylv_dense import TSylvSolver
from .reports import IterationRecord, SolveReport, Status
from .riccati_dense import (
    LineSearchPoly,
    TRiccatiProblem,
    line_search_poly,
    minimize_quartic,
    residual,
    solve_fixed_point,
    solve_newton,
    verify_minimality,
)
from .lowrank import (
    LowRankPair,
    LowRankTRiccatiProblem,
    MatrixOperator,
    ShiftedOperator,
    lr_frobenius_norm,
    lr_inner_product,
    lr_quadratic_term,
    lr_riccati_residual,
    lr_step_and_Lresidual,
    lr_truncate,
    zero_pair,
)
from .krylov import ExtendedKrylovTSylv, solve_tsylv_krylov
from .newton_lowrank import (
    InexactNewtonConfig,
    compute_theta,
    decrease_condition_check,
    nonnegativity_monitor,
    solve_inexact_newton,
)
from .generators import (
    generate_admissible_dense,
    generate_ex1_dense,
    generate_ex1_lowrank,
    generate_ex2_dense,
    generate_ex2_lowrank,
)
from .mmio import load_problem, save_problem
from .runner import ProblemSpec, RunReport, emit_report, run_experiment

__version__ = "0.1.0"
