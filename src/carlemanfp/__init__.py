"""Fixed-point solver and inequality certification suite for the boundary
two-point function of a one-sided Hilbert-transform integral equation."""

__version__ = "0.1.0"

from .coupling import Coupling
from .grids import (
    GridFunction,
    HARD_CUTOFF,
    POWER_LAW_EXTEND,
    QuadratureConfig,
    make_nodes,
    random_klambda,
)
from .hilbert import HilbertOfExp, hilbert_power_law
from .operators import PoleRegionError, TOperator, lb_distance, lb_norm
from .report import VerificationReport
from .solver import (
    EnvelopeEscapeError,
    IterationReport,
    NonConvergenceError,
    SolveResult,
    SolverConfig,
    consistency_residual,
    initial_guess,
    solve,
)

__all__ = [
    "Coupling",
    "GridFunction",
    "HARD_CUTOFF",
    "POWER_LAW_EXTEND",
    "QuadratureConfig",
    "make_nodes",
    "random_klambda",
    "HilbertOfExp",
    "hilbert_power_law",
    "PoleRegionError",
    "TOperator",
    "lb_distance",
    "lb_norm",
    "VerificationReport",
    "EnvelopeEscapeError",
    "IterationReport",
    "NonConvergenceError",
    "SolveResult",
    "SolverConfig",
    "consistency_residual",
    "initial_guess",
    "solve",
]
