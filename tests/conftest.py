import math

import numpy as np
import pytest

from carlemanfp import Coupling, SolverConfig, solve

FIG_LAMBDA = -1.0 / (2.0 * math.pi)


@pytest.fixture(scope="session")
def fig_coupling():
    return Coupling(FIG_LAMBDA)


@pytest.fixture(scope="session")
def production_solution(fig_coupling):
    """Converged boundary solution at the reference coupling, full size."""
    cfg = SolverConfig(
        coupling=fig_coupling, lambda2=1e6, n_nodes=2000, tol_lb=1e-8, max_iters=500
    )
    return cfg, solve(cfg)


@pytest.fixture(scope="session")
def edge_solution():
    """Converged boundary solution at the edge of the stability range,
    lambda = -1/6, full size."""
    cfg = SolverConfig(
        coupling=Coupling(-1.0 / 6.0), lambda2=1e6, n_nodes=2000, tol_lb=1e-8
    )
    return cfg, solve(cfg)


@pytest.fixture(scope="session")
def small_solution(fig_coupling):
    """Cheap converged solution for reconstruction tests."""
    cfg = SolverConfig(
        coupling=fig_coupling, lambda2=1e6, n_nodes=800, tol_lb=1e-9, max_iters=300
    )
    return cfg, solve(cfg)


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)
