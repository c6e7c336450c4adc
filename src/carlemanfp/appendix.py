"""Closed-form checks around the constant solution of the fixed-point map.

The map applied to the zero function is known exactly at finite cutoff,
and the inner integral that produces it reduces by residues to
1/(u(u+1)).  Both identities are verified numerically here.
"""

from __future__ import annotations

import math

import numpy as np

from .coupling import Coupling
from .grids import HARD_CUTOFF, QuadratureConfig, make_nodes, zero_function
from .operators import TOperator


def _integrand(u: float):
    def f(q):
        return 1.0 / (math.pi**2 + (u * (1.0 + q) - math.log(q)) ** 2)

    return f


def _peak_points(u: float) -> list[float]:
    """Roots of u(1+q) = log q, where the integrand touches 1/pi^2.

    The bracket function has its minimum at q = 1/u; two roots exist
    iff u + 1 + log u < 0.
    """
    if u + 1.0 + math.log(u) >= 0.0:
        return []
    from scipy import optimize

    h = lambda q: u * (1.0 + q) - math.log(q)
    q_min = 1.0 / u
    lo = optimize.brentq(h, 1e-300, q_min)
    hi_end = q_min
    while h(hi_end) < 0.0:
        hi_end *= 10.0
    hi = optimize.brentq(h, q_min, hi_end)
    return [lo, hi]


def cauchy_integral(u: float) -> tuple[float, float]:
    """Numeric and closed-form values of
    int_0^inf dq / (pi^2 + (u(1+q) - log q)^2) = 1/(u(u+1)).
    """
    if u <= 0.0:
        raise ValueError("u must be positive")
    from scipy import integrate

    f = _integrand(u)
    pts = _peak_points(u)
    split = max(10.0 / u, 10.0 * max(pts, default=1.0), 50.0)
    main, _ = integrate.quad(
        f, 0.0, split, points=pts or None, limit=400, epsabs=1e-13, epsrel=1e-13
    )
    tail, _ = integrate.quad(f, split, np.inf, limit=200, epsabs=1e-13, epsrel=1e-13)
    return main + tail, 1.0 / (u * (u + 1.0))


def t0_derivative_closed(b, coupling: Coupling, lambda2: float):
    """(T0)'(b) = -1/(|lam| cutoff + 1 + b) at finite cutoff."""
    return -1.0 / (coupling.abs_lambda * lambda2 + 1.0 + np.asarray(b, dtype=float))


def t0_closed(b, coupling: Coupling, lambda2: float):
    """(T0)(b) = log(1/(1 + b/(1 + |lam| cutoff))) at finite cutoff."""
    return -np.log1p(np.asarray(b, dtype=float) / (1.0 + coupling.abs_lambda * lambda2))


def t0_profile(
    coupling: Coupling, lambda2: float, n_nodes: int = 2000
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Operator image of the zero function at hard cutoff versus closed form.

    Returns (nodes, computed values, closed-form values, computed
    derivatives).  The zero function sits outside the fixed-point
    domain and its R dips below -b on part of the grid, so the pole
    guard is disabled; the integrand stays finite regardless.
    """
    cfg = QuadratureConfig(n_nodes=n_nodes, lambda2=lambda2, tail_mode=HARD_CUTOFF)
    f0 = zero_function(make_nodes(n_nodes, lambda2))
    image = TOperator(coupling, cfg).apply(f0, require_positive=False)
    return (
        f0.nodes,
        image.values,
        t0_closed(f0.nodes, coupling, lambda2),
        image.derivs,
    )

