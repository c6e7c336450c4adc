"""Closed-form checks around the constant solution of the fixed-point map.

The map applied to the zero function is known exactly at finite cutoff,
and the inner integral that produces it reduces by residues to
1/(u(u+1)).  Both identities are verified numerically here, with numpy
alone: the residue integral by the trapezoid rule in log q, the zero
input through the operator itself.
"""

from __future__ import annotations

import math

import numpy as np

from .coupling import Coupling
from .domain import checked, unwrap
from .grids import HARD_CUTOFF, QuadratureConfig, check_cutoff, make_nodes, zero_function
from .operators import TOperator


_RESIDUE_STEP = 0.05    # trapezoid step in s = log q
_RESIDUE_TAIL = 40.0    # the window leaves out e^-40 of the value at each end


def cauchy_integral(u: float) -> tuple[float, float]:
    """Numeric and closed-form values of
    int_0^inf dq / (pi^2 + (u(1+q) - log q)^2) = 1/(u(u+1)).

    In s = log q the integrand is e^s / (pi^2 + (u(1+e^s) - s)^2); it
    decays like e^s as s -> -inf and like e^-s/u^2 as s -> inf, so the
    window is [-40, 40 + log(1 + 1/u)].  The integrand is analytic in a
    strip about the real axis, so the trapezoid rule converges
    geometrically in the step; its end terms are below 1e-17 of the sum,
    so it is the plain sum times the step.
    """
    checked(u, "u", 0.0, ends="()")
    hi = _RESIDUE_TAIL + math.log1p(1.0 / u)
    n = math.ceil((hi + _RESIDUE_TAIL) / _RESIDUE_STEP)
    s = -_RESIDUE_TAIL + _RESIDUE_STEP * np.arange(n + 1)
    q = np.exp(s)
    numeric = _RESIDUE_STEP * float(np.sum(q / (math.pi**2 + (u * (1.0 + q) - s) ** 2)))
    return numeric, 1.0 / (u * (u + 1.0))


def t0_derivative_closed(b, coupling: Coupling, lambda2: float):
    """(T0)'(b) = -1/(|lam| cutoff + 1 + b) at finite cutoff."""
    b, scalar = checked(b, "b", 0.0)
    check_cutoff(lambda2)
    return unwrap(-1.0 / (coupling.abs_lambda * lambda2 + 1.0 + b), scalar)


def t0_closed(b, coupling: Coupling, lambda2: float):
    """(T0)(b) = log(1/(1 + b/(1 + |lam| cutoff))) at finite cutoff."""
    b, scalar = checked(b, "b", 0.0)
    check_cutoff(lambda2)
    return unwrap(-np.log1p(b / (1.0 + coupling.abs_lambda * lambda2)), scalar)


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

