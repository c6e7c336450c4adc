"""Fixed-point iteration for the boundary function: Anderson mixing with a
damped Picard safeguard and envelope monitoring.

The iteration starts from the steep-envelope member -(1-|lam|) log(1+b)
and stops when the norm distance between an iterate and its image falls
below tolerance.  The norm-continuity constant of the map exceeds 1, so
contraction is not guaranteed a priori and plain Picard iteration can be
slow; each new iterate is therefore an Anderson mix (type II, Walker & Ni,
SIAM J. Numer. Anal. 49 (2011) 1715) of the last few iterates and their
images, chosen to minimise the scaled-derivative residual.  A mix that
leaves the envelope band, or a residual that grows, clears the mixing
history and falls back to the damped Picard step f <- (1-w) f + w T f,
whose factor is halved if the residual grows three times in a row.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .coupling import Coupling
from .domain import checked
from .grids import (
    GridFunction,
    QuadratureConfig,
    log_envelope_function,
    make_nodes,
)
from .operators import TOperator, lb_distance
from .quadrature import cumulative_integral

ANDERSON_DEPTH = 5  # earlier pairs mixed into each step


class NonConvergenceError(RuntimeError):
    def __init__(self, max_iters: int, last_distance: float, history):
        super().__init__(
            f"no convergence after {max_iters} iterations "
            f"(last step distance {last_distance:.3e})"
        )
        self.max_iters = max_iters
        self.last_distance = last_distance
        self.history = history


class EnvelopeEscapeError(RuntimeError):
    def __init__(self, iteration: int, node: float, margin: float):
        super().__init__(
            f"iterate {iteration} left the envelope band at node {node:g} "
            f"by {-margin:.3e}"
        )
        self.iteration = iteration
        self.node = node
        self.margin = margin


@dataclass(frozen=True)
class SolverConfig:
    coupling: Coupling
    lambda2: float = 1e6
    n_nodes: int = 2000
    damping: float = 1.0
    tol_lb: float = 1e-8
    max_iters: int = 500
    # how far (1+b) f' may leave the band before an image raises or a mix is refused
    envelope_slack: ClassVar[float] = 1e-6

    def __post_init__(self) -> None:
        checked(self.damping, "damping", 0.0, 1.0, "(]")
        checked(self.max_iters, "max_iters", 1.0)
        checked(self.tol_lb, "tolerance", 0.0, ends="()")
        self.quadrature()  # validates the cutoff and the node count

    def quadrature(self) -> QuadratureConfig:
        return QuadratureConfig(n_nodes=self.n_nodes, lambda2=self.lambda2)


@dataclass
class IterationReport:
    """One iteration: ``residual`` is the LB distance from the iterate to its
    image, ``lb_distance`` the LB length of the step taken, and
    ``mixing_depth`` the number of earlier pairs mixed in (0 for a Picard
    step)."""

    iteration: int
    lb_distance: float
    envelope_min_margin: float
    residual: float
    mixing_depth: int = 0


@dataclass
class SolveResult:
    """A converged solve (one that does not converge raises); the tail
    exponent and slow-tail flag live on ``grid_function``."""

    grid_function: GridFunction
    history: list[IterationReport]

    @property
    def iterations(self) -> int:
        return len(self.history)

    @property
    def residual(self) -> float:
        return self.history[-1].residual


def initial_guess(coupling: Coupling, nodes: np.ndarray) -> GridFunction:
    """Steep-envelope start -(1-|lam|) log(1+b); lies in the domain exactly."""
    return log_envelope_function(nodes, coupling.lower_envelope_exponent())


class AndersonMixer:
    """Type-II Anderson mixing over the last ANDERSON_DEPTH + 1 fixed-point
    pairs.

    Each pair holds an iterate x, its image g = T x (both tuples of arrays
    mixed with the same coefficients) and a residual vector r measuring
    g - x.  ``step`` minimises the 2-norm of the mixed residual over the
    residual differences and returns the mix of iterates and images with
    factor ``beta``; with a single pair it is the damped Picard step
    (1 - beta) x + beta g.
    """

    def __init__(self):
        self._pairs: deque = deque(maxlen=ANDERSON_DEPTH + 1)

    def push(self, x: tuple, g: tuple, r: np.ndarray) -> None:
        self._pairs.append((x, g, np.asarray(r, dtype=float)))

    def restart(self) -> None:
        """Drop every pair but the newest, so the next step is Picard."""
        while len(self._pairs) > 1:
            self._pairs.popleft()

    def step(self, beta: float) -> tuple[tuple, int]:
        """Next iterate and the mixing depth it used."""
        x, g, r = self._pairs[-1]
        depth = len(self._pairs) - 1
        if depth:
            older = list(self._pairs)
            d_r = np.column_stack(
                [b[2] - a[2] for a, b in zip(older[:-1], older[1:])]
            )
            gamma = np.linalg.lstsq(d_r, r, rcond=None)[0]
            x = _minus_differences(x, [p[0] for p in older], gamma)
            g = _minus_differences(g, [p[1] for p in older], gamma)
        return tuple((1.0 - beta) * xc + beta * gc for xc, gc in zip(x, g)), depth


def _minus_differences(newest: tuple, states: list, gamma: np.ndarray) -> tuple:
    """newest - sum_j gamma_j (states[j+1] - states[j]), per component."""
    out = [np.array(c, dtype=float) for c in newest]
    for j, gj in enumerate(gamma):
        for c, hi, lo in zip(out, states[j + 1], states[j]):
            c -= gj * (hi - lo)
    return tuple(out)


def _band_margin(f: GridFunction, coupling: Coupling) -> tuple[float, float]:
    """Worst signed distance of (1+b) f' to the envelope band (>= 0
    inside, NaN if any margin is NaN) and the node where it occurs."""
    worst = np.minimum(*f.envelope_margins(coupling))
    i = int(np.argmin(worst))  # argmin picks the first NaN
    return float(worst[i]), float(f.nodes[i])


def _escapes(margin: float) -> bool:
    """The band check: a NaN margin counts as outside."""
    return not margin >= -SolverConfig.envelope_slack


def _next_iterate(
    mixer: AndersonMixer,
    f: GridFunction,
    tf: GridFunction,
    coupling: Coupling,
    beta: float,
    restart: bool,
) -> tuple[GridFunction, int]:
    """Safeguarded Anderson step from f, whose image is tf.

    ``restart`` (the residual grew) or a mix leaving the envelope band
    clears the history and takes the damped Picard step instead.
    """
    mixer.push(
        (f.values, f.derivs), (tf.values, tf.derivs),
        tf.scaled_derivs() - f.scaled_derivs(),
    )
    if restart:
        mixer.restart()
    (values, derivs), depth = mixer.step(beta)
    new = GridFunction(f.nodes, values, derivs)
    if depth and _escapes(_band_margin(new, coupling)[0]):
        mixer.restart()
        (values, derivs), depth = mixer.step(beta)
        new = GridFunction(f.nodes, values, derivs)
    return new, depth


def solve(cfg: SolverConfig) -> SolveResult:
    """Safeguarded Anderson iteration until ||T f - f||_LB drops below
    tolerance; returns the last image T f.

    Raises NonConvergenceError at the iteration cap.  An image must keep
    b + Rf(t) > 0 (PoleRegionError) and its scaled derivative must stay
    in the envelope band up to the slack (EnvelopeEscapeError), for an
    exploratory coupling too.
    """
    coupling = cfg.coupling
    op = TOperator(coupling, cfg.quadrature())
    f = initial_guess(coupling, make_nodes(cfg.n_nodes, cfg.lambda2))
    history: list[IterationReport] = []
    mixer = AndersonMixer()
    omega = cfg.damping
    grew = 0
    prev_residual = math.inf
    for it in range(1, cfg.max_iters + 1):
        tf = op.apply(f)
        margin, node = _band_margin(tf, coupling)
        if _escapes(margin):
            raise EnvelopeEscapeError(it, node, margin)
        residual = lb_distance(tf, f)
        if residual < cfg.tol_lb:
            history.append(IterationReport(it, residual, margin, residual))
            return SolveResult(grid_function=tf, history=history)
        grown = residual > prev_residual
        new, depth = _next_iterate(mixer, f, tf, coupling, omega, grown)
        history.append(
            IterationReport(it, lb_distance(new, f), margin, residual, depth)
        )
        if grown:
            grew += 1
            if grew >= 3 and omega > 0.0625:
                omega *= 0.5
                grew = 0
        else:
            grew = 0
        prev_residual = residual
        f = new
    raise NonConvergenceError(cfg.max_iters, history[-1].lb_distance, history)


def consistency_residual(
    f: GridFunction,
    coupling: Coupling,
    cfg: QuadratureConfig | None = None,
    b_max: float | None = None,
) -> float:
    """Worst relative defect of exp(f) against the self-consistency
    equation, whose right-hand side is exp(-log(1+b) + |lam| * cumulative
    integral of the shared operator integrand), i.e. exp of the image of f.

    ``b_max`` restricts the check to nodes <= b_max (the pointwise
    convergence diagnostics need a cutoff-independent window).
    """
    if b_max is not None:
        checked(b_max, "b_max", 0.0)
    op = TOperator(coupling, cfg or QuadratureConfig())
    cache = op.rf_cache(f)
    d = op.derivative(cache, f.nodes, require_positive=False)
    inner = cumulative_integral(f.nodes, d + 1.0 / (1.0 + f.nodes))
    rhs = np.exp(-np.log1p(f.nodes) + inner)
    lhs = np.exp(f.values)
    rel = np.abs(lhs - rhs) / lhs
    if b_max is not None:
        rel = rel[f.nodes <= b_max]
    return float(rel.max())


def envelope_curves(coupling: Coupling, b) -> tuple[np.ndarray, np.ndarray]:
    """Power-law envelopes bounding exp(f) for domain members."""
    b = np.asarray(b, dtype=float)
    lower = (1.0 + b) ** coupling.lower_envelope_exponent()
    upper = (1.0 + b) ** coupling.upper_envelope_exponent()
    return lower, upper


def solution_rows(result: SolveResult, coupling: Coupling) -> np.ndarray:
    """Columns b, f(b), exp(f(b)), lower envelope, upper envelope."""
    f = result.grid_function
    lower, upper = envelope_curves(coupling, f.nodes)
    return np.column_stack([f.nodes, f.values, np.exp(f.values), lower, upper])
