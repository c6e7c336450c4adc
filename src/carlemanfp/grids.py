"""Sampled functions on a log-spaced momentum grid.

A ``GridFunction`` is the solver state: node positions on [0, cutoff],
values f(node), exact derivative samples, and a power-law exponent for
continuing exp(f) beyond the cutoff.  Every layer reads a sampled
function between nodes through one ``Interpolant``, monotone-limited
cubic Hermite, so strictly decreasing members of the fixed-point domain
stay inside their envelope between nodes.

An Interpolant takes values with leading axes, one row per sampled
function on the same nodes (a block, ``hilbert``); every row gets the
bits it gets alone.  The per-interval kernels keep the intervals on the
last axis, numpy's inner loop, with the bits of their interval-major
formulas (``hermite_at_fractions``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .coupling import Coupling
from .domain import checked, unwrap
from .quadrature import PANEL_FRACTIONS

POWER_LAW_EXTEND = "power_law_extend"
HARD_CUTOFF = "hard_cutoff"
TailMode = Literal["power_law_extend", "hard_cutoff"]

HEAD_NODES = 32           # linear nodes on [0, 1] before the log section
RANDOM_MEMBER_BLOCKS = 16  # log(1+x) blocks of a random member's mixing profile
SLOW_TAIL_THRESHOLD = -0.5


def check_node_count(n_nodes: int) -> None:
    """ValueError unless the grid has a log section of at least HEAD_NODES
    nodes past the linear head."""
    checked(n_nodes, "n_nodes", 64.0)


def check_cutoff(lambda2: float) -> None:
    """ValueError unless the cutoff is finite and beyond the linear head."""
    checked(lambda2, "cutoff", 1.0, ends="()")


@dataclass(frozen=True)
class QuadratureConfig:
    """Tail treatment of the transform and operator quadratures.

    ``n_nodes`` and ``lambda2`` are validated but read by nothing else:
    the grid a transform runs on is the sampled function's own.
    """

    n_nodes: int = 2000
    lambda2: float = 1e6
    tail_mode: TailMode = POWER_LAW_EXTEND

    def __post_init__(self) -> None:
        check_node_count(self.n_nodes)
        check_cutoff(self.lambda2)
        if self.tail_mode not in (POWER_LAW_EXTEND, HARD_CUTOFF):
            raise ValueError(f"unknown tail mode {self.tail_mode!r}")


def make_nodes(n_nodes: int = 2000, lambda2: float = 1e6) -> np.ndarray:
    """Node layout: linear head on [0, 1], log-spaced up to the cutoff.

    The array is read-only and shared by every caller on the same grid,
    so solutions kept on one grid share their nodes.
    """
    check_node_count(n_nodes)
    check_cutoff(lambda2)
    return _node_layout(int(n_nodes), float(lambda2))


@functools.lru_cache(maxsize=8)
def _node_layout(n_nodes: int, lambda2: float) -> np.ndarray:
    head = np.linspace(0.0, 1.0, HEAD_NODES)
    tail = np.geomspace(1.0, lambda2, n_nodes - HEAD_NODES + 1)[1:]
    nodes = np.concatenate([head, tail])
    nodes[-1] = lambda2
    nodes.setflags(write=False)
    return nodes


def _limited_slopes(nodes, values, derivs):
    """Fritsch-Carlson limited endpoint slopes per interval, along the
    last axis."""
    delta = np.diff(values) / np.diff(nodes)
    nonzero = delta != 0.0
    safe = np.where(nonzero, delta, 1.0)
    m_left, m_right = derivs[..., :-1], derivs[..., 1:]
    alpha = np.where(nonzero, m_left / safe, 0.0)
    beta = np.where(nonzero, m_right / safe, 0.0)
    # a slope against the data, and every slope of a flat interval, is 0
    drop_left = (alpha < 0.0) | ~nonzero
    drop_right = (beta < 0.0) | ~nonzero
    np.maximum(alpha, 0.0, out=alpha)
    np.maximum(beta, 0.0, out=beta)
    r2 = np.multiply(alpha, alpha, out=alpha)
    r2 += np.multiply(beta, beta, out=beta)
    # 3 / sqrt(max(r2, 9)) is 1 exactly inside the circle r2 <= 9, and
    # fmax takes 9 for a NaN r2, which the limiter leaves unscaled
    scale = np.divide(3.0, np.sqrt(np.fmax(r2, 9.0, out=r2), out=r2), out=r2)
    m_left = m_left * scale
    m_right = m_right * scale
    np.copyto(m_left, 0.0, where=drop_left)
    np.copyto(m_right, 0.0, where=drop_right)
    return m_left, m_right


def _hermite(nodes, values, slopes, x: np.ndarray, with_derivative: bool = False):
    """``Interpolant.at``, of limiter slopes ``slopes``, for values of any
    leading shape; the derivative too if asked."""
    ml, mr = slopes
    # the interval of each point; minimum and maximum in place, as the
    # np.clip wrapper costs more than the clipping on a few points
    idx = np.searchsorted(nodes, x, side="right")
    idx -= 1
    np.minimum(np.maximum(idx, 0, out=idx), nodes.size - 2, out=idx)
    upper = idx + 1
    x_lo = nodes[idx]
    h = nodes[upper] - x_lo
    t = (x - x_lo) / h
    t2 = t * t
    t3 = t2 * t
    h00 = 2 * t3 - 3 * t2 + 1
    h10 = t3 - 2 * t2 + t
    h01 = -2 * t3 + 3 * t2
    h11 = t3 - t2
    # take along the last axis: as fast as values[idx], and for any leading shape
    v_lo, v_hi = values.take(idx, axis=-1), values.take(upper, axis=-1)
    m_lo, m_hi = ml.take(idx, axis=-1), mr.take(idx, axis=-1)
    v = h00 * v_lo + h10 * h * m_lo + h01 * v_hi + h11 * h * m_hi
    if not with_derivative:
        return v
    d00 = (6 * t2 - 6 * t) / h
    d10 = 3 * t2 - 4 * t + 1
    d01 = (-6 * t2 + 6 * t) / h
    d11 = 3 * t2 - 2 * t
    d = d00 * v_lo + d10 * m_lo + d01 * v_hi + d11 * m_hi
    return v, d


def _fraction_basis(fractions) -> tuple[np.ndarray, ...]:
    """The four cubic Hermite basis functions at fractions in [0, 1], as
    columns: one row per fraction, to broadcast against the intervals."""
    t, _ = checked(fractions, "fractions", 0.0, 1.0)
    t = t[:, None]
    t2 = t * t
    t3 = t2 * t
    return 2 * t3 - 3 * t2 + 1, t3 - 2 * t2 + t, -2 * t3 + 3 * t2, t3 - t2


# The basis at the panel fractions, which are read-only: checked and formed
# once, not at every panel sample.
_PANEL_BASIS = _fraction_basis(PANEL_FRACTIONS)


def hermite_at_fractions(nodes, values, slopes, fractions) -> np.ndarray:
    """The interpolant of limiter slopes ``slopes`` at nodes[i] +
    c (nodes[i+1] - nodes[i]) for every interval i and
    fraction c in [0, 1], interval by interval: the fixed fractions give
    fixed basis weights, so no point is located on the grid.  Values with
    leading axes give one row of samples per row of values.

    The four terms are summed stencil-major, in a (..., fraction,
    interval) array with the intervals on the last axis, where numpy's
    inner loops run long; each sample takes the same products and sums in
    the same order as at the interval-major layout, so it keeps its bits.
    The result is swapped back to interval-major order.
    """
    ml, mr = slopes
    b00, b10, b01, b11 = (
        _PANEL_BASIS if fractions is PANEL_FRACTIONS else _fraction_basis(fractions)
    )
    h = np.diff(nodes)
    out = np.multiply(b00, values[..., None, :-1])
    work = np.empty_like(out)
    out += np.multiply(b10 * h, ml[..., None, :], out=work)
    out += np.multiply(b01, values[..., None, 1:], out=work)
    out += np.multiply(b11 * h, mr[..., None, :], out=work)
    return out.swapaxes(-1, -2).reshape(out.shape[:-2] + (-1,))


class Interpolant:
    """Monotone-limited cubic Hermite interpolant of values and derivative
    samples on nodes, one row per leading index of the values.  The
    limiter slopes are formed here, so the samples are not changed in
    place after that."""

    def __init__(self, nodes, values, derivs):
        self.nodes, self.values, self.derivs = nodes, values, derivs
        self.slopes = _limited_slopes(nodes, values, derivs)

    def at(self, x: np.ndarray, with_derivative: bool = False):
        """Each row at points x already checked to lie on the grid, and
        its derivative if asked."""
        return _hermite(self.nodes, self.values, self.slopes, x, with_derivative)

    def at_fractions(self, fractions) -> np.ndarray:
        """Each row at the same fractions of every interval."""
        return hermite_at_fractions(self.nodes, self.values, self.slopes, fractions)


@dataclass
class GridFunction:
    """Sampled member of the log-bounded function space.

    Its interpolant is formed at its first use and kept, so ``values``
    and ``derivs`` are not changed in place after that.
    """

    nodes: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    tail_exponent: float | None = None

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.derivs = np.asarray(self.derivs, dtype=float)
        if not (self.nodes.size == self.values.size == self.derivs.size):
            raise ValueError("nodes, values and derivs must have equal length")
        if self.nodes[0] != 0.0:
            raise ValueError("grid must start at 0")
        if not np.all(np.diff(self.nodes) > 0.0):
            raise ValueError("nodes must be strictly increasing")
        if self.tail_exponent is not None:
            checked(self.tail_exponent, "tail_exponent")

    # -- membership ---------------------------------------------------

    def validate(self) -> None:
        """Basic space membership: f(0) = 0 and finite bounded derivative."""
        if abs(self.values[0]) > 1e-12:
            raise ValueError(f"f(0) must vanish, got {self.values[0]}")
        if not np.all(np.isfinite(self.values)) or not np.all(np.isfinite(self.derivs)):
            raise ValueError("non-finite samples")
        if not np.all(np.isfinite(self.scaled_derivs())):
            raise ValueError("unbounded scaled derivative")

    def scaled_derivs(self) -> np.ndarray:
        return (1.0 + self.nodes) * self.derivs

    def envelope_margins(self, coupling: Coupling):
        """Signed distances of (1+x) f' to the envelope band (>=0 inside)."""
        s = self.scaled_derivs()
        lower = s - coupling.lower_envelope_exponent()
        upper = coupling.upper_envelope_exponent() - s
        return lower, upper

    # -- evaluation ---------------------------------------------------

    @functools.cached_property
    def interpolant(self) -> Interpolant:
        return Interpolant(self.nodes, self.values, self.derivs)

    def at(self, x):
        x, scalar = checked(x, "x", self.nodes[0], self.nodes[-1])
        return unwrap(self.interpolant.at(x), scalar)

    def derivative_at(self, x):
        x, scalar = checked(x, "x", self.nodes[0], self.nodes[-1])
        return unwrap(self.interpolant.at(x, True)[1], scalar)

    # -- tail ---------------------------------------------------------

    def fitted_tail_exponent(self) -> float:
        """Secant slope of f against log(1+x) over the last grid decade."""
        if self.tail_exponent is not None:
            return float(self.tail_exponent)
        x_end = self.nodes[-1]
        k = int(np.searchsorted(self.nodes, x_end / 10.0))
        k = min(k, self.nodes.size - 2)
        du = np.log1p(x_end) - np.log1p(self.nodes[k])
        return float((self.values[-1] - self.values[k]) / du)

    def has_slow_tail(self) -> bool:
        return self.fitted_tail_exponent() > SLOW_TAIL_THRESHOLD


def log_envelope_function(nodes: np.ndarray, exponent: float) -> GridFunction:
    """The exact power-law member f(x) = exponent * log(1+x)."""
    checked(exponent, "exponent")
    nodes = np.asarray(nodes, dtype=float)
    values = exponent * np.log1p(nodes)
    derivs = exponent / (1.0 + nodes)
    return GridFunction(nodes, values, derivs, tail_exponent=exponent)


def zero_function(nodes: np.ndarray) -> GridFunction:
    nodes = np.asarray(nodes, dtype=float)
    return GridFunction(nodes, np.zeros_like(nodes), np.zeros_like(nodes), 0.0)


def random_klambda(
    coupling: Coupling,
    nodes: np.ndarray,
    rng: np.random.Generator,
) -> GridFunction:
    """Random member of the fixed-point domain.

    The scaled derivative profile interpolates between the two envelope
    edges through a random piecewise-linear mixing profile theta(u) in
    [0, 1] on u = log(1+x) blocks, then f is recovered by exact
    integration of the piecewise-linear profile.
    """
    nodes = np.asarray(nodes, dtype=float)
    u = np.log1p(nodes)
    u_max = u[-1]
    edges = np.linspace(0.0, u_max, RANDOM_MEMBER_BLOCKS + 1)
    centres = 0.5 * (edges[:-1] + edges[1:])
    theta_blocks = rng.uniform(0.0, 1.0, RANDOM_MEMBER_BLOCKS)
    breaks = np.concatenate([[0.0], centres, [u_max]])
    theta = np.concatenate([[theta_blocks[0]], theta_blocks, [theta_blocks[-1]]])

    lo = coupling.lower_envelope_exponent()
    hi = coupling.upper_envelope_exponent()
    d_breaks = lo * theta + hi * (1.0 - theta)        # piecewise linear in u

    # Exact antiderivative of the piecewise-linear profile.
    f_breaks = np.concatenate(
        [[0.0], np.cumsum(0.5 * (d_breaks[1:] + d_breaks[:-1]) * np.diff(breaks))]
    )
    seg = np.clip(np.searchsorted(breaks, u, side="right") - 1, 0, breaks.size - 2)
    du = u - breaks[seg]
    seg_len = np.diff(breaks)[seg]
    slope = (d_breaks[seg + 1] - d_breaks[seg]) / seg_len
    values = f_breaks[seg] + d_breaks[seg] * du + 0.5 * slope * du * du
    d_at_u = d_breaks[seg] + slope * du
    derivs = d_at_u / (1.0 + nodes)
    return GridFunction(nodes, values, derivs, tail_exponent=float(d_breaks[-1]))
