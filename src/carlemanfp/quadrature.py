"""Composite quadrature and finite-difference helpers on non-uniform grids.

All rules are locally cubic (4-point stencils), giving O(h^5) accuracy
per interval on the smooth integrands this package produces.  The
interval weights are solved from scaled Vandermonde systems once per
grid and kept, read-only, with the composite weights they sum to, in an
``lru_cache`` of the last 16 grids keyed by the bytes of the nodes
(``_weight_cache``, the package's one memo by points), so every caller on
the same grid shares them, across switches of ``hilbert``'s grid plan
(one ``verify`` run switches between six weight grids).  The
finite-difference stencils need no solve: they are the derivatives of
the Lagrange basis at the stencil's own node, in closed form from
products of node differences.  The panel points of a grid are built for
their caller, which keeps them with the grid's other plans (``hilbert``).

The stencils are laid out stencil-major: the memo keeps the interval
weights and their node indices contiguous in (4, n-1), and the
finite-difference stencils are built in (4, n), so the stencil sums
(``_stencil_sums``) run over axis 0 with the intervals or nodes on
numpy's inner loop rather than a last axis of four.  Each interval or
node still takes its four products in stencil order, so the sums keep
the bits of the interval-major rows.  The public functions return
(n-1, 4) and (n, 4) arrays, as transposed views of that storage.
"""

from __future__ import annotations

import functools

import numpy as np

_GL4_POINTS = np.array(
    [-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526]
)
_GL4_WEIGHTS = np.array(
    [0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538]
)
# where the Gauss-Legendre points sit in each interval, as fractions of it
# (read-only: the interpolants check them once, see grids)
PANEL_FRACTIONS = 0.5 * (1.0 + _GL4_POINTS)
PANEL_FRACTIONS.setflags(write=False)


# Work-array budget of one row block of the kernels that are still summed
# row by row: the dense PV and (Tf)' sums for at most farfield.DENSE_MAX
# targets, and beyond that the padded near-field rows of the PV sum and
# the (Tf)' sum at the Chebyshev proxies.  Blocks this size stay
# in a 2 MiB L2 cache through the elementwise passes and the matrix-vector
# product that reads them; at 2000 nodes, blocks of a quarter of L2 measured
# faster than blocks of all of it.
_BLOCK_BYTES = 512 * 1024


def row_blocks(n_rows: int, row_bytes: int) -> list[slice]:
    """Row blocks of an (n_rows, width) kernel whose work arrays take
    ``row_bytes`` per row, each within the cache budget.

    Blocks start at multiples of 4 rows.  OpenBLAS's dgemv forms the dot
    products four rows at a time, so every 4-aligned blocking puts each
    row in the same group of four and gives bit-identical results; the
    dense sums keep the bits of the unblocked ones this way.  A product
    of a single row takes another summation path, so a lone last row
    joins the block before it.
    """
    rows = max(4, _BLOCK_BYTES // row_bytes // 4 * 4)
    stops = list(range(rows, n_rows, rows)) + [n_rows]
    if n_rows > 1 and n_rows % rows == 1:
        del stops[-2]
    return [slice(lo, hi) for lo, hi in zip([0] + stops[:-1], stops)]


def panel_points(x: np.ndarray):
    """4-point Gauss-Legendre nodes/weights on every interval of ``x``.

    Returns flattened arrays (points, weights) of length 4*(len(x)-1),
    interval by interval.
    """
    x = np.asarray(x, dtype=float)
    h = np.diff(x)
    pts = x[:-1] + PANEL_FRACTIONS[:, None] * h
    wts = (0.5 * _GL4_WEIGHTS)[:, None] * h
    return pts.T.ravel(), wts.T.ravel()


def _stencil_starts(n: int) -> np.ndarray:
    # stencil for interval i: nodes s..s+3 with s = clip(i-1, 0, n-4)
    i = np.arange(n - 1)
    return np.clip(i - 1, 0, n - 4)


def _scaled_stencils(x: np.ndarray, starts: np.ndarray):
    idx = starts[:, None] + np.arange(4)[None, :]
    xs = x[idx]
    centre = xs.mean(axis=1, keepdims=True)
    scale = (xs[:, -1:] - xs[:, :1]) * 0.5
    u = (xs - centre) / scale
    return idx, u, centre.ravel(), scale.ravel()


def _weights(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The interval weights of x and the composite weights they sum to,
    read-only and shared by every caller on the same grid."""
    x = np.asarray(x, dtype=float)
    if x.size < 4:
        raise ValueError("need at least 4 nodes for cubic quadrature")
    return _weight_cache(x.tobytes())


@functools.lru_cache(maxsize=16)
def _weight_cache(key: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weights of the nodes whose bytes are ``key``, solved at the
    first call for them and read-only: the callers on the grid share them.
    ``idx`` and ``w`` are kept stencil-major, contiguous in (4, n-1)."""
    x = np.frombuffer(key)
    n = x.size
    starts = _stencil_starts(n)
    idx, u, centre, scale = _scaled_stencils(x, starts)
    a = (x[:-1] - centre) / scale
    b = (x[1:] - centre) / scale
    powers = np.arange(4)
    moments = (b[:, None] ** (powers + 1) - a[:, None] ** (powers + 1)) / (powers + 1)
    moments *= scale[:, None]
    vand_t = u[:, :, None] ** powers[None, None, :]   # V^T: [interval, k, j]
    w = np.linalg.solve(np.swapaxes(vand_t, 1, 2), moments[..., None])[..., 0]
    composite = np.zeros(n)
    np.add.at(composite, idx, w)
    idx, w = np.ascontiguousarray(idx.T), np.ascontiguousarray(w.T)
    for array in (idx, w, composite):
        array.setflags(write=False)
    return idx, w, composite


def interval_weights(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-interval cubic interpolatory weights.

    Returns ``(idx, w)`` with shape (n-1, 4) each: the integral over
    interval i of the cubic through nodes ``idx[i]`` is ``w[i] @ y[idx[i]]``.
    The arrays are read-only and shared by every caller on the same grid:
    transposed views of the stencil-major storage, whose ``.T`` is
    contiguous in (4, n-1).
    """
    idx, w, _ = _weights(x)
    return idx.T, w.T


def composite_weights(x: np.ndarray) -> np.ndarray:
    """Weights w with sum(w * y) ~= integral of y over [x[0], x[-1]],
    read-only: the callers on the same grid share them."""
    return _weights(x)[2]


def interval_integrals(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The integral over each interval of the cubic through its stencil."""
    idx, w = interval_weights(x)
    return _stencil_sums(idx.T, w.T, y)


def _stencil_sums(idx: np.ndarray, c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k c[k] y[idx[k]] for stencil-major (4, m) ``idx`` and ``c``:
    the products of a row of four, summed in stencil order along axis 0,
    with the m stencils on numpy's inner loop."""
    terms = np.asarray(y, dtype=float).take(idx)
    terms *= c
    return np.sum(terms, axis=0)


def cumulative_integral(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Antiderivative samples F(x_i) with F(x_0) = 0."""
    out = np.empty(x.size)
    out[0] = 0.0
    np.cumsum(interval_integrals(x, y), out=out[1:])
    return out


def fd_derivative_coeffs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-node cubic finite-difference coefficients.

    Returns ``(idx, c)`` of shape (n, 4): derivative estimate at node i
    is ``c[i] @ y[idx[i]]``.  c[i, j] is the derivative at x_i of the
    Lagrange basis polynomial of stencil node j, in closed form:
    prod_{k != i, j} (x_i - x_k) / prod_{k != j} (x_j - x_k) for j != i,
    and sum_{k != i} 1 / (x_i - x_k) at the node's own place.  Both are
    built stencil-major, and returned as transposed views: their ``.T``
    is contiguous in (4, n), for sums over axis 0.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        raise ValueError("need at least 4 nodes for cubic differentiation")
    starts = np.clip(np.arange(n) - 1, 0, n - 4)
    idx = np.arange(4)[:, None] + starts
    xs = x[idx]
    own = (np.arange(n) - starts, np.arange(n))  # node i's place in its stencil
    d = x - xs
    d[own] = 1.0  # left out of the products
    spans = xs[:, None, :] - xs[None, :, :]
    spans[np.arange(4), np.arange(4)] = 1.0
    c = np.prod(d, axis=0) / d / np.prod(spans, axis=1)
    d[own] = np.inf  # left out of the sum
    c[own] = np.sum(1.0 / d, axis=0)
    return idx.T, c.T
