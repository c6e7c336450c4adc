import numpy as np
import pytest

from carlemanfp.grids import make_nodes
from carlemanfp.quadrature import (
    _BLOCK_BYTES,
    composite_weights,
    cumulative_integral,
    fd_derivative_coeffs,
    panel_points,
    row_blocks,
)


@pytest.fixture
def grid():
    return make_nodes(600, 1e4)


def test_panel_points_integrate_polynomials(grid):
    xs, ws = panel_points(grid)
    for k in range(8):  # 4-point Gauss is exact through degree 7
        exact = (grid[-1] ** (k + 1) - grid[0] ** (k + 1)) / (k + 1)
        assert np.sum(ws * xs**k) == pytest.approx(exact, rel=1e-13)


def test_composite_weights_cubic_exact(grid):
    w = composite_weights(grid)
    for k in range(4):
        exact = grid[-1] ** (k + 1) / (k + 1)
        assert np.sum(w * grid**k) == pytest.approx(exact, rel=1e-13)


def test_composite_weights_smooth_function(grid):
    w = composite_weights(grid)
    y = 1.0 / (1.0 + grid) ** 1.5
    exact = 2.0 * (1.0 - (1.0 + 1e4) ** -0.5)
    assert np.sum(w * y) == pytest.approx(exact, rel=5e-7)


def test_cumulative_integral(grid):
    got = cumulative_integral(grid, 1.0 / (1.0 + grid))
    assert got[0] == 0.0
    assert np.max(np.abs(got - np.log1p(grid))) < 1e-6


def test_fourth_order_convergence():
    errs = []
    for n in (300, 600):
        g = make_nodes(n, 1e4)
        got = cumulative_integral(g, 1.0 / (1.0 + g))[-1]
        errs.append(abs(got - np.log1p(1e4)))
    # halving the log-section mesh must gain roughly 2^4
    assert errs[0] / errs[1] > 8.0


def test_fd_derivatives(grid):
    idx, c = fd_derivative_coeffs(grid)
    d = np.sum(c * np.log1p(grid)[idx], axis=1)
    scaled_err = np.abs(d - 1.0 / (1.0 + grid)) * (1.0 + grid)
    # near-boundary stencils (large curvature over the linear head) are a
    # grade coarser than the rest of the grid
    assert np.max(scaled_err) < 1e-4
    assert np.max(scaled_err[8:-2]) < 1e-5


def vandermonde_fd_coeffs(x):
    """The stencils of fd_derivative_coeffs from the scaled Vandermonde
    solve: the coefficients that differentiate 1, u, u^2, u^3 exactly at
    each node, u the node's position in its stencil, centred and scaled."""
    n = x.size
    starts = np.clip(np.arange(n) - 1, 0, n - 4)
    idx = starts[:, None] + np.arange(4)
    xs = x[idx]
    centre = xs.mean(axis=1, keepdims=True)
    scale = (xs[:, -1:] - xs[:, :1]) * 0.5
    u = (xs - centre) / scale
    ui = (x - centre[:, 0]) / scale[:, 0]
    powers = np.arange(4)
    dvec = np.zeros((n, 4))
    dvec[:, 1:] = powers[1:] * ui[:, None] ** (powers[1:] - 1)
    dvec /= scale
    vand = np.swapaxes(u[:, :, None] ** powers, 1, 2)
    return idx, np.linalg.solve(vand, dvec[..., None])[..., 0]


@pytest.mark.parametrize("n", [64, 300, 2000, 8000])
def test_fd_coeffs_match_the_vandermonde_solve(n):
    x = make_nodes(n, 1e6)
    idx, c = fd_derivative_coeffs(x)
    ref_idx, ref = vandermonde_fd_coeffs(x)
    assert np.array_equal(idx, ref_idx)
    rel = np.abs(c - ref) / np.max(np.abs(ref), axis=1, keepdims=True)
    assert np.max(rel) <= 1e-14


@pytest.mark.parametrize("n", [64, 300, 2000, 8000])
def test_fd_coeffs_exact_on_cubics(n):
    # the monomials ((x - x_i) / h_i)^k about each node, h_i its stencil's
    # span, have derivative 1/h_i at x_i for k = 1 and 0 otherwise
    x = make_nodes(n, 1e6)
    idx, c = fd_derivative_coeffs(x)
    xs = x[idx]
    h = xs[:, -1] - xs[:, 0]
    for k in range(4):
        y = ((xs - x[:, None]) / h[:, None]) ** k
        want = 1.0 if k == 1 else 0.0
        assert np.max(np.abs(np.sum(c * y, axis=1) * h - want)) <= 1e-14


@pytest.mark.parametrize("row_bytes", [8, 16 * 2876, 8 * 2319, 16 * 9276, 10**7])
def test_row_blocks_tile_rows_in_aligned_blocks(row_bytes):
    for n in range(0, 400):
        blocks = row_blocks(n, row_bytes)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        for prev, blk in zip(blocks, blocks[1:]):
            assert blk.start == prev.stop and blk.start % 4 == 0
        if n > 1:
            assert all(blk.stop - blk.start > 1 for blk in blocks)
        longest = max(blk.stop - blk.start for blk in blocks)
        # within the budget, give or take the lone last row folded in
        assert longest <= max(4, _BLOCK_BYTES // row_bytes) + 1
