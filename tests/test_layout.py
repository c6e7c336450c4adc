"""The per-interval cubic kernels run stencil-major, with the intervals on
the last axis; each keeps the bits of its interval-major formula.

Every reference below is the kernel as first written, interval-major with
the axis of four last.  Bits are compared through ``.view(np.uint64)``, so
a -0.0 for a +0.0 or a NaN of another payload counts as a difference.
"""

import numpy as np
import pytest

from carlemanfp.grids import _limited_slopes, hermite_at_fractions, make_nodes
from carlemanfp.hilbert import SampledPVTransform
from carlemanfp.quadrature import (
    _GL4_WEIGHTS,
    PANEL_FRACTIONS,
    cumulative_integral,
    fd_derivative_coeffs,
    interval_integrals,
    interval_weights,
    panel_points,
)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def rough_data(rng, n, rows=()):
    """Samples with flat stretches (zero differences), slopes against the
    data and past the Fritsch-Carlson circle, -0.0 and NaN."""
    values = np.round(rng.normal(size=rows + (n,)), 1)
    derivs = rng.normal(scale=5.0, size=rows + (n,))
    derivs[..., rng.integers(0, n, 40)] = -0.0
    values[..., rng.integers(0, n, 20)] = np.nan
    derivs[..., rng.integers(0, n, 20)] = np.nan
    return values, derivs


def irregular_nodes(rng, n):
    return np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, n - 1))])


def interval_major_hermite(nodes, values, slopes, fractions):
    """hermite_at_fractions as first written: an (..., interval, fraction)
    array summed term by term."""
    ml, mr = slopes
    t = np.atleast_1d(np.asarray(fractions, dtype=float))
    t2 = t * t
    t3 = t2 * t
    b00, b10, b01, b11 = 2 * t3 - 3 * t2 + 1, t3 - 2 * t2 + t, -2 * t3 + 3 * t2, t3 - t2
    h = np.diff(nodes)[:, None]
    v = (
        b00 * values[..., :-1, None]
        + b10 * h * ml[..., None]
        + b01 * values[..., 1:, None]
        + b11 * h * mr[..., None]
    )
    return v.reshape(v.shape[:-2] + (-1,))


FRACTIONS = [
    PANEL_FRACTIONS,
    np.array(PANEL_FRACTIONS),  # the same values, through the general basis
    np.array([0.0, 0.25, 0.5, 1.0]),
    [0.5],
    0.3,
    np.linspace(0.0, 1.0, 7),
]


@pytest.mark.parametrize("rows", [(), (1,), (3,), (2, 3)])
@pytest.mark.parametrize("k", range(len(FRACTIONS)))
def test_hermite_at_fractions_keeps_the_interval_major_bits(rng, rows, k):
    n = 700
    nodes = irregular_nodes(rng, n)
    values, derivs = rough_data(rng, n, rows)
    with np.errstate(invalid="ignore"):
        slopes = _limited_slopes(nodes, values, derivs)
        got = hermite_at_fractions(nodes, values, slopes, FRACTIONS[k])
        want = interval_major_hermite(nodes, values, slopes, FRACTIONS[k])
    assert np.isnan(want).any() and (want == 0.0).any()
    assert_same_bits(got, want)
    if rows:
        # every row gets the bits of its samples alone
        for i in np.ndindex(rows):
            alone = hermite_at_fractions(
                nodes, values[i], tuple(s[i] for s in slopes), FRACTIONS[k]
            )
            assert_same_bits(got[i], alone)


def test_hermite_at_fractions_on_the_production_grid(rng):
    nodes = make_nodes(2000, 1e6)
    values = np.cumsum(-rng.uniform(0.0, 1e-3, 2000))
    derivs = -rng.uniform(0.0, 1.0, 2000) / (1.0 + nodes)
    slopes = _limited_slopes(nodes, values, derivs)
    assert_same_bits(
        hermite_at_fractions(nodes, values, slopes, PANEL_FRACTIONS),
        interval_major_hermite(nodes, values, slopes, PANEL_FRACTIONS),
    )


def interval_major_integrals(x, y):
    idx, w = (np.ascontiguousarray(a) for a in interval_weights(x))
    return np.sum(w * y[idx], axis=1)


@pytest.mark.parametrize("nodes", ["production", "irregular"])
def test_interval_integrals_keep_the_interval_major_bits(rng, nodes):
    x = make_nodes(2000, 1e6) if nodes == "production" else irregular_nodes(rng, 500)
    y, _ = rough_data(rng, x.size)
    y[rng.integers(0, x.size, 10)] = -0.0
    got = interval_integrals(x, y)
    want = interval_major_integrals(x, y)
    assert np.isnan(want).any()
    assert_same_bits(got, want)
    smooth = np.exp(-np.log1p(x))
    assert_same_bits(interval_integrals(x, smooth), interval_major_integrals(x, smooth))
    # cumulative_integral sums those integrals from a leading 0
    for data in (y, smooth):
        want = np.concatenate([[0.0], np.cumsum(interval_major_integrals(x, data))])
        assert_same_bits(cumulative_integral(x, data), want)


def test_interval_weights_are_transposed_stencil_major_storage():
    x = make_nodes(300, 1e4)
    idx, w = interval_weights(x)
    assert idx.shape == w.shape == (x.size - 1, 4)
    for a in (idx, w):
        assert a.T.flags.c_contiguous and not a.flags.writeable
    assert np.array_equal(idx[:, 0], np.clip(np.arange(x.size - 1) - 1, 0, x.size - 4))


def interval_major_fd_coeffs(x):
    """fd_derivative_coeffs as first written, (node, stencil) arrays."""
    n = x.size
    starts = np.clip(np.arange(n) - 1, 0, n - 4)
    idx = starts[:, None] + np.arange(4)[None, :]
    xs = x[idx]
    own = (np.arange(n), np.arange(n) - starts)
    d = x[:, None] - xs
    d[own] = 1.0
    spans = xs[:, :, None] - xs[:, None, :]
    spans[:, np.arange(4), np.arange(4)] = 1.0
    c = np.prod(d, axis=1, keepdims=True) / d / np.prod(spans, axis=2)
    d[own] = np.inf
    c[own] = np.sum(1.0 / d, axis=1)
    return idx, c


@pytest.mark.parametrize("n", [4, 5, 64, 2000])
def test_fd_coeffs_keep_the_interval_major_bits(rng, n):
    for x in (make_nodes(max(n, 64), 1e6), irregular_nodes(rng, n)):
        idx, c = fd_derivative_coeffs(x)
        want_idx, want_c = interval_major_fd_coeffs(x)
        assert np.array_equal(idx, want_idx)
        assert_same_bits(c, want_c)
        assert idx.T.flags.c_contiguous and c.T.flags.c_contiguous


@pytest.mark.parametrize("n", [64, 2000])
def test_sampled_transform_derivative_samples_keep_the_bits(rng, n):
    x = make_nodes(n, 1e6)
    idx, c = interval_major_fd_coeffs(x)
    transform = SampledPVTransform(x)
    for y in (np.sin(np.log1p(x)), rough_data(rng, n)[0]):
        got = transform._extension(y).derivs
        assert_same_bits(got, np.sum(c * y[idx], axis=1))


def interval_major_panel_points(x):
    lo = x[:-1]
    h = np.diff(x)
    pts = lo[:, None] + PANEL_FRACTIONS[None, :] * h[:, None]
    wts = (0.5 * _GL4_WEIGHTS)[None, :] * h[:, None]
    return pts.ravel(), wts.ravel()


def test_panel_points_keep_the_interval_major_bits(rng):
    for x in (make_nodes(2000, 1e6), irregular_nodes(rng, 300)):
        for got, want in zip(panel_points(x), interval_major_panel_points(x)):
            assert_same_bits(got, want)
