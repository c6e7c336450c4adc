import math

import numpy as np
import pytest

from carlemanfp.coupling import Coupling, lambda_in_theorem_range
from carlemanfp.quadrature import PANEL_FRACTIONS
from carlemanfp.grids import (
    GridFunction,
    QuadratureConfig,
    _limited_slopes,
    log_envelope_function,
    make_nodes,
    random_klambda,
    zero_function,
)


def test_coupling_basics():
    c = Coupling(-1.0 / 6.0)
    assert c.lambda_r == pytest.approx(0.25, rel=1e-15)
    assert Coupling(0.0).lambda_r == 0.0
    with pytest.raises(ValueError):
        Coupling(-0.2)
    with pytest.raises(ValueError):
        Coupling(0.1)
    assert Coupling(-0.2, exploratory=True).lambda_r == pytest.approx(0.2 / 0.6)


def test_exploratory_range_ends_at_minus_one_over_pi():
    # R(t)/t tends to sqrt(1 - (lambda pi)^2): real only for lambda > -1/pi
    assert Coupling(-1.0 / math.pi + 1e-9, exploratory=True).lam > -1.0 / math.pi
    for lam in (-1.0 / math.pi, -0.45, -0.499, 0.1):
        with pytest.raises(ValueError, match=r"\(-1/pi, 0\].*sqrt\(1 - \(lambda pi\)\^2\)"):
            Coupling(lam, exploratory=True)


def test_coupling_range_rule():
    # below -1/6 by more than the guard's 1e-15 of rounding room: refused
    outside = -1.0 / 6.0 - 1e-13
    assert not lambda_in_theorem_range(outside)
    with pytest.raises(ValueError):
        Coupling(outside)
    # within the rounding room: accepted
    inside = -1.0 / 6.0 - 1e-16
    assert lambda_in_theorem_range(inside)
    Coupling(inside)


def test_make_nodes_layout():
    nodes = make_nodes(2000, 1e6)
    assert nodes.size == 2000
    assert nodes[0] == 0.0
    assert nodes[31] == 1.0
    assert nodes[-1] == 1e6
    assert np.all(np.diff(nodes) > 0)
    # linear head spacing
    assert np.allclose(np.diff(nodes[:32]), 1.0 / 31.0)


@pytest.mark.parametrize("n_nodes", [20, 32, 63])
def test_make_nodes_rejects_short_grid(n_nodes):
    with pytest.raises(ValueError, match=rf"n_nodes must lie in \[64, inf\), got {n_nodes}"):
        make_nodes(n_nodes, 1e6)


def test_make_nodes_minimum_grid():
    nodes = make_nodes(64, 1e6)
    assert nodes.size == 64
    assert nodes[31] == 1.0
    assert np.all(np.diff(nodes) > 0)


def test_make_nodes_shares_one_read_only_array_per_grid():
    nodes = make_nodes(300, 1e4)
    assert make_nodes(300, 1e4) is nodes
    assert make_nodes(300, 1e5) is not nodes
    with pytest.raises(ValueError):
        nodes[0] = 1.0


def test_quadrature_config_validation():
    # a NaN count passed `n_nodes < 64`
    for n_nodes in (32, math.nan, math.inf):
        with pytest.raises(ValueError, match="n_nodes"):
            QuadratureConfig(n_nodes=n_nodes)
    for cutoff in (-1.0, 1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="cutoff"):
            QuadratureConfig(lambda2=cutoff)
        with pytest.raises(ValueError, match="cutoff"):
            make_nodes(200, cutoff)
    with pytest.raises(ValueError):
        QuadratureConfig(tail_mode="nope")


def test_hermite_exact_at_nodes_and_smooth():
    nodes = make_nodes(600, 1e4)
    f = log_envelope_function(nodes, -0.8)
    assert np.array_equal(f.at(nodes), f.values)
    probe = np.geomspace(1e-3, 9e3, 200)
    assert np.allclose(f.at(probe), -0.8 * np.log1p(probe), atol=1e-9)
    assert np.allclose(f.derivative_at(probe), -0.8 / (1.0 + probe), rtol=1e-5)


def test_nan_nodes_rejected():
    # NaN passed `np.any(np.diff(nodes) <= 0)` as false
    nodes = np.array([0.0, math.nan, 2.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        GridFunction(nodes, np.zeros(3), np.zeros(3))


@pytest.mark.parametrize("exponent", [math.inf, -math.inf, math.nan])
def test_non_finite_tail_exponent_rejected(exponent):
    # -inf was accepted, and HilbertOfExp then failed on an internal
    # argument: "coeff must lie in (-inf, inf)"
    f = log_envelope_function(make_nodes(64, 1e4), -0.5)
    with pytest.raises(ValueError, match="tail_exponent must lie"):
        GridFunction(f.nodes, f.values, f.derivs, tail_exponent=exponent)


@pytest.mark.parametrize("x", [math.nan, [0.1, math.nan], [math.nan, 0.9]])
def test_nan_points_rejected(x):
    # NaN passes both x < first node and x > last node as false; the
    # interpolant would then return NaN quietly
    f = log_envelope_function(make_nodes(64, 1e4), -0.5)
    with pytest.raises(ValueError):
        f.at(x)
    with pytest.raises(ValueError):
        f.derivative_at(x)


def test_fixed_fractions_match_pointwise_interpolation(fig_coupling, rng):
    # the panel samples: fixed basis weights per fraction instead of
    # locating each point; exact at the nodes, rounding elsewhere
    f = random_klambda(fig_coupling, make_nodes(400, 1e6), rng)
    fractions = np.concatenate([[0.0], PANEL_FRACTIONS, [0.5]])
    points = (f.nodes[:-1, None] + fractions * np.diff(f.nodes)[:, None]).ravel()
    got = f.interpolant.at_fractions(fractions)
    want = f.at(points)
    assert np.array_equal(got[:: fractions.size], f.values[:-1])
    assert np.allclose(got, want, rtol=1e-14, atol=1e-14)
    # the limiter slopes are computed once per function
    assert f.interpolant is f.interpolant


def clip_limited_slopes(nodes, values, derivs):
    """_limited_slopes as first written, with np.clip for the ratios."""
    h = np.diff(nodes)
    delta = np.diff(values) / h
    m_left = derivs[:-1].copy()
    m_right = derivs[1:].copy()
    nonzero = delta != 0.0
    alpha = np.where(nonzero, m_left / np.where(nonzero, delta, 1.0), 0.0)
    beta = np.where(nonzero, m_right / np.where(nonzero, delta, 1.0), 0.0)
    m_left = np.where(nonzero & (alpha < 0.0), 0.0, m_left)
    m_right = np.where(nonzero & (beta < 0.0), 0.0, m_right)
    alpha = np.clip(alpha, 0.0, None)
    beta = np.clip(beta, 0.0, None)
    r2 = alpha**2 + beta**2
    scale = np.where(r2 > 9.0, 3.0 / np.sqrt(np.where(r2 > 0, r2, 1.0)), 1.0)
    m_left = np.where(nonzero, m_left * scale, 0.0)
    m_right = np.where(nonzero, m_right * scale, 0.0)
    return m_left, m_right


def test_limited_slopes_keep_the_bits_of_the_clip_formula(rng):
    # flat stretches (zero differences), slopes against the data (negative
    # ratios), steep slopes past the Fritsch-Carlson circle, and NaN
    n = 4000
    nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, n - 1))])
    values = np.round(rng.normal(size=n), 1)
    derivs = rng.normal(scale=5.0, size=n)
    derivs[rng.integers(0, n, 40)] = -0.0
    values[rng.integers(0, n, 20)] = np.nan
    derivs[rng.integers(0, n, 20)] = np.nan
    with np.errstate(invalid="ignore"):
        got = _limited_slopes(nodes, values, derivs)
        want = clip_limited_slopes(nodes, values, derivs)
    assert np.count_nonzero(np.diff(values) == 0.0) > 100
    for g, w in zip(got, want):
        assert np.isnan(w).any() and (w < 0.0).any() and (w == 0.0).any()
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def test_grid_function_validation():
    nodes = make_nodes(100, 1e3)
    bad = GridFunction(nodes, np.ones_like(nodes), np.zeros_like(nodes))
    with pytest.raises(ValueError):
        bad.validate()
    zero_function(nodes).validate()


def worst_margin(f, coupling):
    lower, upper = f.envelope_margins(coupling)
    return min(lower.min(), upper.min())


def test_envelope_membership(fig_coupling):
    nodes = make_nodes(300, 1e5)
    lower = log_envelope_function(nodes, fig_coupling.lower_envelope_exponent())
    upper = log_envelope_function(nodes, fig_coupling.upper_envelope_exponent())
    assert worst_margin(lower, fig_coupling) >= -1e-12
    assert worst_margin(upper, fig_coupling) >= -1e-12
    outside = log_envelope_function(nodes, -1.01)
    assert worst_margin(outside, fig_coupling) < -1e-6


def test_random_members_land_in_envelope(fig_coupling, rng):
    nodes = make_nodes(400, 1e6)
    # two Gauss-Legendre points per interval up to node k integrate the
    # piecewise-quadratic derivative of the cubic interpolant exactly
    k = nodes.size // 2
    gl_x, gl_w = np.polynomial.legendre.leggauss(2)
    half = 0.5 * np.diff(nodes[: k + 1])[:, None]
    points = (0.5 * (nodes[:k] + nodes[1 : k + 1]))[:, None] + half * gl_x
    for _ in range(25):
        f = random_klambda(fig_coupling, nodes, rng)
        f.validate()
        assert f.values[0] == 0.0
        assert worst_margin(f, fig_coupling) >= -1e-12
        # derivative samples integrate back to the stored values
        val = np.sum(half * gl_w * f.derivative_at(points.ravel()).reshape(points.shape))
        assert val == pytest.approx(f.values[k], abs=5e-6)


def test_tail_exponent_fit(fig_coupling):
    nodes = make_nodes(500, 1e6)
    f = log_envelope_function(nodes, -0.85)
    g = GridFunction(f.nodes, f.values, f.derivs)  # no stored exponent
    assert g.fitted_tail_exponent() == pytest.approx(-0.85, abs=1e-12)
    assert not g.has_slow_tail()
    slow = log_envelope_function(nodes, -0.3)
    assert GridFunction(slow.nodes, slow.values, slow.derivs).has_slow_tail()
