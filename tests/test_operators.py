import dataclasses
import math

import numpy as np
import pytest

from carlemanfp import appendix, bounds, gab, grids, hilbert, operators
from carlemanfp.coupling import Coupling
from carlemanfp.gab import TwoPointReconstruction
from carlemanfp.grids import (
    HARD_CUTOFF,
    POWER_LAW_EXTEND,
    QuadratureConfig,
    _hermite,
    hermite_at_fractions,
    hermite_eval,
    log_envelope_function,
    make_nodes,
    random_klambda,
    zero_function,
)
from carlemanfp.farfield import DENSE_MAX
from carlemanfp.hilbert import HilbertOfExp
from carlemanfp.operators import (
    PoleRegionError,
    TOperator,
    lb_distance,
    lb_norm,
)
from test_hilbert import ROUNDING_FACTOR, assert_matches_dense


@pytest.fixture(scope="module")
def grid600():
    return make_nodes(600, 1e6)


@pytest.fixture(scope="module")
def cfg600():
    return QuadratureConfig(n_nodes=600, lambda2=1e6)


@pytest.fixture
def f_evaluations(monkeypatch):
    """``watch(f)`` returns a list that collects the point count of every
    Hermite evaluation of f, or of its working-grid extension, through
    every module binding of ``hermite_eval``, ``_hermite`` and
    ``hermite_at_fractions``."""
    watched, sizes = [], []

    def count(values, n_points):
        if watched:
            head = watched[0].values[:-1]
            if np.array_equal(values[: head.size], head):
                sizes.append(n_points)

    def counted(nodes, values, derivs, x, *args, **kw):
        count(values, np.size(x))
        return hermite_eval(nodes, values, derivs, x, *args, **kw)

    def counted_located(nodes, values, slopes, x, *args, **kw):
        count(values, np.size(x))
        return _hermite(nodes, values, slopes, x, *args, **kw)

    def counted_fractions(nodes, values, slopes, fractions):
        count(values, (nodes.size - 1) * np.size(fractions))
        return hermite_at_fractions(nodes, values, slopes, fractions)

    for mod in (grids, hilbert, operators, gab):
        if hasattr(mod, "hermite_eval"):
            monkeypatch.setattr(mod, "hermite_eval", counted)
        if mod is not grids and hasattr(mod, "_hermite"):  # grids' is hermite_eval's
            monkeypatch.setattr(mod, "_hermite", counted_located)
        if hasattr(mod, "hermite_at_fractions"):
            monkeypatch.setattr(mod, "hermite_at_fractions", counted_fractions)

    def watch(f):
        watched[:] = [f]
        sizes.clear()
        return sizes

    return watch


class TestNorm:
    def test_zero(self, grid600):
        assert lb_norm(zero_function(grid600)) == 0.0

    def test_power_law_norm(self, grid600, fig_coupling):
        f = log_envelope_function(grid600, -(1.0 - fig_coupling.abs_lambda))
        assert lb_norm(f) == pytest.approx(1.0 - fig_coupling.abs_lambda, rel=1e-14)

    def test_domain_diameter(self, grid600, fig_coupling, rng):
        al = fig_coupling.abs_lambda
        diameter = 2.0 * al**2 / (1.0 - 2.0 * al)
        for _ in range(20):
            f = random_klambda(fig_coupling, grid600, rng)
            g = random_klambda(fig_coupling, grid600, rng)
            assert lb_distance(f, g) <= diameter + 1e-12

    def test_distance_requires_same_grid(self, fig_coupling, rng):
        f = random_klambda(fig_coupling, make_nodes(100, 1e4), rng)
        g = random_klambda(fig_coupling, make_nodes(120, 1e4), rng)
        with pytest.raises(ValueError):
            lb_distance(f, g)


class TestR:
    def test_value_at_zero(self, grid600, cfg600, fig_coupling, rng):
        f = random_klambda(fig_coupling, grid600, rng)
        assert HilbertOfExp(f, cfg600).r(0.0, fig_coupling.abs_lambda) == 1.0

    def test_constant_function_closed_form(self, fig_coupling):
        lam2 = 1e4
        cfg = QuadratureConfig(n_nodes=400, lambda2=lam2, tail_mode=HARD_CUTOFF)
        f = zero_function(make_nodes(400, lam2))
        a = np.array([0.5, 20.0, 3000.0])
        got = HilbertOfExp(f, cfg).r(a, fig_coupling.abs_lambda)
        want = 1.0 - fig_coupling.abs_lambda * a * np.log((lam2 - a) / a)
        assert np.allclose(got, want, rtol=1e-12)

    def test_sandwich_bounds(self, grid600, cfg600, fig_coupling, rng):
        al, lr = fig_coupling.abs_lambda, fig_coupling.lambda_r
        a = np.geomspace(1e-3, 9e5, 60)
        lower = al * math.pi * a / math.tan(lr * math.pi) + 1.0 + al * bounds.f_bound(a)
        upper = al * math.pi * a / math.tan(al * math.pi) + 1.0
        for _ in range(8):
            f = random_klambda(fig_coupling, grid600, rng)
            rv = HilbertOfExp(f, cfg600).r(a, fig_coupling.abs_lambda)
            assert np.all(rv >= lower - 1e-6)
            assert np.all(rv <= upper + 1e-6)


class TestTPrime:
    def test_zero_input_closed_form(self, fig_coupling):
        lam2 = 1e4
        cfg = QuadratureConfig(n_nodes=800, lambda2=lam2, tail_mode=HARD_CUTOFF)
        f = zero_function(make_nodes(800, lam2))
        b = np.array([0.0, 1.0, 10.0, 500.0])
        op = TOperator(fig_coupling, cfg)
        got = op.derivative(op.rf_cache(f), b, require_positive=False)
        want = -1.0 / (fig_coupling.abs_lambda * lam2 + 1.0 + b)
        assert np.allclose(got, want, atol=2e-6)

    def test_pole_guard(self, fig_coupling):
        lam2 = 1e4
        cfg = QuadratureConfig(n_nodes=400, lambda2=lam2, tail_mode=HARD_CUTOFF)
        f = zero_function(make_nodes(400, lam2))
        op = TOperator(fig_coupling, cfg)
        with pytest.raises(PoleRegionError):
            op.derivative(op.rf_cache(f), 0.0)  # R dips below 0 for this input

    @pytest.mark.parametrize("b", [math.nan, [0.1, math.nan], [math.nan, 0.9]])
    def test_nan_points_rejected(self, grid600, cfg600, fig_coupling, rng, b):
        # a ValueError before the sum, not a QuadratureError after it
        op = TOperator(fig_coupling, cfg600)
        cache = op.rf_cache(random_klambda(fig_coupling, grid600, rng))
        with pytest.raises(ValueError):
            op.derivative(cache, b)

    @pytest.mark.parametrize("require_positive", [True, False])
    def test_empty_points(self, grid600, cfg600, fig_coupling, rng, require_positive):
        # the pole guard's b.min() raised numpy's zero-size reduction error
        op = TOperator(fig_coupling, cfg600)
        cache = op.rf_cache(random_klambda(fig_coupling, grid600, rng))
        got = op.derivative(cache, np.empty(0), require_positive=require_positive)
        assert isinstance(got, np.ndarray) and got.shape == (0,)

    @pytest.mark.parametrize("lam", [-0.02, -1.0 / (2.0 * math.pi), -1.0 / 6.0])
    def test_envelope_bounds_random_members(self, grid600, cfg600, lam, rng):
        c = Coupling(lam)
        op = TOperator(c, cfg600)
        for _ in range(4):
            f = random_klambda(c, grid600, rng)
            d = op.derivative(op.rf_cache(f), grid600)
            s = (1.0 + grid600) * d
            assert np.all(s >= -(1.0 - c.abs_lambda) - 1e-6)
            assert np.all(s <= -(1.0 - c.lambda_r) + 1e-6)

    def test_zero_coupling(self, grid600, cfg600):
        c = Coupling(0.0)
        f = log_envelope_function(grid600, -1.0)
        op = TOperator(c, cfg600)
        got = op.derivative(op.rf_cache(f), np.array([0.0, 3.0, 100.0]))
        assert np.allclose(got, -1.0 / np.array([1.0, 4.0, 101.0]), rtol=1e-14)


class TestNumericalFailures:
    """Input that breaks the transform's structure raises QuadratureError,
    never a NaN image or a quietly wrong one."""

    B = np.array([0.0, 1.0, 10.0])

    def test_non_positive_tail_slope_of_r(self, grid600, cfg600, fig_coupling,
                                          monkeypatch):
        # R falls through its last decade, so the secant tail model has no
        # positive slope
        monkeypatch.setattr(HilbertOfExp, "r", lambda self, a, *args, **kwargs:
                            5.0 - np.log1p(a))
        op = TOperator(fig_coupling, cfg600)
        f = log_envelope_function(grid600, fig_coupling.lower_envelope_exponent())
        with pytest.raises(hilbert.QuadratureError, match="non-positive slope"):
            op.rf_cache(f)

    def test_affine_tail_model_out_of_range(self, grid600, cfg600, fig_coupling, rng):
        # an intercept so negative that b + R stays below zero past the grid
        op = TOperator(fig_coupling, cfg600)
        cache = op.rf_cache(random_klambda(fig_coupling, grid600, rng))
        t_end = cache.t_nodes[-1]
        cache = dataclasses.replace(cache, tail_r0=-2.0 * cache.tail_r1 * t_end - 100.0)
        with pytest.raises(hilbert.QuadratureError, match="affine tail model"):
            op.derivative(cache, self.B)

    def test_nan_r_sample(self, grid600, cfg600, fig_coupling, rng):
        op = TOperator(fig_coupling, cfg600)
        cache = op.rf_cache(random_klambda(fig_coupling, grid600, rng))
        rf = cache.rf.copy()
        rf[5] = math.nan
        cache = dataclasses.replace(cache, rf=rf)
        with pytest.raises(hilbert.QuadratureError, match="non-finite"):
            op.derivative(cache, self.B)


class TestTOp:
    def test_image_vanishes_at_origin(self, grid600, cfg600, fig_coupling, rng):
        f = random_klambda(fig_coupling, grid600, rng)
        image = TOperator(fig_coupling, cfg600).apply(f)
        assert image.values[0] == 0.0

    def test_zero_input_full_profile(self, fig_coupling):
        lam2 = 1e4
        cfg = QuadratureConfig(n_nodes=800, lambda2=lam2, tail_mode=HARD_CUTOFF)
        f = zero_function(make_nodes(800, lam2))
        image = TOperator(fig_coupling, cfg).apply(f, require_positive=False)
        want = np.log(1.0 / (1.0 + f.nodes / (1.0 + fig_coupling.abs_lambda * lam2)))
        assert np.max(np.abs(image.values - want)) < 1e-6

    def test_two_arctan_forms_agree(self, fig_coupling, rng):
        nodes = make_nodes(2000, 1e6)
        cfg = QuadratureConfig(n_nodes=2000, lambda2=1e6)
        f = random_klambda(fig_coupling, nodes, rng)
        op = TOperator(fig_coupling, cfg)
        values = op.apply(f).values
        cache = op.rf_cache(f)
        picks = np.random.default_rng(0x5EED).integers(1, nodes.size, size=3)
        diff = max(
            abs(values[i] - op.direct_value(cache, float(nodes[i]))) for i in picks
        )
        assert diff <= 1e-7

    def test_lower_edge_stays_inside(self, grid600, cfg600, fig_coupling):
        f = log_envelope_function(grid600, -(1.0 - fig_coupling.abs_lambda))
        image = TOperator(fig_coupling, cfg600).apply(f)
        lower, upper = image.envelope_margins(fig_coupling)
        assert lower.min() >= -1e-6
        assert upper.min() >= -1e-6

    def test_image_lives_on_the_input_grid(self, grid600, cfg600, fig_coupling, rng):
        # the operator holds no grid: one instance serves every node set
        grid400 = make_nodes(400, 1e6)
        shared = TOperator(fig_coupling, cfg600)
        for nodes in (grid400, grid600, grid400):
            f = random_klambda(fig_coupling, nodes, rng)
            image = shared.apply(f)
            own = QuadratureConfig(n_nodes=nodes.size, lambda2=1e6)
            alone = TOperator(fig_coupling, own).apply(f)
            assert np.array_equal(image.nodes, nodes)
            assert np.array_equal(image.values, alone.values)
            assert np.array_equal(image.derivs, alone.derivs)

    def test_rf_cache_exposed(self, grid600, cfg600, fig_coupling, rng):
        f = random_klambda(fig_coupling, grid600, rng)
        cache = TOperator(fig_coupling, cfg600).rf_cache(f)
        assert cache.t_nodes.size == cache.rf.size
        assert cache.rf[0] == 1.0  # R(0) = exp(-f(0))


def chunked_derivative(op, cache, b, reverse=False):
    """Dense reference for the (Tf)' integral: 256-row chunks with fresh
    temporaries, as it was computed before blocking and compression;
    ``reverse`` sums the t columns in reverse order."""
    al = op.coupling.abs_lambda
    order = slice(None, None, -1 if reverse else 1)
    t, rf, weights = (v[order].copy() for v in (cache.t_nodes, cache.rf, cache.weights))
    alpha2 = (al * math.pi * t) ** 2
    integral = np.empty_like(b)
    for lo in range(0, b.size, 256):
        blk = slice(lo, min(lo + 256, b.size))
        denom = alpha2[None, :] + (b[blk, None] + rf[None, :]) ** 2
        integral[blk] = (1.0 / denom) @ weights
    if cache.tail_r0 is not None:
        integral += op._tail_integral(cache, b)
    return -1.0 / (1.0 + b) + al * integral


class TestBlockedDerivativeExact:
    """Up to DENSE_MAX points the same arithmetic as the chunked integral,
    so bit-identical results; past it the integral is interpolated and
    agrees to within rounding."""

    @pytest.mark.parametrize("n", [1, 3, 1201])
    def test_matches_chunked(self, grid600, cfg600, fig_coupling, rng, n):
        op = TOperator(fig_coupling, cfg600)
        cache = op.rf_cache(random_klambda(fig_coupling, grid600, rng))
        b = np.concatenate([[0.0], np.geomspace(1e-3, 1e6, n - 1)])
        # (1+b) (Tf)' is of order one at every b
        assert_matches_dense(
            (1.0 + b) * op.derivative(cache, b),
            (1.0 + b) * chunked_derivative(op, cache, b),
            (1.0 + b) * chunked_derivative(op, cache, b, reverse=True),
        )

    def test_every_count_up_to_one_chunk(self, grid600, cfg600, fig_coupling, rng):
        # past 256 the reference's own last chunk can be a single row
        op = TOperator(fig_coupling, cfg600)
        cache = op.rf_cache(random_klambda(fig_coupling, grid600, rng))
        for n in range(1, 257):
            b = np.geomspace(1e-2, 1e5, n)
            assert np.array_equal(
                op.derivative(cache, b), chunked_derivative(op, cache, b)
            ), n

    def test_rf_cache_evaluates_f_once(self, grid600, cfg600, fig_coupling, rng,
                                       f_evaluations, monkeypatch):
        f = random_klambda(fig_coupling, grid600, rng)
        op = TOperator(fig_coupling, cfg600)
        calls = f_evaluations(f)
        cache = op.rf_cache(f)
        he, t = cache.hilbert, cache.t_nodes
        # panel samples once; at the R nodes, the nodes of the working
        # grid, f is its stored values
        assert calls == [he.sub_x.size]
        monkeypatch.undo()
        f_t = hermite_eval(he.ext.nodes, he.ext.values, he.ext.derivs, t[1:])
        quot = he.quotient(t[1:], allow_extension=True)
        rf = np.exp(-f_t) - fig_coupling.abs_lambda * math.pi * t[1:] * quot
        assert np.array_equal(cache.rf[1:], rf)

    @pytest.mark.parametrize("mode", [POWER_LAW_EXTEND, HARD_CUTOFF])
    def test_rf_cache_takes_f_at_the_nodes_as_stored(self, grid600, fig_coupling, rng,
                                                      mode):
        # the interpolant equals the stored values at the nodes, and the
        # hard-cutoff midpoints are the fraction 1/2 of each interval
        cfg = QuadratureConfig(n_nodes=600, lambda2=1e6, tail_mode=mode)
        op = TOperator(fig_coupling, cfg)
        cache = op.rf_cache(random_klambda(fig_coupling, grid600, rng))
        rf = cache.hilbert.r(cache.t_nodes, fig_coupling.abs_lambda, allow_extension=True)
        if mode == POWER_LAW_EXTEND:
            assert np.array_equal(cache.rf, rf)
        else:
            assert np.array_equal(cache.rf[0::2], rf[0::2])
            assert np.allclose(cache.rf, rf, rtol=1e-14, atol=0.0)


class TestCompressedDerivative:
    """The interpolated (Tf)' integral (more than DENSE_MAX points)."""

    @pytest.mark.parametrize("lam", [-1.0 / (2.0 * math.pi), -1.0 / 6.0])
    def test_results_agree_across_the_crossover(self, grid600, cfg600, rng, lam):
        c = Coupling(lam)
        op = TOperator(c, cfg600)
        cache = op.rf_cache(random_klambda(c, grid600, rng))
        b = np.concatenate([[0.0], np.geomspace(1e-3, 1e6, DENSE_MAX)])
        dense = (1.0 + b[:-1]) * op.derivative(cache, b[:-1])
        compressed = (1.0 + b[:-1]) * op.derivative(cache, b)[:-1]
        reordered = (1.0 + b[:-1]) * chunked_derivative(op, cache, b[:-1], reverse=True)
        spread = np.max(np.abs(reordered - dense))
        assert np.max(np.abs(compressed - dense)) <= ROUNDING_FACTOR * spread

    def test_hard_cutoff_zero_function_stays_dense(self, fig_coupling, monkeypatch):
        # R dips to about -4e4 here, so every b is summed densely, and the
        # PV sum of exp(0) = 1 is exact on the compressed path too
        _, values, _, derivs = appendix.t0_profile(fig_coupling, 1e6, n_nodes=800)
        for mod in (hilbert, operators):
            monkeypatch.setattr(mod, "DENSE_MAX", 10**9)
        _, dense_values, _, dense_derivs = appendix.t0_profile(
            fig_coupling, 1e6, n_nodes=800
        )
        assert np.array_equal(values, dense_values)
        assert np.array_equal(derivs, dense_derivs)


class TestEquicontinuity:
    def test_scaled_derivative_modulus(self, grid600, cfg600, rng):
        for lam in (-0.05, -1.0 / 6.0):
            c = Coupling(lam)
            op = TOperator(c, cfg600)
            near = grid600[grid600 <= 65.0]
            gaps = np.abs(near[:, None] - near[None, :])
            mask = (gaps > 0.0) & (gaps <= 1.0)
            for _ in range(3):
                f = random_klambda(c, grid600, rng)
                s = op.apply(f).scaled_derivs()[: near.size]
                spread = np.abs(s[:, None] - s[None, :])
                assert np.all(spread[mask] <= gaps[mask] * (1.0 + 1e-6))


class TestContinuityModulus:
    def test_image_distance_bounded(self, rng):
        nodes = make_nodes(400, 1e6)
        cfg = QuadratureConfig(n_nodes=400, lambda2=1e6)
        for lam in (-0.05, -1.0 / 6.0):
            c = Coupling(lam)
            op = TOperator(c, cfg)
            bound = bounds.continuity_constant(c) * 1.01
            for _ in range(10):
                f = random_klambda(c, nodes, rng)
                g = random_klambda(c, nodes, rng)
                delta = lb_distance(f, g)
                if delta < 1e-12:
                    continue
                dist = lb_distance(op.apply(f), op.apply(g))
                assert dist <= bound * delta


def two_evaluation_r(f, a, coupling, cfg):
    """Reference for the one R home: f interpolated on its own nodes for
    exp(-f), and again on the working grid inside the transform quotient.
    Where the two interpolants agree the home must match it bit for bit."""
    quot = HilbertOfExp(f, cfg).quotient(a)
    return np.exp(-f.at(a)) - coupling.abs_lambda * math.pi * a * quot


class TestRHome:
    """HilbertOfExp.r is the one place R is formed; every caller
    interpolates f once per point, with the bits of the old formula."""

    def test_r_evaluates_f_once(self, grid600, cfg600, fig_coupling, rng,
                                f_evaluations):
        f = random_klambda(fig_coupling, grid600, rng)
        a = np.concatenate([[0.0], np.geomspace(1e-3, 9e5, 49)])
        panels = HilbertOfExp(f, cfg600).sub_x.size
        calls = f_evaluations(f)
        HilbertOfExp(f, cfg600).r(a, fig_coupling.abs_lambda)
        assert calls == [panels, a.size]

    def test_reconstruction_evaluates_f_once(self, fig_coupling, rng,
                                             f_evaluations):
        f = random_klambda(fig_coupling, make_nodes(400, 1e6), rng)
        calls = f_evaluations(f)
        rec = TwoPointReconstruction(f, fig_coupling)
        # edge refinement and panel samples; R at the nodes below the cutoff
        # takes the stored values
        assert calls == [hilbert._EDGE_REFINE_LEVELS, rec._hilbert.sub_x.size]
        interpolated = rec._hilbert.r(f.nodes[:-1], fig_coupling.abs_lambda)
        assert np.array_equal(rec._r_nodes[:-1], interpolated)
        calls.clear()
        rec.tau_at(3.0, 0.5)
        assert calls == [1]
        calls.clear()
        grid = np.geomspace(1e-2, 1e2, 12)
        rec.table(grid, grid)
        assert calls == [grid.size]

    @pytest.mark.parametrize("mode", [POWER_LAW_EXTEND, HARD_CUTOFF])
    def test_bits_of_the_two_evaluation_formula(self, fig_coupling, rng, mode):
        nodes = make_nodes(400, 1e6)
        cfg = QuadratureConfig(n_nodes=400, lambda2=1e6, tail_mode=mode)
        f = random_klambda(fig_coupling, nodes, rng)
        # power-law mode: all of (0, cutoff); hard cutoff: below the last
        # interval, where the working grid refines toward the edge
        hi = nodes[-1] if mode == POWER_LAW_EXTEND else nodes[-2]
        inner = nodes[(nodes > 0.0) & (nodes < hi)]
        a = np.concatenate([
            inner,
            0.5 * (inner[1:] + inner[:-1]),
            np.geomspace(1e-9, hi, 300, endpoint=False),
            [np.nextafter(hi, 0.0)],
        ])
        got = HilbertOfExp(f, cfg).r(a, fig_coupling.abs_lambda)
        assert np.array_equal(got, two_evaluation_r(f, a, fig_coupling, cfg))
        assert HilbertOfExp(f, cfg).r(0.0, fig_coupling.abs_lambda) == math.exp(
            -f.values[0]
        )
