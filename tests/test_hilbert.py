import math

import numpy as np
import pytest
from scipy import integrate

from carlemanfp.grids import (
    HARD_CUTOFF,
    POWER_LAW_EXTEND,
    Interpolant,
    QuadratureConfig,
    log_envelope_function,
    make_nodes,
    random_klambda,
    zero_function,
)
from carlemanfp import hilbert
from carlemanfp.farfield import DENSE_MAX
from carlemanfp.quadrature import PANEL_FRACTIONS
from carlemanfp.hilbert import (
    HilbertOfExp,
    SampledPVTransform,
    hilbert_power_law,
    power_law_tail_integral,
)

# Independently computed closed form 2 atanh(1/2)/pi.
POWER_LAW_HALF_AT_3 = 0.3496991525660598


def brute_pv_quotient(beta, mu, a):
    """Independent PV oracle: on the symmetric window [0, 2a] the Cauchy
    kernel integrates to zero, so the subtracted integrand is regular."""
    f = lambda x: (beta + x) ** (mu - 1.0)
    fa = f(a)
    inner = integrate.quad(
        lambda x: (f(x) - fa) / (x - a),
        0.0,
        2.0 * a,
        points=[a],
        limit=400,
        epsabs=1e-13,
        epsrel=1e-13,
    )[0]
    outer = integrate.quad(
        lambda x: f(x) / (x - a), 2.0 * a, np.inf, limit=400, epsabs=1e-13,
        epsrel=1e-13,
    )[0]
    return (inner + outer) / math.pi / (beta + a) ** (mu - 1.0)


class TestPowerLawClosedForm:
    def test_arctanh_reduction(self):
        assert hilbert_power_law(1.0, 0.5, 3.0) == pytest.approx(
            POWER_LAW_HALF_AT_3, rel=1e-13
        )
        assert hilbert_power_law(1.0, 0.5, 3.0) == pytest.approx(
            2.0 * math.atanh(0.5) / math.pi, rel=1e-13
        )

    def test_far_field_is_minus_cot(self):
        # the hypergeometric piece carries (beta/(beta+a))^mu, so the
        # quotient drifts to -cot(pi mu) like a^(-mu); for mu = 1/4 the
        # deviation is (1/(mu pi)) (1+a)^(-1/4), i.e. ~1e-3 needs a ~ 1e13
        devs = [abs(hilbert_power_law(1.0, 0.25, a) + 1.0) for a in (1e8, 1e10, 1e13)]
        assert devs == sorted(devs, reverse=True)
        assert devs[-1] < 1e-3

    @pytest.mark.parametrize(
        "beta,mu,a", [(1.0, 0.3, 1.0), (1.0, 0.25, 12.0), (1.0, 0.45, 900.0)]
    )
    def test_brute_force_pv_oracle(self, beta, mu, a):
        assert hilbert_power_law(beta, mu, a) == pytest.approx(
            brute_pv_quotient(beta, mu, a), rel=1e-7
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hilbert_power_law(0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            hilbert_power_law(1.0, 1.5, 1.0)
        with pytest.raises(ValueError):
            hilbert_power_law(1.0, 0.5, 0.0)
        with pytest.raises(ValueError, match="beta"):
            hilbert_power_law(math.nan, 0.5, 1.0)


class TestHilbertOfExp:
    def test_constant_function_hard_cutoff(self):
        lam2 = 1e4
        cfg = QuadratureConfig(n_nodes=400, lambda2=lam2, tail_mode=HARD_CUTOFF)
        f = zero_function(make_nodes(400, lam2))
        a = np.array([0.7, 13.0, 4000.0])
        got = HilbertOfExp(f, cfg).quotient(a)
        assert np.allclose(got, np.log((lam2 - a) / a) / math.pi, atol=1e-14)

    # includes |lam| and lambda_r of the reference coupling
    @pytest.mark.parametrize("mu", [0.1, 0.15915494, 0.23346907, 0.25, 0.45])
    def test_power_law_oracle(self, mu):
        cfg = QuadratureConfig(n_nodes=2000, lambda2=1e6)
        f = log_envelope_function(make_nodes(2000, 1e6), mu - 1.0)
        a = np.geomspace(1e-3, 1e3, 30)
        got = HilbertOfExp(f, cfg).quotient(a)
        oracle = hilbert_power_law(1.0, mu, a)
        assert np.max(np.abs(got / oracle - 1.0)) < 1e-6

    def test_adaptive_pv_oracle_single_point(self):
        mu, a = 0.3, 1.0
        cfg = QuadratureConfig(n_nodes=1500, lambda2=1e6)
        f = log_envelope_function(make_nodes(1500, 1e6), mu - 1.0)
        got = HilbertOfExp(f, cfg).quotient(a)
        assert got == pytest.approx(brute_pv_quotient(1.0, mu, a), rel=1e-6)

    def test_prefactor_kills_origin_divergence(self, fig_coupling, rng):
        cfg = QuadratureConfig(n_nodes=500, lambda2=1e5)
        f = random_klambda(fig_coupling, make_nodes(500, 1e5), rng)
        he = HilbertOfExp(f, cfg)
        a = np.array([1e-2, 1e-4, 1e-6, 1e-8])
        vals = np.abs(a * he.quotient(a))
        assert vals[-1] < 1e-6
        assert np.all(np.diff(vals) < 0)

    def test_envelope_monotonicity(self, fig_coupling, rng):
        # random members sit between the two power-law transform quotients
        cfg = QuadratureConfig(n_nodes=800, lambda2=1e6)
        nodes = make_nodes(800, 1e6)
        a = np.geomspace(1e-2, 1e4, 25)
        lo = hilbert_power_law(1.0, fig_coupling.abs_lambda, a)
        hi = hilbert_power_law(1.0, fig_coupling.lambda_r, a)
        for _ in range(5):
            f = random_klambda(fig_coupling, nodes, rng)
            q = HilbertOfExp(f, cfg).quotient(a)
            assert np.all(q >= lo - 1e-5)
            assert np.all(q <= hi + 1e-5)

    def test_domain_errors(self):
        cfg = QuadratureConfig(n_nodes=200, lambda2=1e4)
        f = log_envelope_function(make_nodes(200, 1e4), -0.8)
        with pytest.raises(ValueError):
            HilbertOfExp(f, cfg).quotient(0.0)
        with pytest.raises(ValueError):
            HilbertOfExp(f, cfg).quotient(1e4)

    @pytest.mark.parametrize("a", [math.nan, [0.1, math.nan], [math.nan, 0.9]])
    def test_nan_points_rejected(self, a):
        # a ValueError before the sum, not a QuadratureError after it
        nodes = make_nodes(200, 1e4)
        cfg = QuadratureConfig(n_nodes=200, lambda2=1e4)
        with pytest.raises(ValueError):
            HilbertOfExp(log_envelope_function(nodes, -0.8), cfg).quotient(a)
        with pytest.raises(ValueError):
            SampledPVTransform(nodes).at(np.sin(np.log1p(nodes)), a)

    def test_non_decaying_tail_rejected(self):
        cfg = QuadratureConfig(n_nodes=200, lambda2=1e4)
        f = zero_function(make_nodes(200, 1e4))
        with pytest.raises(ValueError):
            HilbertOfExp(f, cfg)
        # a NaN exponent passed `p >= -1e-6` and the sum raised
        # QuadratureError on the NaN tail instead
        f.tail_exponent = math.nan
        with pytest.raises(ValueError, match="decaying tail"):
            HilbertOfExp(f, cfg)


class TestSampledTransformLinearity:
    def test_scaling_homogeneity(self):
        nodes = make_nodes(300, 1e4)
        vals = np.sin(np.log1p(nodes)) * np.log1p(nodes)
        transform = SampledPVTransform(nodes)
        a = np.array([0.4, 7.0, 1234.0])
        one, three = transform.at(vals, a), transform.at(3.0 * vals, a)
        assert np.allclose(3.0 * one, three, rtol=1e-12, atol=1e-14)

    def test_additivity(self):
        nodes = make_nodes(300, 1e4)
        v1 = np.log1p(nodes)
        v2 = nodes / (1.0 + nodes)
        a = np.array([0.9, 55.0])
        transform = SampledPVTransform(nodes)
        got = transform.at(v1 + v2, a)
        parts = transform.at(v1, a) + transform.at(v2, a)
        assert np.allclose(got, parts, rtol=1e-11, atol=1e-13)

    def test_zero_point_value(self):
        nodes = make_nodes(300, 1e4)
        vals = nodes / (1.0 + nodes)  # vanishes at 0, integrand regular
        got = SampledPVTransform(nodes).at_zero(vals)
        exact = math.log1p(1e4) / math.pi
        assert got == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("at, error", [(0, ValueError), (5, hilbert.QuadratureError)])
    def test_zero_point_refuses_nan(self, at, error):
        # NaN passed `abs(s(0)) > 1e-12`, and the sum came back NaN
        nodes = make_nodes(300, 1e4)
        vals = nodes / (1.0 + nodes)
        vals[at] = math.nan
        with pytest.raises(error):
            SampledPVTransform(nodes).at_zero(vals)

    def test_only_the_targets_are_located(self, monkeypatch):
        # the panel samples come at fixed fractions of each interval; the
        # point count of every Hermite evaluation, by kind
        calls = []
        at, at_fractions = Interpolant.at, Interpolant.at_fractions

        def located(self, x, *args, **kw):
            calls.append(("located", np.size(x)))
            return at(self, x, *args, **kw)

        def fixed(self, fractions):
            calls.append(("fractions", (self.nodes.size - 1) * np.size(fractions)))
            return at_fractions(self, fractions)

        monkeypatch.setattr(Interpolant, "at", located)
        monkeypatch.setattr(Interpolant, "at_fractions", fixed)
        nodes = make_nodes(300, 1e4)
        vals = nodes / (1.0 + nodes)
        transform = SampledPVTransform(nodes)
        panels = ("fractions", transform.sub_x.size)
        transform.at(vals, np.array([0.9, 55.0, 600.0]))
        assert calls == [panels, ("located", 3)]
        calls.clear()
        transform.at_zero(vals)
        assert calls == [panels]


class TestNonFiniteTransform:
    """A transform that comes out non-finite raises QuadratureError."""

    @pytest.mark.parametrize("point", ["at", "at_zero"])
    def test_sampled_transform_of_nan_values(self, point):
        nodes = make_nodes(300, 1e4)
        vals = nodes / (1.0 + nodes)
        vals[5] = math.nan
        transform = SampledPVTransform(nodes)
        with pytest.raises(hilbert.QuadratureError, match="non-finite"):
            if point == "at":
                transform.at(vals, np.array([0.9, 55.0]))
            else:
                transform.at_zero(vals)

    @pytest.mark.parametrize("mode", [POWER_LAW_EXTEND, HARD_CUTOFF])
    def test_transform_of_exp_with_a_nan_sum(self, mode, monkeypatch):
        # the members are validated as finite, so only a broken sum gets here
        nodes = make_nodes(300, 1e4)
        cfg = QuadratureConfig(n_nodes=300, lambda2=1e4, tail_mode=mode)
        he = HilbertOfExp(log_envelope_function(nodes, -0.8), cfg)
        monkeypatch.setattr(hilbert._Panels, "pv",
                            lambda self, sub_s, a, s_a: np.full(s_a.shape, math.nan))
        for call in (lambda: he.quotient(np.array([0.9, 55.0])),
                     lambda: he.r(np.array([0.0, 0.9]), 0.1),
                     lambda: he.r_samples(0.1)):
            with pytest.raises(hilbert.QuadratureError, match="non-finite"):
                call()


def chunked_pv(sub_x, sub_w, sub_s, x_end, a, s_a):
    """Dense reference for the PV kernel: the PV quadrature in 128-row
    chunks with fresh temporaries, as it was computed before blocking and
    compression."""
    out = np.empty_like(a)
    for lo in range(0, a.size, 128):
        blk = slice(lo, min(lo + 128, a.size))
        diff = sub_x[None, :] - a[blk, None]
        out[blk] = ((sub_s[None, :] - s_a[blk, None]) / diff) @ sub_w
    out += s_a * np.log((x_end - a) / a)
    return out / math.pi


def reversed_pv(sub_x, sub_w, sub_s, x_end, a, s_a):
    """The dense reference summed over the columns in reverse order."""
    return chunked_pv(sub_x[::-1].copy(), sub_w[::-1].copy(), sub_s[::-1].copy(),
                      x_end, a, s_a)


def chunked_quotient(he, a, pv=chunked_pv):
    s_a = np.exp(Interpolant(he.ext.nodes, he.ext.values, he.ext.derivs).at(a))
    h = pv(he.sub_x, he.sub_w, he.sub_g, he.x_end, a, s_a)
    if he.tail_coeff is not None:
        h += power_law_tail_integral(he.tail_coeff, he.tail_p, a, he.x_end)
    return h / s_a


def sampled_pv_args(transform, vals, a):
    """The dense reference's arguments for ``transform.at(vals, a)``: the
    interpolant of the finite-difference derivative samples, from one set
    of limiter slopes, at the panel fractions and at the targets."""
    ext = transform._extension(vals)
    interpolant = Interpolant(transform.nodes, ext.values, ext.derivs)
    sub_s = interpolant.at_fractions(PANEL_FRACTIONS)
    s_a = interpolant.at(a)
    return transform.sub_x, transform.sub_w, sub_s, transform.x_end, a, s_a


# Two dense sums that differ only in the order of their columns differ by
# their rounding; the compressed sum, with its own order, may differ from
# either by twice that, and the (Tf)' interpolation multiplies the rounding
# of its proxy values by its Lebesgue constant, 2.9 for 20 Chebyshev points.
ROUNDING_FACTOR = 4.0


def assert_matches_dense(got, dense, reordered):
    """Bit for bit on the dense path (at most DENSE_MAX points); beyond it,
    within ROUNDING_FACTOR times the spread of the two dense column orders."""
    if got.size <= DENSE_MAX:
        assert np.array_equal(got, dense)
    else:
        spread = np.max(np.abs(reordered - dense))
        assert np.max(np.abs(got - dense)) <= ROUNDING_FACTOR * spread


# one point, fewer points than one row block, and a count past the dense
# path that is a multiple of neither the block nor 4
EXACT_COUNTS = [1, 3, 1201]


class TestBlockedKernelExact:
    """Up to DENSE_MAX points the row-blocked kernel runs the same
    arithmetic as the chunked one, so its results are bit-identical, not
    merely close; past it the far field is compressed and agrees to
    within rounding."""

    @pytest.mark.parametrize("n", EXACT_COUNTS)
    @pytest.mark.parametrize("mode", [POWER_LAW_EXTEND, HARD_CUTOFF])
    def test_quotient(self, fig_coupling, mode, n):
        lam2 = 1e4 if mode == HARD_CUTOFF else 1e6
        cfg = QuadratureConfig(n_nodes=400, lambda2=lam2, tail_mode=mode)
        f = random_klambda(fig_coupling, make_nodes(400, lam2), np.random.default_rng(n))
        he = HilbertOfExp(f, cfg)
        a = np.geomspace(1e-3, 0.9 * lam2, n)
        assert_matches_dense(
            he.quotient(a), chunked_quotient(he, a), chunked_quotient(he, a, reversed_pv)
        )

    @pytest.mark.parametrize("n", EXACT_COUNTS)
    def test_sampled_transform(self, n):
        nodes = make_nodes(300, 1e4)
        vals = np.sin(np.log1p(nodes)) * np.log1p(nodes)
        transform = SampledPVTransform(nodes)
        a = np.geomspace(1e-3, 9e3, n)
        args = sampled_pv_args(transform, vals, a)
        assert_matches_dense(transform.at(vals, a), chunked_pv(*args), reversed_pv(*args))

    def test_every_count_up_to_one_chunk(self, fig_coupling, rng):
        # every remainder modulo 4 and modulo the block, including a lone
        # last row; past 128 the reference's own last chunk can be a single
        # row, whose dot product sums in another order
        f = random_klambda(fig_coupling, make_nodes(400, 1e6), rng)
        he = HilbertOfExp(f, QuadratureConfig(n_nodes=400, lambda2=1e6))
        for n in range(1, 129):
            a = np.geomspace(1e-2, 1e5, n)
            assert np.array_equal(he.quotient(a), chunked_quotient(he, a)), n


class TestCompressedTransform:
    """The far-field compression of the PV sum (more than DENSE_MAX points)."""

    # worst relative error against the closed form at the 1670 nodes of the
    # 2000-node grid inside (1e-3, 1e5), on the dense path, to 2 digits
    DENSE_ORACLE_ERRORS = {0.1: 2.6e-6, 0.25: 1.4e-6, 0.45: 1.1e-6}

    @pytest.mark.parametrize("mu", sorted(DENSE_ORACLE_ERRORS))
    def test_power_law_oracle_at_every_node(self, mu):
        nodes = make_nodes(2000, 1e6)
        he = HilbertOfExp(log_envelope_function(nodes, mu - 1.0), QuadratureConfig())
        a = nodes[(nodes > 1e-3) & (nodes < 1e5)]
        assert a.size == 1670
        oracle = hilbert_power_law(1.0, mu, a)
        err = np.max(np.abs(he.quotient(a) / oracle - 1.0))
        dense_err = np.max(np.abs(chunked_quotient(he, a) / oracle - 1.0))
        assert float(f"{err:.1e}") == self.DENSE_ORACLE_ERRORS[mu]
        assert float(f"{dense_err:.1e}") == self.DENSE_ORACLE_ERRORS[mu]

    @pytest.mark.parametrize("mode", [POWER_LAW_EXTEND, HARD_CUTOFF])
    def test_results_agree_across_the_crossover(self, fig_coupling, rng, mode):
        lam2 = 1e4 if mode == HARD_CUTOFF else 1e6
        cfg = QuadratureConfig(n_nodes=400, lambda2=lam2, tail_mode=mode)
        he = HilbertOfExp(random_klambda(fig_coupling, make_nodes(400, lam2), rng), cfg)
        a = np.geomspace(1e-4, 0.9 * lam2, DENSE_MAX + 1)
        dense, compressed = he.quotient(a[:-1]), he.quotient(a)[:-1]
        reordered = chunked_quotient(he, a[:-1], reversed_pv)
        assert np.array_equal(dense, chunked_quotient(he, a[:-1]))
        spread = np.max(np.abs(reordered - dense))
        assert np.max(np.abs(compressed - dense)) <= ROUNDING_FACTOR * spread

    @pytest.mark.parametrize("mode", [POWER_LAW_EXTEND, HARD_CUTOFF])
    @pytest.mark.parametrize("n_nodes", [400, 2000])
    def test_matches_dense_at_every_size(self, fig_coupling, n_nodes, mode):
        # just past the dense path, and at every node of the working grid,
        # where rf_cache forms R
        lam2 = 1e4 if mode == HARD_CUTOFF else 1e6
        cfg = QuadratureConfig(n_nodes=n_nodes, lambda2=lam2, tail_mode=mode)
        f = random_klambda(fig_coupling, make_nodes(n_nodes, lam2),
                           np.random.default_rng(n_nodes))
        he = HilbertOfExp(f, cfg)
        probes, working = np.geomspace(1e-3, 0.9 * lam2, DENSE_MAX + 1), he.ext.nodes[1:-1]
        # the working grid runs past the cutoff, outside quotient's domain
        for a, quot in ((probes, he.quotient(probes)),
                        (working, he._quotient(working, np.exp(he.ext.at(working))))):
            assert_matches_dense(
                quot,
                chunked_quotient(he, a),
                chunked_quotient(he, a, reversed_pv),
            )

    def test_points_outside_the_boxes_sum_densely(self, fig_coupling, rng):
        # below the first panel point and in any mix with points inside
        cfg = QuadratureConfig(n_nodes=400, lambda2=1e6)
        he = HilbertOfExp(random_klambda(fig_coupling, make_nodes(400, 1e6), rng), cfg)
        outside = np.geomspace(1e-7, 0.5 * he.sub_x[0], DENSE_MAX + 1)
        mixed = np.concatenate([outside, np.geomspace(1e-2, 1e5, DENSE_MAX)])
        for a in (outside, mixed):
            assert_matches_dense(
                he.quotient(a), chunked_quotient(he, a), chunked_quotient(he, a, reversed_pv)
            )

    def test_large_hard_cutoff_grid_matches_dense(self):
        # about 1300 boxes: the far-field constants, prefix sums over the
        # boxes, drift past the rounding of the dense sum (to 14 times its
        # spread here) unless the sums are compensated
        nodes = make_nodes(8000, 1e6)
        cfg = QuadratureConfig(n_nodes=8000, lambda2=1e6, tail_mode=HARD_CUTOFF)
        he = HilbertOfExp(log_envelope_function(nodes, -0.6), cfg)
        a = he.ext.nodes[1:-1:4]
        assert_matches_dense(
            he.quotient(a), chunked_quotient(he, a), chunked_quotient(he, a, reversed_pv)
        )

    @pytest.mark.parametrize("n_nodes", [400, 2000])
    def test_sampled_transform_matches_dense(self, n_nodes):
        nodes = make_nodes(n_nodes, 1e4)
        vals = np.sin(np.log1p(nodes)) * np.log1p(nodes)
        transform = SampledPVTransform(nodes)
        a = np.geomspace(1e-3, 9e3, DENSE_MAX + 1)
        args = sampled_pv_args(transform, vals, a)
        assert_matches_dense(transform.at(vals, a), chunked_pv(*args), reversed_pv(*args))

    def test_constant_function_is_bit_identical(self, monkeypatch):
        # exp(0) = 1: the near field, the far-field difference S - s(a) T and
        # the s(a) log term are exact, so the compressed path adds nothing
        cfg = QuadratureConfig(n_nodes=400, lambda2=1e4, tail_mode=HARD_CUTOFF)
        he = HilbertOfExp(zero_function(make_nodes(400, 1e4)), cfg)
        a = np.geomspace(1e-3, 9e3, 1201)
        compressed = he.quotient(a)
        monkeypatch.setattr(hilbert, "DENSE_MAX", a.size)
        assert np.array_equal(compressed, he.quotient(a))
