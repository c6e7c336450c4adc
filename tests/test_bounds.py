import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlemanfp import bounds, verification
from carlemanfp.coupling import Coupling
from carlemanfp.grids import QuadratureConfig, make_nodes, random_klambda
from carlemanfp.hilbert import HilbertOfExp
from carlemanfp.operators import lb_distance


class TestFBound:
    def test_origin(self):
        assert bounds.f_bound(0.0) == 0.0

    def test_reference_value_at_one(self):
        assert bounds.f_bound(1.0) == pytest.approx(0.141693, abs=1e-5)

    def test_tangent_intersection_point(self):
        # abscissa of the crossing of the tangents at 1/5 and 1/4, and the
        # function value there
        f2, fp2 = bounds.f_bound(0.2), bounds.f_bound_prime(0.2)
        f25, fp25 = bounds.f_bound(0.25), bounds.f_bound_prime(0.25)
        tm = (f25 - f2 + 0.2 * fp2 - 0.25 * fp25) / (fp2 - fp25)
        assert tm == pytest.approx(0.223714, abs=1e-3)
        assert bounds.f_bound(tm) == pytest.approx(-0.190334, abs=1e-5)

    def test_derivatives_match_finite_differences(self):
        h = 1e-6
        for a in (0.3, 1.0, 2.4, 7.0, 50.0):
            fd1 = (bounds.f_bound(a + h) - bounds.f_bound(a - h)) / (2.0 * h)
            assert bounds.f_bound_prime(a) == pytest.approx(fd1, rel=1e-7, abs=1e-9)
            fd2 = (
                bounds.f_bound_prime(a + h) - bounds.f_bound_prime(a - h)
            ) / (2.0 * h)
            assert bounds.f_bound_second(a) == pytest.approx(fd2, rel=1e-6, abs=1e-9)

    def test_composition_through_rescaled_family(self):
        a = np.geomspace(1e-3, 1e3, 30)
        composed = -4.0 + (4.0 + a + bounds.fhat(0.25, a)) / (1.0 + a) ** 0.25
        assert np.allclose(composed, bounds.f_bound(a), rtol=0, atol=1e-13)


class TestFhat:
    def test_vanishes_at_origin(self):
        assert bounds.fhat(0.25, 0.0) == 0.0

    @pytest.mark.parametrize("fn", [bounds.fhat, bounds.fhat_prime])
    def test_lambda_r_outside_range_rejected(self, fn):
        # fhat_prime had no check: at lambda_r = 0.7 it returned -0.4986
        with pytest.raises(ValueError, match="lambda_r"):
            fn(0.7, 1.0)

    def test_derivatives_match_finite_differences(self):
        h = 1e-6
        for lr in (0.1, 0.25):
            for a in (0.4, 1.5, 10.0):
                fd1 = (bounds.fhat(lr, a + h) - bounds.fhat(lr, a - h)) / (2.0 * h)
                assert bounds.fhat_prime(lr, a) == pytest.approx(fd1, rel=1e-7)

    def test_tangent_crossing_reference(self):
        lr = 0.25
        f15, fp15 = bounds.fhat(lr, 0.2), bounds.fhat_prime(lr, 0.2)
        f32, fp32 = bounds.fhat(lr, 1.5), bounds.fhat_prime(lr, 1.5)
        tm = (f32 - f15 + 0.2 * fp15 - 1.5 * fp32) / (fp15 - fp32)
        vm = f15 + (tm - 0.2) * fp15
        assert tm == pytest.approx(0.50048, abs=1e-4)
        assert vm == pytest.approx(-0.296723, abs=1e-5)
        # that crossing certifies the floor -(2 - pi^2/6)
        assert vm >= -(2.0 - math.pi**2 / 6.0)
        assert f32 > 0.0
        assert fp15 < 0.0

    def test_decreasing_in_lambda_r(self):
        a = np.geomspace(1e-2, 1e3, 25)
        lrs = np.linspace(0.05, 0.25, 9)
        vals = np.array([bounds.fhat(lr, a) for lr in lrs])
        assert np.all(np.diff(vals, axis=0) < 0.0)

    @given(
        lr=st.floats(min_value=0.01, max_value=0.99),
        a=st.floats(min_value=1e-3, max_value=1e5),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_bernoulli_positivity(self, lr, a):
        # (1/lr) ((1 + lr a)/(1+a)^lr - 1) >= 0 for 0 < lr < 1
        val = ((1.0 + lr * a) * (1.0 + a) ** (-lr) - 1.0) / lr
        assert val >= -1e-14


class TestSBound:
    def test_constant_branch(self):
        assert bounds.s_bound(6.0) == pytest.approx(bounds.f_bound(6.0), rel=1e-14)
        assert bounds.s_bound(100.0) == bounds.s_bound(7.0)

    def test_first_tangent_at_origin(self):
        want = bounds.f_bound(0.2) - 0.2 * bounds.f_bound_prime(0.2)
        assert bounds.s_bound(0.0) == pytest.approx(want, rel=1e-14)

    def test_breakpoint_jump_reported_and_min_used(self):
        t1 = bounds.f_bound(0.2) + 0.3 * bounds.f_bound_prime(0.2)
        t2 = bounds.f_bound(1.5) - bounds.f_bound_prime(1.5)
        assert t1 != t2  # the two tangents disagree at the breakpoint
        assert bounds.s_bound(0.5) == pytest.approx(min(t1, t2), rel=1e-14)

    def test_minorant_certificate(self):
        [rep] = verification.suite_lemma4()
        assert rep.passed
        assert rep.worst_margin >= -1e-12


class TestFProperties:
    def test_all_six_certificates(self):
        reps = verification.suite_lemma3()
        assert len(reps) == 6
        for rep in reps:
            assert rep.passed, rep.to_line()
            assert rep.worst_margin >= 0.0
        by_id = {r.lemma_id: r for r in reps}
        # window bound margin consistent with the proof window [-1/10, 0.08]
        assert by_id["lemma3.second-deriv-window"].worst_margin >= 0.02
        # the global floor bottoms out near the tangent-crossing abscissa
        assert 0.2 <= by_id["lemma3.global-floor"].worst_location <= 0.28
        assert bounds.f_bound(0.8) >= 0.0


class TestMasterExpression:
    def test_zero_coupling_limit(self):
        b = np.geomspace(1e-3, 1e4, 50)
        assert np.all(bounds.upper_bound_master(b, Coupling(0.0)) == 0.0)
        # smooth approach to the limit
        small = bounds.upper_bound_master(b, Coupling(-1e-9))
        assert np.max(np.abs(small)) < 1e-8

    def test_nonpositive_at_reference_couplings(self):
        b = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 999)])
        for lam in (-1.0 / 6.0, -1.0 / (2.0 * math.pi), -0.02):
            assert np.all(bounds.upper_bound_master(b, Coupling(lam)) <= 0.0)

    def test_dense_grid_certificate(self):
        rep, _ = verification.suite_ck(n_lambda=60)
        assert rep.passed

    def test_dominates_measured_derivative(self, rng):
        # the expression really does bound (Tf)'(b) + (1-lr)/(1+b)
        from carlemanfp.operators import TOperator

        c = Coupling(-1.0 / 6.0)
        nodes = make_nodes(400, 1e6)
        cfg = QuadratureConfig(n_nodes=400, lambda2=1e6)
        op = TOperator(c, cfg)
        b = np.geomspace(1e-2, 1e4, 20)
        ub = bounds.upper_bound_master(b, c)
        for _ in range(3):
            f = random_klambda(c, nodes, rng)
            lhs = op.derivative(op.rf_cache(f), b) + (1.0 - c.lambda_r) / (1.0 + b)
            assert np.all(lhs <= ub + 1e-9)


class TestPrintedCoefficients:
    def test_reference_value_c18(self):
        coeffs = bounds.c_coeffs_printed(Coupling(-1.0 / 6.0))
        assert coeffs[-1] == pytest.approx(-3.53 / 4.0, rel=1e-3)

    def test_all_nonpositive_on_grid(self):
        _, rep = verification.suite_ck(n_lambda=200)
        assert rep.passed

    def test_signs_toward_zero_coupling(self):
        for lam in (-1e-2, -1e-4, -1e-6):
            assert np.all(bounds.c_coeffs_printed(Coupling(lam)) <= 0.0)

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            bounds.c_coeffs_printed(Coupling(0.0))


class TestDeltaRBounds:
    def test_trivial_zeros(self, fig_coupling):
        assert np.all(bounds.delta_r_bounds(0.0, 1.0, fig_coupling) == 0.0)
        assert np.all(bounds.delta_r_bounds(5.0, 0.0, fig_coupling) == 0.0)

    def test_crude_bound_on_third_component(self, fig_coupling):
        t = np.geomspace(1e-3, 1e6, 50)
        comp = bounds.delta_r_bounds(t, 1.0, fig_coupling)[2]
        assert np.all(comp <= t / fig_coupling.abs_lambda + 1e-12)

    def test_pointwise_domination(self, fig_coupling, rng):
        nodes = make_nodes(400, 1e6)
        cfg = QuadratureConfig(n_nodes=400, lambda2=1e6)
        t = np.concatenate([[0.0], np.geomspace(1e-2, 9e5, 20)])
        for _ in range(5):
            f = random_klambda(fig_coupling, nodes, rng)
            g = random_klambda(fig_coupling, nodes, rng)
            delta = lb_distance(f, g)
            measured = np.abs(
                HilbertOfExp(f, cfg).r(t, fig_coupling.abs_lambda)
                - HilbertOfExp(g, cfg).r(t, fig_coupling.abs_lambda)
            )
            allowed = bounds.delta_r_bounds(t, delta, fig_coupling).sum(axis=0)
            assert np.all(measured <= allowed + 1e-6)


class TestContinuityConstant:
    def test_endpoints(self):
        assert bounds.continuity_constant(Coupling(0.0)) == pytest.approx(
            1.36788, abs=1e-4
        )
        assert bounds.continuity_constant(Coupling(-1.0 / 6.0)) == pytest.approx(
            4.09942, abs=1e-4
        )

    def test_interior_value_between_endpoints(self):
        mid = bounds.continuity_constant(Coupling(-1.0 / 12.0))
        assert 1.36788 < mid < 4.09942

    def test_monotone_on_dense_grid(self):
        lams = np.linspace(0.0, -1.0 / 6.0, 40)
        vals = [bounds.continuity_constant(Coupling(l)) for l in lams]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestAuxiliaryFunctions:
    def test_c_tilde_limit_is_one(self):
        # the limit is approached like 1/log(alpha^|lam|), so only a loose
        # band is reachable inside float range; check band plus trend
        for lam in (-0.05, -1.0 / 6.0):
            c = Coupling(lam)
            alphas = np.exp(np.array([10.0, 20.0, 35.0]) / c.abs_lambda)
            alphas = alphas[np.isfinite(alphas)]
            devs = np.abs(bounds.c_tilde_aux(alphas, c) - 1.0)
            assert devs[-1] < 0.15
            assert devs[-1] == devs.min()

    @pytest.mark.parametrize("lam", [-0.05, -0.1, -1.0 / 6.0])
    def test_sup_bounds(self, lam, monkeypatch):
        # prop5's two scans at this coupling; each margin is its bound less
        # the scanned sup
        monkeypatch.setattr(verification, "COUPLINGS", (lam,))
        reports = verification.suite_prop5(seed=0, n_pairs=0)
        aux = {r.lemma_id.split("[")[0]: r.worst_margin for r in reports}
        assert aux["prop5.aux-sup"] >= 0.0
        assert aux["prop5.aux-tilde-sup"] >= 0.0


class TestHilbertQuotientModulus:
    def test_zero_distance(self, fig_coupling):
        assert bounds.hilbert_quotient_modulus(10.0, 0.0, fig_coupling) == 0.0

    def test_negative_point_rejected(self, fig_coupling):
        # log1p(a) made it NaN
        with pytest.raises(ValueError, match="a must lie"):
            bounds.hilbert_quotient_modulus(-2.0, 1.0, fig_coupling)

    def test_value_at_origin(self, fig_coupling):
        from carlemanfp.specfun import zeta_lambda

        assert bounds.hilbert_quotient_modulus(0.0, 2.0, fig_coupling) == pytest.approx(
            2.0 * zeta_lambda(fig_coupling), rel=1e-12
        )

    def test_dominates_measured_difference(self, fig_coupling, rng):
        nodes = make_nodes(400, 1e6)
        cfg = QuadratureConfig(n_nodes=400, lambda2=1e6)
        a = np.geomspace(1e-2, 1e4, 15)
        for _ in range(5):
            f = random_klambda(fig_coupling, nodes, rng)
            g = random_klambda(fig_coupling, nodes, rng)
            delta = lb_distance(f, g)
            qf = HilbertOfExp(f, cfg).quotient(a)
            qg = HilbertOfExp(g, cfg).quotient(a)
            allowed = bounds.hilbert_quotient_modulus(a, delta, fig_coupling)
            assert np.all(np.abs(qf - qg) <= allowed + 1e-6)
