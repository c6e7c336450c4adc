import math

import numpy as np
import pytest

from carlemanfp import solver
from carlemanfp.coupling import Coupling
from carlemanfp.grids import QuadratureConfig, log_envelope_function, make_nodes
from carlemanfp.operators import TOperator, lb_distance
from carlemanfp.solver import (
    ANDERSON_DEPTH,
    AndersonMixer,
    NonConvergenceError,
    SolverConfig,
    _band_margin,
    _next_iterate,
    _escapes,
    consistency_residual,
    envelope_curves,
    initial_guess,
    solution_rows,
    solve,
)


class TestInitialGuess:
    def test_shape_and_membership(self, fig_coupling):
        nodes = make_nodes(300, 1e5)
        f = initial_guess(fig_coupling, nodes)
        assert f.values[0] == 0.0
        scaled = f.scaled_derivs()
        assert np.allclose(scaled, -(1.0 - fig_coupling.abs_lambda), rtol=1e-15)
        lower, _ = f.envelope_margins(fig_coupling)
        assert np.allclose(lower, 0.0, atol=1e-15)  # sits on the steep edge


class TestSolverConfig:
    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_iteration_cap_below_one_rejected(self, fig_coupling, max_iters):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(coupling=fig_coupling, max_iters=max_iters)

    def test_envelope_slack_is_not_a_setting(self, fig_coupling):
        assert SolverConfig.envelope_slack == 1e-6
        assert SolverConfig(coupling=fig_coupling).envelope_slack == 1e-6
        with pytest.raises(TypeError):
            SolverConfig(coupling=fig_coupling, envelope_slack=float("nan"))


class TestSolve:
    def test_zero_coupling_instant(self):
        cfg = SolverConfig(coupling=Coupling(0.0), lambda2=1e4, n_nodes=300)
        res = solve(cfg)
        assert res.iterations == 1
        assert np.allclose(res.grid_function.values, -np.log1p(res.grid_function.nodes))

    def test_reference_coupling(self, small_solution):
        cfg, res = small_solution
        assert res.iterations < cfg.max_iters
        f = res.grid_function
        lower, upper = envelope_curves(cfg.coupling, f.nodes)
        ef = np.exp(f.values)
        assert np.all(ef >= lower * (1.0 - 1e-9))
        assert np.all(ef <= upper * (1.0 + 1e-9))

    def test_residual_of_fixed_point(self, small_solution):
        cfg, res = small_solution
        f = res.grid_function
        image = TOperator(cfg.coupling, cfg.quadrature()).apply(f)
        assert lb_distance(image, f) < cfg.tol_lb

    def test_history_monotone_convergence(self, small_solution):
        _, res = small_solution
        d = [r.lb_distance for r in res.history]
        assert d[-1] < 1e-9
        # no per-step contraction guarantee, but the tail must shrink
        assert all(b < a for a, b in zip(d[3:], d[4:]))

    def test_envelope_margins_recorded(self, small_solution):
        _, res = small_solution
        assert all(r.envelope_min_margin >= -1e-6 for r in res.history)

    def test_mixing_depth_recorded(self, small_solution):
        _, res = small_solution
        depths = [r.mixing_depth for r in res.history]
        assert depths[0] == 0  # one pair only: a Picard step
        assert max(depths) == ANDERSON_DEPTH
        assert all(0 <= d <= ANDERSON_DEPTH for d in depths)

    def test_range_guard(self):
        # just past -1/6 the iteration still lands, with the band and pole
        # checks on
        cfg = SolverConfig(coupling=Coupling(-0.2, exploratory=True), n_nodes=300)
        res = solve(cfg)
        assert res.iterations < cfg.max_iters
        assert res.residual == res.history[-1].residual < cfg.tol_lb


class TestAndersonMixer:
    @pytest.mark.parametrize("m", [2, ANDERSON_DEPTH])
    def test_affine_contraction_terminates(self, m):
        # With depth >= m, type-II mixing on x -> Ax + c is GMRES on
        # (I - A) x = c, exact after m steps in exact arithmetic.
        rng = np.random.default_rng(m)
        a = rng.standard_normal((m, m))
        a *= 0.5 / np.linalg.norm(a, 2)
        c = rng.standard_normal(m)
        exact = np.linalg.solve(np.eye(m) - a, c)
        mixer = AndersonMixer()
        x = np.zeros(m)
        for applications in range(1, m + 3):
            g = a @ x + c
            if np.max(np.abs(x - exact)) <= 1e-12:
                break
            mixer.push((x,), (g,), g - x)
            (x,), _ = mixer.step(1.0)
        assert np.max(np.abs(x - exact)) <= 1e-12
        assert applications <= m + 2

    @staticmethod
    def _pair(nodes, x_slope, g_slope):
        return (
            log_envelope_function(nodes, x_slope),
            log_envelope_function(nodes, g_slope),
        )

    def test_mix_outside_envelope_falls_back_to_picard(self, fig_coupling):
        # band for (1+x) f': [-(1-|lam|), -(1-lambda_r)] = [-0.841, -0.766];
        # a slowly shrinking residual makes the secant extrapolate to -0.68
        nodes = make_nodes(64, 1e4)
        first = self._pair(nodes, -0.84, -0.80)
        second = self._pair(nodes, -0.80, -0.77)
        # the unguarded mix: the mixer's own step, with no band check
        unguarded = AndersonMixer()
        for f, tf in (first, second):
            unguarded.push(
                (f.values, f.derivs), (tf.values, tf.derivs),
                tf.scaled_derivs() - f.scaled_derivs(),
            )
        (values, derivs), depth = unguarded.step(1.0)
        assert depth == 1
        assert np.allclose((1.0 + nodes) * derivs, -0.68)
        # an exploratory coupling keeps the band check, as any other
        exploratory = Coupling(fig_coupling.lam, exploratory=True)
        guarded = AndersonMixer()
        _next_iterate(guarded, *first, exploratory, 1.0, False)
        _, depth = _next_iterate(guarded, *second, exploratory, 1.0, False)
        assert depth == 0

        mixer = AndersonMixer()
        _next_iterate(mixer, *first, fig_coupling, 1.0, False)
        new, depth = _next_iterate(mixer, *second, fig_coupling, 1.0, False)
        assert depth == 0
        assert np.array_equal(new.values, second[1].values)
        assert np.array_equal(new.derivs, second[1].derivs)
        # the history was cleared down to the newest pair
        _, depth = _next_iterate(
            mixer, *self._pair(nodes, -0.77, -0.775), fig_coupling, 1.0, False
        )
        assert depth == 1

    def test_nan_margin_counts_as_outside(self, fig_coupling):
        nodes = make_nodes(64, 1e4)
        f = log_envelope_function(nodes, fig_coupling.lower_envelope_exponent())
        assert not _escapes(_band_margin(f, fig_coupling)[0])
        f.derivs[5] = math.nan
        margin, node = _band_margin(f, fig_coupling)
        assert math.isnan(margin) and node == nodes[5]
        assert _escapes(margin)

    def test_growing_residual_falls_back_to_damped_picard(self, fig_coupling):
        nodes = make_nodes(64, 1e4)
        mixer = AndersonMixer()
        _next_iterate(mixer, *self._pair(nodes, -0.84, -0.80), fig_coupling, 0.5, False)
        f, tf = self._pair(nodes, -0.80, -0.79)
        new, depth = _next_iterate(mixer, f, tf, fig_coupling, 0.5, True)
        assert depth == 0
        assert np.allclose(new.scaled_derivs(), -0.795, rtol=0, atol=1e-15)
        _, depth = _next_iterate(
            mixer, *self._pair(nodes, -0.795, -0.79), fig_coupling, 0.5, False
        )
        assert depth == 1


class TestDampingHalving:
    """Three residual growths in a row halve the damped Picard factor, the
    count then starts afresh, and the factor stops at 1/16."""

    # the residual falls at iteration 4 and grows at every other one
    RESIDUALS = [1.0, 2.0, 3.0, 2.5] + [3.0 + k for k in range(16)]
    # the factor each iteration's step is taken with
    FACTORS = [1.0] * 7 + [0.5] * 3 + [0.25] * 3 + [0.125] * 3 + [0.0625] * 4

    def test_factor_per_step(self, fig_coupling, monkeypatch):
        images, steps = [], []
        residuals = iter(self.RESIDUALS)
        apply = TOperator.apply

        def spy_apply(op, f, *args, **kwargs):
            images.append(apply(op, f, *args, **kwargs))
            return images[-1]

        def fake_distance(g, f):
            # the residual ||T f - f|| grows as RESIDUALS says; the step
            # lengths of the history stay real
            return next(residuals) if g is images[-1] else lb_distance(g, f)

        def spy_step(mixer, f, tf, coupling, beta, restart):
            new, depth = _next_iterate(mixer, f, tf, coupling, beta, restart)
            steps.append((beta, restart, depth, f, tf, new))
            return new, depth

        monkeypatch.setattr(TOperator, "apply", spy_apply)
        monkeypatch.setattr(solver, "lb_distance", fake_distance)
        monkeypatch.setattr(solver, "_next_iterate", spy_step)
        cfg = SolverConfig(coupling=fig_coupling, lambda2=1e4, n_nodes=200,
                           max_iters=len(self.RESIDUALS))
        with pytest.raises(NonConvergenceError):
            solve(cfg)
        assert [beta for beta, *_ in steps] == self.FACTORS
        grown = [b > a for a, b in zip([math.inf] + self.RESIDUALS, self.RESIDUALS)]
        assert [restart for _, restart, *_ in steps] == grown
        for beta, restart, depth, f, tf, new in steps:
            if restart:
                # the damped Picard step, with this iteration's factor
                assert depth == 0
                assert np.array_equal(new.values, (1.0 - beta) * f.values + beta * tf.values)
                assert np.array_equal(new.derivs, (1.0 - beta) * f.derivs + beta * tf.derivs)


class TestExactTailLaw:
    """The fitted tail exponent against the exact law -(1 - arcsin(|lam| pi)/pi)
    of the model's later exact solution (Grosse-Hock-Wulkenhaar,
    arXiv:1908.04543), an oracle independent of this code.  Budget 1e-6:
    at 2000 nodes and cutoffs 1e6 and 1e8 the deviation stayed below
    6.1e-7 over five couplings in [-1/6, -0.02]."""

    @staticmethod
    def _deviation(lam, res):
        law = -(1.0 - math.asin(abs(lam) * math.pi) / math.pi)
        return abs(res.grid_function.fitted_tail_exponent() - law)

    def test_reference_coupling(self, production_solution):
        cfg, res = production_solution
        assert self._deviation(cfg.coupling.lam, res) <= 1e-6

    def test_range_edge(self, edge_solution):
        cfg, res = edge_solution
        assert self._deviation(cfg.coupling.lam, res) <= 1e-6


class TestExactRSlope:
    """R(t)/t of the solved f against the exact slope sqrt(1 - (lam pi)^2)
    of the model's exact solution (Grosse-Hock-Wulkenhaar,
    arXiv:1908.04543).  R is the PV transform's far field at large t, so
    this also checks the compressed sum.  At 2000 nodes and cutoff 1e6 the
    deviation of R(t)/t fell from 3.2e-4 at t = 1e3 to 2.6e-6 (lam =
    -1/(2 pi)) and 2.9e-6 (lam = -1/6) at t = 1e6; the tail slope of
    ``rf_cache`` was off by -1.9e-7 and -2.5e-8."""

    @pytest.mark.parametrize("which", ["production_solution", "edge_solution"])
    def test_slope_of_r(self, which, request):
        cfg, res = request.getfixturevalue(which)
        cache = TOperator(cfg.coupling, cfg.quadrature()).rf_cache(res.grid_function)
        exact = math.sqrt(1.0 - (cfg.coupling.lam * math.pi) ** 2)
        at_cutoff = cache.t_nodes == cfg.lambda2
        assert at_cutoff.sum() == 1
        assert abs(cache.rf[at_cutoff][0] / cfg.lambda2 - exact) <= 1e-5
        assert abs(cache.tail_r1 - exact) <= 1e-6


class TestConsistency:
    def test_converged_solution(self, small_solution):
        cfg, res = small_solution
        resid = consistency_residual(res.grid_function, cfg.coupling, cfg.quadrature())
        assert resid < 1e-6

    def test_residual_vanishes_at_origin(self, small_solution):
        cfg, res = small_solution
        f = res.grid_function
        # both sides are exactly 1 at b=0 by construction
        assert f.values[0] == 0.0

    def test_constant_solution_trend(self, fig_coupling):
        # exp(0)=1 solves the equation in the infinite-cutoff limit: the
        # defect on a fixed window decays like 1/cutoff
        from carlemanfp.grids import HARD_CUTOFF, zero_function

        resids = []
        for lam2 in (1e4, 1e6):
            cfg = QuadratureConfig(
                n_nodes=600, lambda2=lam2, tail_mode=HARD_CUTOFF
            )
            f = zero_function(make_nodes(600, lam2))
            resids.append(
                consistency_residual(f, fig_coupling, cfg, b_max=1e3)
            )
        assert resids[1] < 0.02 * resids[0]


class TestCutoffRobustness:
    def test_solutions_agree_on_common_window(self, fig_coupling):
        sols = {}
        for lam2 in (1e5, 1e6):
            cfg = SolverConfig(
                coupling=fig_coupling, lambda2=lam2, n_nodes=1200, tol_lb=1e-9
            )
            sols[lam2] = solve(cfg).grid_function
        probe = np.geomspace(1e-2, 1e4, 200)
        diff = np.max(
            np.abs(
                (1.0 + probe)
                * (sols[1e5].derivative_at(probe) - sols[1e6].derivative_at(probe))
            )
        )
        al, lr = fig_coupling.abs_lambda, fig_coupling.lambda_r
        lam2 = 1e5
        budget = 10.0 * ((1.0 + lam2) ** (lr - 1.0) - (1.0 + lam2) ** (al - 1.0))
        assert diff <= budget


def test_solution_rows_columns(small_solution):
    cfg, res = small_solution
    rows = solution_rows(res, cfg.coupling)
    assert rows.shape[1] == 5
    b, f, ef, lo, up = rows.T
    assert np.allclose(ef, np.exp(f))
    assert np.all(lo <= ef + 1e-12)
    assert np.all(ef <= up + 1e-12)
    assert rows[0, 2] == 1.0
