import math

import numpy as np
import pytest

from carlemanfp import appendix
from carlemanfp.appendix import (
    cauchy_integral,
    t0_closed,
    t0_derivative_closed,
    t0_profile,
)
from carlemanfp.grids import GridFunction


class TestResidueIntegral:
    @pytest.mark.parametrize("u", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_agreement(self, u):
        numeric, closed = cauchy_integral(u)
        assert abs(numeric - closed) <= 1e-8

    # measured worst relative error: 4.4e-16 (u = 1e3); halving the step
    # moves the value by at most 2.2e-16
    @pytest.mark.parametrize("u", [1e-3, 0.01, 0.1, 1.0, 10.0, 100.0, 1e3])
    def test_trapezoid_rule_in_log_q(self, u, monkeypatch):
        numeric, closed = cauchy_integral(u)
        assert numeric == pytest.approx(closed, rel=1e-12, abs=0)
        monkeypatch.setattr(appendix, "_RESIDUE_STEP", appendix._RESIDUE_STEP / 2)
        assert cauchy_integral(u)[0] == pytest.approx(numeric, rel=1e-12, abs=0)

    def test_reference_values(self):
        assert cauchy_integral(1.0)[1] == 0.5
        assert cauchy_integral(0.1)[1] == pytest.approx(1.0 / 0.11, rel=1e-14)

    def test_large_u_decay(self):
        _, c1 = cauchy_integral(50.0)
        _, c2 = cauchy_integral(100.0)
        assert c2 < c1
        assert c2 == pytest.approx(1e-4, rel=2e-2)  # ~ 1/u^2

    def test_domain(self):
        with pytest.raises(ValueError):
            cauchy_integral(0.0)
        with pytest.raises(ValueError):
            cauchy_integral(math.nan)


class TestZeroInputImage:
    def test_point_check(self, fig_coupling):
        nodes, values, _, derivs = t0_profile(fig_coupling, 1e6, n_nodes=1200)
        computed = GridFunction(nodes, values, derivs).at(10.0)
        formula = float(t0_closed(10.0, fig_coupling, 1e6))
        assert formula == pytest.approx(
            math.log(1.0 / (1.0 + 10.0 / (1.0 + fig_coupling.abs_lambda * 1e6))),
            rel=1e-14,
        )
        assert abs(computed - formula) <= 1e-6

    def test_origin(self, fig_coupling):
        nodes, computed, formula, _ = t0_profile(fig_coupling, 1e4, n_nodes=800)
        assert nodes[0] == 0.0
        assert computed[0] == 0.0
        assert formula[0] == 0.0

    @pytest.mark.parametrize("lam2", [1e4, 1e6])
    def test_profile_agreement(self, fig_coupling, lam2):
        nodes, computed, formula, derivs = t0_profile(
            fig_coupling, lam2, n_nodes=1200
        )
        assert np.max(np.abs(computed - formula)) <= 1e-6
        dwant = t0_derivative_closed(nodes, fig_coupling, lam2)
        assert np.max(np.abs(derivs - dwant)) <= 2e-6

    def test_pointwise_vanishing_with_cutoff(self, fig_coupling):
        window_sup = []
        for lam2 in (1e4, 1e6, 1e8):
            b = np.geomspace(1e-2, 1e3, 40)
            window_sup.append(np.abs(t0_closed(b, fig_coupling, lam2)).max())
        assert window_sup[1] < 1.5e-2 * window_sup[0]
        assert window_sup[2] < 1.5e-2 * window_sup[1]
        # rate consistent with b/(1 + |lam| cutoff)
        want = 1e3 / (1.0 + fig_coupling.abs_lambda * 1e8)
        assert window_sup[2] == pytest.approx(want, rel=0.05)
