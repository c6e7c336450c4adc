"""Acceptance gate: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion together with the measured margin and runtime.
"""

import math
import time

import numpy as np

from carlemanfp import bounds, verification
from carlemanfp.appendix import cauchy_integral, t0_profile
from carlemanfp.coupling import Coupling
from carlemanfp.grids import (
    QuadratureConfig,
    log_envelope_function,
    make_nodes,
    random_klambda,
)
from carlemanfp.hilbert import HilbertOfExp, hilbert_power_law
from carlemanfp.operators import TOperator, lb_distance
from carlemanfp.solver import consistency_residual, envelope_curves

FIG_LAMBDA = -1.0 / (2.0 * math.pi)


def _report(number: int, passed: bool, detail: str) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d}: {tag} - {detail}")
    assert passed, detail


def test_criterion_01_hilbert_oracle():
    t0 = time.time()
    worst = 0.0
    cfg = QuadratureConfig(n_nodes=2000, lambda2=1e6)
    nodes = make_nodes(2000, 1e6)
    a = np.geomspace(1e-3, 1e3, 30)
    for mu in (0.1, 0.25, 0.45):
        f = log_envelope_function(nodes, mu - 1.0)
        got = HilbertOfExp(f, cfg).quotient(a)
        oracle = hilbert_power_law(1.0, mu, a)
        worst = max(worst, float(np.max(np.abs(got / oracle - 1.0))))
    elapsed = time.time() - t0
    _report(
        1,
        worst <= 1e-6 and elapsed < 10.0,
        f"power-law transform vs closed form: rel err {worst:.2e} "
        f"(budget 1e-6), {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_02_residue_integral():
    t0 = time.time()
    worst = 0.0
    for u in (0.01, 0.1, 1.0, 10.0, 100.0):
        numeric, closed = cauchy_integral(u)
        worst = max(worst, abs(numeric - closed))
    elapsed = time.time() - t0
    _report(
        2,
        worst <= 1e-8 and elapsed < 5.0,
        f"residue identity: abs err {worst:.2e} (budget 1e-8), "
        f"{elapsed:.1f}s (budget 5s)",
    )


def test_criterion_03_zero_input_closed_form():
    t0 = time.time()
    coupling = Coupling(FIG_LAMBDA)
    worst = 0.0
    for lam2 in (1e4, 1e6):
        _, computed, formula, _ = t0_profile(coupling, lam2, n_nodes=2000)
        worst = max(worst, float(np.max(np.abs(computed - formula))))
    elapsed = time.time() - t0
    _report(
        3,
        worst <= 1e-6 and elapsed < 30.0,
        f"zero-input image vs closed form: abs err {worst:.2e} "
        f"(budget 1e-6), {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_04_reference_constants():
    f1 = bounds.f_bound(1.0)
    ok1 = abs(f1 - 0.141693) <= 1e-5

    # tangent-crossing construction behind the printed minimum pair
    f2, fp2 = bounds.f_bound(0.2), bounds.f_bound_prime(0.2)
    f25, fp25 = bounds.f_bound(0.25), bounds.f_bound_prime(0.25)
    tm = (f25 - f2 + 0.2 * fp2 - 0.25 * fp25) / (fp2 - fp25)
    fm = bounds.f_bound(tm)
    ok2 = abs(tm - 0.223714) <= 1e-3 and abs(fm - (-0.190334)) <= 1e-5

    k0 = bounds.continuity_constant(Coupling(0.0))
    k6 = bounds.continuity_constant(Coupling(-1.0 / 6.0))
    ok3 = abs(k0 - 1.36788) <= 1e-4 and abs(k6 - 4.09942) <= 1e-4
    _report(
        4,
        ok1 and ok2 and ok3,
        f"constants: F(1)={f1:.6f}, crossing=({tm:.6f}, {fm:.6f}), "
        f"modulus endpoints ({k0:.5f}, {k6:.5f})",
    )


def test_criterion_05_shape_certificates():
    t0 = time.time()
    reps = verification.suite_lemma3()
    elapsed = time.time() - t0
    worst = min(r.worst_margin for r in reps)
    window = next(r for r in reps if r.lemma_id == "lemma3.second-deriv-window")
    _report(
        5,
        all(r.passed for r in reps) and window.worst_margin > 0.0 and elapsed < 20.0,
        f"six shape certificates on 1e4-point grids: worst margin {worst:.2e}, "
        f"{elapsed:.1f}s (budget 20s)",
    )


def test_criterion_06_domain_preservation():
    t0 = time.time()
    rng = np.random.default_rng(0xACCE)
    n_nodes = 800
    nodes = make_nodes(n_nodes, 1e6)
    cfg = QuadratureConfig(n_nodes=n_nodes, lambda2=1e6)
    worst = math.inf
    for lam in (-0.02, -0.08, FIG_LAMBDA, -1.0 / 6.0):
        coupling = Coupling(lam)
        op = TOperator(coupling, cfg)
        lo_edge = -(1.0 - coupling.abs_lambda)
        hi_edge = -(1.0 - coupling.lambda_r)
        for _ in range(50):
            f = random_klambda(coupling, nodes, rng)
            s = (1.0 + nodes) * op.derivative(op.rf_cache(f), nodes)
            worst = min(
                worst,
                float(np.min(s - (lo_edge - 1e-6))),
                float(np.min((hi_edge + 1e-6) - s)),
            )
    elapsed = time.time() - t0
    _report(
        6,
        worst >= 0.0 and elapsed < 300.0,
        f"domain preservation, 50 members x 4 couplings: worst band margin "
        f"{worst:.2e} (slack 1e-6), {elapsed:.0f}s (budget 300s)",
    )


def test_criterion_07_master_inequality():
    rep, rep_c = verification.suite_ck(n_lambda=200)
    _report(
        7,
        rep.passed and rep_c.passed,
        f"master expression <= 0 on 200x1000 grid (worst margin "
        f"{rep.worst_margin:.2e}); printed coefficients <= 0 on 200-point "
        f"grid (worst margin {rep_c.worst_margin:.2e})",
    )


def test_criterion_08_solver_convergence(production_solution):
    t0 = time.time()
    cfg, res = production_solution
    f = res.grid_function
    lower, upper = envelope_curves(cfg.coupling, f.nodes)
    ef = np.exp(f.values)
    contained = bool(np.all(ef >= lower * (1 - 1e-12)) and np.all(ef <= upper * (1 + 1e-12)))
    resid = consistency_residual(f, cfg.coupling, cfg.quadrature())
    elapsed = time.time() - t0
    ok = (
        res.iterations <= 500
        and res.history[-1].lb_distance < 1e-8
        and contained
        and resid < 1e-6
    )
    _report(
        8,
        ok,
        f"solve at reference coupling: {res.iterations} iterations, final step "
        f"{res.history[-1].lb_distance:.2e}, envelopes contained={contained}, "
        f"consistency residual {resid:.2e} (budget 1e-6); "
        f"residual check took {elapsed:.0f}s",
    )


def test_criterion_09_continuity_modulus():
    t0 = time.time()
    rng = np.random.default_rng(0xC0FFEE)
    n_nodes = 400
    nodes = make_nodes(n_nodes, 1e6)
    cfg = QuadratureConfig(n_nodes=n_nodes, lambda2=1e6)
    worst = math.inf
    for lam in (-0.05, FIG_LAMBDA, -1.0 / 6.0):
        coupling = Coupling(lam)
        op = TOperator(coupling, cfg)
        budget = bounds.continuity_constant(coupling) * 1.01
        for _ in range(100):
            f = random_klambda(coupling, nodes, rng)
            g = random_klambda(coupling, nodes, rng)
            delta = lb_distance(f, g)
            if delta < 1e-12:
                continue
            ratio = lb_distance(op.apply(f), op.apply(g)) / delta
            worst = min(worst, budget - ratio)
    elapsed = time.time() - t0
    _report(
        9,
        worst >= 0.0,
        f"continuity modulus, 100 pairs x 3 couplings: worst headroom "
        f"{worst:.3f} below 1.01 x constant, {elapsed:.0f}s",
    )


def test_criterion_10_equicontinuity():
    rng = np.random.default_rng(0xE9C0)
    n_nodes = 800
    nodes = make_nodes(n_nodes, 1e6)
    cfg = QuadratureConfig(n_nodes=n_nodes, lambda2=1e6)
    near = nodes[nodes <= 70.0]
    m = near.size
    gaps = np.abs(near[:, None] - near[None, :])
    mask = (gaps > 0.0) & (gaps <= 1.0)
    worst = math.inf
    for lam in (-0.05, FIG_LAMBDA, -1.0 / 6.0):
        coupling = Coupling(lam)
        op = TOperator(coupling, cfg)
        for _ in range(8):
            f = random_klambda(coupling, nodes, rng)
            s = op.apply(f).scaled_derivs()[:m]
            spread = np.abs(s[:, None] - s[None, :])
            margin = np.min((gaps * (1.0 + 1e-6) - spread)[mask])
            worst = min(worst, float(margin))
    _report(
        10,
        worst >= 0.0,
        f"equicontinuity over node pairs with gap <= 1: worst margin {worst:.2e}",
    )
