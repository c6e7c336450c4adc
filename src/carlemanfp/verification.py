"""Named certification suites combining bound formulas with operator runs.

Each suite returns a list of VerificationReports; the command-line
driver serialises them and owns every default: the settings a suite
reads (``seed``, ``n_pairs``, ``n_members``, ``n_lambda``) are
keyword-only, with no default here.

The random-member suites draw all the members of a coupling first, in
the order of one-by-one draws, and take R and T of them in blocks of
``MEMBER_BLOCK`` (``_in_blocks``), each result with the bits of a run
for its member alone; they fold the margins in draw order as the blocks
come.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds
from .appendix import cauchy_integral, t0_profile
from .coupling import Coupling
from .grids import QuadratureConfig, make_nodes, random_klambda
from .hilbert import HilbertOfExp, members_per_block
from .operators import TOperator, lb_distance
from .report import VerificationReport, Worst, make_report

COUPLINGS = (-0.05, -1.0 / (2.0 * math.pi), -1.0 / 6.0)
SUITE_NODES = 400       # grid size of the random-member suites
# Members per block of the random-member suites, sized from bytes: 4 at
# SUITE_NODES (hilbert.members_per_block).
MEMBER_BLOCK = members_per_block(make_nodes(SUITE_NODES, 1e6))
APPENDIX_LAMBDA = -1.0 / (2.0 * math.pi)
APPENDIX_NODES = 1200


def suite_lemma3(**_) -> list[VerificationReport]:
    return bounds.verify_F_properties()


def suite_lemma4(**_) -> list[VerificationReport]:
    return [bounds.verify_f_ge_s()]


def suite_ck(*, n_lambda: int, **_) -> list[VerificationReport]:
    return [
        bounds.verify_master_inequality(n_lambda=n_lambda),
        bounds.verify_c_coeffs(n_lambda=n_lambda),
    ]


def _random_members(coupling, nodes, rng, count):
    return [random_klambda(coupling, nodes, rng) for _ in range(count)]


def _in_blocks(fn, members):
    """fn, which maps a block of members to one result per member, over the
    members MEMBER_BLOCK at a time: the results in member order, one block
    of them held at a time."""
    for lo in range(0, len(members), MEMBER_BLOCK):
        yield from fn(members[lo : lo + MEMBER_BLOCK])


def _r_at(points, abs_lambda, cfg):
    """R at the points of each member of a block, as ``_in_blocks`` takes it."""
    return lambda block: HilbertOfExp(block, cfg).r(points, abs_lambda)


def suite_prop4(*, seed: int, n_pairs: int, **_) -> list[VerificationReport]:
    """Pointwise domination of |Rf - Rg| by the three-component bound."""
    rng = np.random.default_rng(seed)
    nodes = make_nodes(SUITE_NODES, 1e6)
    cfg = QuadratureConfig(n_nodes=SUITE_NODES, lambda2=1e6)
    t_probe = np.concatenate([[0.0], np.geomspace(1e-2, 9e5, 25)])
    reports = []
    for lam in COUPLINGS:
        coupling = Coupling(lam)
        worst = Worst()
        members = _random_members(coupling, nodes, rng, 2 * n_pairs)  # f, g, f, g, ...
        rf = _in_blocks(_r_at(t_probe, coupling.abs_lambda, cfg), members)
        # one iterator twice: consecutive results, f's then g's
        for f, g, rf_f, rf_g in zip(members[::2], members[1::2], rf, rf):
            delta = lb_distance(f, g)
            measured = np.abs(rf_f - rf_g)
            allowed = bounds.delta_r_bounds(t_probe, delta, coupling).sum(axis=0)
            worst.add(allowed + 1e-6 - measured, lambda i: float(t_probe[i]))
        reports.append(
            worst.report(
                f"prop4.delta-r[{lam:.4g}]",
                f"{n_pairs} random domain pairs, 26 probe points",
                notes="margin includes 1e-6 quadrature slack",
            )
        )
    return reports


def suite_prop5(*, seed: int, n_pairs: int, **_) -> list[VerificationReport]:
    """Measured image distances against the continuity constant, plus the
    two auxiliary suprema that enter its derivation."""
    rng = np.random.default_rng(seed)
    nodes = make_nodes(SUITE_NODES, 1e6)
    cfg = QuadratureConfig(n_nodes=SUITE_NODES, lambda2=1e6)
    reports = []
    for lam in COUPLINGS:
        coupling = Coupling(lam)
        op = TOperator(coupling, cfg)
        kconst = bounds.continuity_constant(coupling)
        worst = Worst()  # located at the worst ratio
        members = _random_members(coupling, nodes, rng, 2 * n_pairs)  # f, g, f, g, ...
        images = _in_blocks(op.apply, members)
        # one iterator twice: consecutive images, f's then g's
        for f, g, tf, tg in zip(members[::2], members[1::2], images, images):
            delta = lb_distance(f, g)
            if delta < 1e-12:
                continue
            ratio = lb_distance(tf, tg) / delta
            worst.add(1.01 * kconst - ratio, lambda _: ratio)
        reports.append(
            worst.report(
                f"prop5.modulus[{lam:.4g}]",
                f"{n_pairs} random domain pairs",
                notes=f"continuity constant {kconst:.5f}, 1% slack",
            )
        )
    for lam in COUPLINGS:
        coupling = Coupling(lam)
        al = coupling.abs_lambda
        reports.append(
            make_report(
                f"prop5.aux-sup[{lam:.4g}]",
                "log scan up to exp(4/|lam|)",
                (1.0 + al) / math.e - bounds.sup_c_aux(coupling),
                None,
                notes="first auxiliary sup against (1+|lam|)/e",
            )
        )
        reports.append(
            make_report(
                f"prop5.aux-tilde-sup[{lam:.4g}]",
                "log scan up to exp(4/|lam|)",
                1.0 + al / 4.0 - bounds.sup_c_tilde_aux(coupling),
                None,
                notes="second auxiliary sup against 1 + |lam|/4",
            )
        )
    return reports


def suite_equicont(*, seed: int, n_members: int, **_) -> list[VerificationReport]:
    """|(1+a)(Tf)'(a) - (1+b)(Tf)'(b)| <= |a-b| over close node pairs."""
    rng = np.random.default_rng(seed)
    nodes = make_nodes(SUITE_NODES, 1e6)
    cfg = QuadratureConfig(n_nodes=SUITE_NODES, lambda2=1e6)
    near = nodes[nodes <= 65.0]
    gaps = np.abs(near[:, None] - near[None, :])
    ii, jj = np.nonzero((gaps > 0.0) & (gaps <= 1.0))  # row-major pair order
    allowed = gaps[ii, jj] * (1.0 + 1e-6)
    reports = []
    for lam in COUPLINGS:
        coupling = Coupling(lam)
        op = TOperator(coupling, cfg)
        worst = Worst()
        for image in _in_blocks(op.apply, _random_members(coupling, nodes, rng, n_members)):
            s = image.scaled_derivs()
            worst.add(
                allowed - np.abs(s[ii] - s[jj]),
                lambda k: (float(near[ii[k]]), float(near[jj[k]])),
            )
        reports.append(
            worst.report(
                f"equicont.modulus[{lam:.4g}]",
                f"{n_members} random members, node pairs with gap <= 1",
            )
        )
    return reports


def suite_appendix(**_) -> list[VerificationReport]:
    """Residue identity for the constant-input integral and the closed form
    of the map applied to zero."""
    coupling = Coupling(APPENDIX_LAMBDA)
    reports = []
    worst = Worst()
    for u in (0.01, 0.1, 1.0, 10.0, 100.0):
        numeric, closed = cauchy_integral(u)
        worst.add(1e-8 - abs(numeric - closed), lambda _: u)
    reports.append(
        worst.report(
            "appendix.residue-integral",
            "u in {0.01, 0.1, 1, 10, 100}",
            notes="1e-8 agreement budget between quadrature and closed form",
        )
    )

    sups = []
    worst = Worst()
    window = 1e3  # pointwise convergence lives on a cutoff-independent window
    for lam2 in (1e4, 1e6):
        nodes, computed, formula, _ = t0_profile(coupling, lam2, n_nodes=APPENDIX_NODES)
        sups.append(float(np.abs(computed[nodes <= window]).max()))
        worst.add(1e-6 - np.abs(computed - formula), lambda i: (lam2, float(nodes[i])))
    reports.append(
        worst.report(
            "appendix.zero-input-closed-form",
            "full grid, cutoffs 1e4 and 1e6",
            notes="1e-6 agreement budget between operator and closed form",
        )
    )
    expected_drop = 0.5 * sups[0]  # the sup scales like 1/cutoff, so 1e4 -> 1e6
    reports.append(                # must lose far more than half of it
        make_report(
            "appendix.zero-input-vanishing",
            f"window b <= {window:g}, cutoffs 1e4 -> 1e6",
            sups[0] - sups[1] - expected_drop,
            None,
            notes="sup |T0| over a fixed window must shrink with the cutoff",
        )
    )
    return reports


SUITES = {
    "lemma3": suite_lemma3,
    "lemma4": suite_lemma4,
    "ck": suite_ck,
    "prop4": suite_prop4,
    "prop5": suite_prop5,
    "equicont": suite_equicont,
    "appendix": suite_appendix,
}

# SUITES, costliest first: the order in which parallel workers take them
# (longest processing time first).  Median warm walls at the defaults, one
# BLAS thread, 2-vCPU Xeon: prop5 0.167 s, equicont 0.086, appendix 0.039,
# prop4 0.038, ck 0.027, lemma3 0.013, lemma4 0.002.
SUITES_BY_COST = ("prop5", "equicont", "appendix", "prop4", "ck", "lemma3", "lemma4")


def resolve_suites(names) -> list[str]:
    """The suites to run, in order; 'all' names every suite.  KeyError on
    an unknown name, also next to 'all'."""
    for name in names:
        if name != "all" and name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return list(SUITES) if "all" in names else list(names)


def run_suites(names, **kwargs) -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    for name in resolve_suites(names):
        reports.extend(SUITES[name](**kwargs))
    return reports
