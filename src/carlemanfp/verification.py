"""Named certification suites: every scan of the certified inequalities.

Each suite samples the closed forms of ``bounds``, or runs the operator
on random domain members, on grids it builds when it runs; the grid
sizes are the constants below.  Each returns a list of
VerificationReports; the command-line driver serialises them and owns
every default: the settings a suite reads (``seed``, ``n_pairs``,
``n_members``, ``n_lambda``) are keyword-only, with no default here.

The random-member suites (prop4, prop5, equicont) run on one member scan
(``_member_scan``): it draws all the members of a coupling first, in the
order of one-by-one draws, and takes R or T of them in blocks of
``MEMBER_BLOCK``, each result with the bits of a run for its member
alone; the suites fold the margins in draw order as the blocks come.
Every report is built by ``report.Worst``; the auxiliary sups of prop5
and the zero-input vanishing check fold their margins with no location.
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
from .report import VerificationReport, Worst

COUPLINGS = (-0.05, -1.0 / (2.0 * math.pi), -1.0 / 6.0)
SUITE_NODES = 400       # grid size of the random-member suites
# Members per block of the random-member suites, sized from bytes: 4 at
# SUITE_NODES (hilbert.members_per_block).
MEMBER_BLOCK = members_per_block(make_nodes(SUITE_NODES, 1e6))
APPENDIX_LAMBDA = -1.0 / (2.0 * math.pi)
APPENDIX_NODES = 1200
SHAPE_POINTS = 10_000   # points of each lemma3 and lemma4 grid
MASTER_B_POINTS = 1000  # b points of the master-expression scan
AUX_SCAN_POINTS = 4000  # log-spaced points of the auxiliary-sup scans


def _from_zero(hi: float) -> np.ndarray:
    return np.concatenate([[0.0], np.geomspace(1e-6, hi, SHAPE_POINTS - 1)])


# The six shape certificates of F: (id, domain, grid, margin on the grid).
# Each grid is built, and each bound looked up in ``bounds``, when the
# suite runs.
_F_SHAPE = (
    ("lemma3.monotone", "[1/2, 1e4] log grid",
     lambda: np.geomspace(0.5, 1e4, SHAPE_POINTS), lambda a: bounds.f_bound_prime(a)),
    ("lemma3.convex", "[0, 9/4] log grid",
     lambda: np.geomspace(1e-8, 2.25, SHAPE_POINTS), lambda a: bounds.f_bound_second(a)),
    ("lemma3.concave", "[5/2, 1e4] log grid",
     lambda: np.geomspace(2.5, 1e4, SHAPE_POINTS), lambda a: -bounds.f_bound_second(a)),
    ("lemma3.second-deriv-window", "[9/4, 5/2] linear grid",
     lambda: np.linspace(2.25, 2.5, SHAPE_POINTS),
     lambda a: 0.1 - np.abs(bounds.f_bound_second(a))),
    ("lemma3.nonneg-right", "[4/5, 1e4] log grid",
     lambda: np.geomspace(0.8, 1e4, SHAPE_POINTS), lambda a: bounds.f_bound(a)),
    ("lemma3.global-floor", "[0, 1e4] log grid",
     lambda: _from_zero(1e4), lambda a: bounds.f_bound(a) + 0.2),
)


def suite_lemma3(**_) -> list[VerificationReport]:
    """Six dense-grid certificates for the shape properties of F."""
    reports = []
    for lemma_id, domain, grid_of, margin in _F_SHAPE:
        grid = grid_of()
        worst = Worst()
        worst.add(margin(grid), lambda i: float(grid[i]))
        reports.append(worst.report(lemma_id, domain))
    return reports


def suite_lemma4(**_) -> list[VerificationReport]:
    """Dense-grid certificate that F dominates its tangent minorant.

    The margin is exactly zero at the tangency points, so the check is
    not flagged inconclusive for a small positive worst margin.
    """
    grid = _from_zero(1e3)
    worst = Worst()
    worst.add(bounds.f_bound(grid) - bounds.s_bound(grid), lambda i: float(grid[i]))
    return [worst.report(
        "lemma4.minorant",
        "[0, 1e3] log grid",
        strict=False,
        floor=-1e-12,
        notes="tangency points make an exactly-zero margin legitimate",
    )]


def suite_ck(*, n_lambda: int, **_) -> list[VerificationReport]:
    """The master expression and the printed tail coefficients on one
    grid of n_lambda couplings in [-1/6, 0).  Zero coupling is left out:
    the expression vanishes there identically, a vacuous zero margin, and
    the printed coefficients are not defined."""
    b = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, MASTER_B_POINTS - 1)])
    master, printed = Worst(), Worst()
    for lam in np.linspace(-1.0 / 6.0, 0.0, n_lambda + 1)[:-1]:
        coupling = Coupling(lam)
        master.add(-bounds.upper_bound_master(b, coupling),
                   lambda i: (float(lam), float(b[i])))
        printed.add(-bounds.c_coeffs_printed(coupling), lambda i: (float(lam), f"c{14 + i}"))
    return [
        master.report(
            "ck.master-expression",
            f"{n_lambda} x {MASTER_B_POINTS} (coupling, b) grid on [-1/6,0) x [0,1e4]",
            strict=False,
            notes="the expression vanishes like coupling^2/b^2 toward the "
            "zero-coupling large-b corner, so the worst margin is tiny by "
            "construction; any negative value is a violation",
        ),
        printed.report(
            "ck.printed-tail-coefficients",
            f"{n_lambda}-point coupling grid on [-1/6, 0)",
        ),
    ]


def _member_scan(seed: int, count: int, results):
    """Each coupling of COUPLINGS with an iterator over ``count`` random
    members of its domain, each with its result.  All couplings draw from
    one ``seed`` stream, a coupling's members first, in the order of
    one-by-one draws; ``results(block, coupling, cfg)`` maps a block of
    members to one result per member and takes MEMBER_BLOCK of them at a
    time, each result with the bits of a block of its member alone."""
    rng = np.random.default_rng(seed)
    nodes = make_nodes(SUITE_NODES, 1e6)
    cfg = QuadratureConfig(n_nodes=SUITE_NODES, lambda2=1e6)
    for lam in COUPLINGS:
        coupling = Coupling(lam)
        members = [random_klambda(coupling, nodes, rng) for _ in range(count)]
        blocks = (members[lo : lo + MEMBER_BLOCK] for lo in range(0, count, MEMBER_BLOCK))
        yield coupling, ((m, r) for b in blocks for m, r in zip(b, results(b, coupling, cfg)))


def _images(block, coupling, cfg):
    return TOperator(coupling, cfg).apply(block)


def suite_prop4(*, seed: int, n_pairs: int, **_) -> list[VerificationReport]:
    """Pointwise domination of |Rf - Rg| by the three-component bound."""
    t_probe = np.concatenate([[0.0], np.geomspace(1e-2, 9e5, 25)])

    def r_at_probes(block, coupling, cfg):
        return HilbertOfExp(block, cfg).r(t_probe, coupling.abs_lambda)

    reports = []
    for coupling, scan in _member_scan(seed, 2 * n_pairs, r_at_probes):
        worst = Worst()
        # one iterator twice: consecutive members, f's then g's
        for (f, rf_f), (g, rf_g) in zip(scan, scan):
            delta = lb_distance(f, g)
            measured = np.abs(rf_f - rf_g)
            allowed = bounds.delta_r_bounds(t_probe, delta, coupling).sum(axis=0)
            worst.add(allowed + 1e-6 - measured, lambda i: float(t_probe[i]))
        reports.append(
            worst.report(
                f"prop4.delta-r[{coupling.lam:.4g}]",
                f"{n_pairs} random domain pairs, 26 probe points",
                notes="margin includes 1e-6 quadrature slack",
            )
        )
    return reports


def suite_prop5(*, seed: int, n_pairs: int, **_) -> list[VerificationReport]:
    """Measured image distances against the continuity constant, plus the
    two auxiliary suprema that enter its derivation."""
    reports = []
    for coupling, scan in _member_scan(seed, 2 * n_pairs, _images):
        kconst = bounds.continuity_constant(coupling)
        worst = Worst()  # located at the worst ratio
        # one iterator twice: consecutive members, f's then g's
        for (f, tf), (g, tg) in zip(scan, scan):
            delta = lb_distance(f, g)
            if delta < 1e-12:
                continue
            ratio = lb_distance(tf, tg) / delta
            worst.add(1.01 * kconst - ratio, lambda _: ratio)
        reports.append(
            worst.report(
                f"prop5.modulus[{coupling.lam:.4g}]",
                f"{n_pairs} random domain pairs",
                notes=f"continuity constant {kconst:.5f}, 1% slack",
            )
        )
    for lam in COUPLINGS:
        coupling = Coupling(lam)
        al = coupling.abs_lambda
        for name, fn, h_lam, bound, notes in (
            ("aux-sup", bounds.c_aux, 1.0 - al / 5.0, (1.0 + al) / math.e,
             "first auxiliary sup against (1+|lam|)/e"),
            ("aux-tilde-sup", bounds.c_tilde_aux, 1.0, 1.0 + al / 4.0,
             "second auxiliary sup against 1 + |lam|/4"),
        ):
            worst = Worst()
            worst.add(bound - fn(_aux_grid(h_lam, coupling), coupling), lambda _: None)
            reports.append(
                worst.report(f"prop5.{name}[{lam:.4g}]", "log scan up to exp(4/|lam|)",
                             notes=notes)
            )
    return reports


def _aux_grid(h_lam: float, coupling: Coupling) -> np.ndarray:
    """The arguments of an auxiliary function reachable from b >= 0, from
    h_lam sin(x) cos(x) / (|lam| pi), x = lambda_r pi, up to exp(4/|lam|),
    less a band about its removable point 1, as a log scan."""
    al = coupling.abs_lambda
    x = coupling.lambda_r * math.pi
    lo = h_lam * math.sin(x) * math.cos(x) / (al * math.pi)
    grid = np.geomspace(lo, math.exp(4.0 / al), AUX_SCAN_POINTS)
    return grid[np.abs(grid - 1.0) > 1e-6]


def suite_equicont(*, seed: int, n_members: int, **_) -> list[VerificationReport]:
    """|(1+a)(Tf)'(a) - (1+b)(Tf)'(b)| <= |a-b| over close node pairs."""
    nodes = make_nodes(SUITE_NODES, 1e6)
    near = nodes[nodes <= 65.0]
    gaps = np.abs(near[:, None] - near[None, :])
    ii, jj = np.nonzero((gaps > 0.0) & (gaps <= 1.0))  # row-major pair order
    allowed = gaps[ii, jj] * (1.0 + 1e-6)
    reports = []
    for coupling, scan in _member_scan(seed, n_members, _images):
        worst = Worst()
        for _, image in scan:
            s = image.scaled_derivs()
            worst.add(
                allowed - np.abs(s[ii] - s[jj]),
                lambda k: (float(near[ii[k]]), float(near[jj[k]])),
            )
        reports.append(
            worst.report(
                f"equicont.modulus[{coupling.lam:.4g}]",
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
    worst = Worst()                # must lose far more than half of it
    worst.add(sups[0] - sups[1] - expected_drop, lambda _: None)
    reports.append(
        worst.report(
            "appendix.zero-input-vanishing",
            f"window b <= {window:g}, cutoffs 1e4 -> 1e6",
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
# BLAS thread, 2-vCPU Xeon: prop5 0.099 s, equicont 0.051, appendix 0.026,
# prop4 0.021, ck 0.013, lemma3 0.008, lemma4 0.001.
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
