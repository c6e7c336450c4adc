"""Reconstruction of the full two-point function from the boundary solution.

Given a solved boundary function f (exp f = G on the boundary), the
two-variable function is
    G(a, b) = exp(-(H_a[tau_b] - H_0[tau_0])) * sin(tau_b(a)) / (|lam| pi a),
with the angle tau_b(a) = arctan_[0,pi](|lam| pi a / (b + R(a))) taken on
the [0, pi] branch and all transforms truncated at the cutoff.  Valid
for negative coupling.

The a -> 0 limit G(0, b) is a Richardson extrapolation from three points
a near 0.  ``table`` samples each b's angle once, for its column, and
transforms it at the a-grid and at those three points in one
``SampledPVTransform.at`` call; the reconstruction keeps the latter for
the b's of its last table, so ``boundary_limit`` of such a b forms no
samples of its own.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .coupling import Coupling
from .domain import checked, unwrap
from .grids import GridFunction, HARD_CUTOFF, QuadratureConfig
from .hilbert import HilbertOfExp, SampledPVTransform

_BRANCH_EPS = 1e-12
BOUNDARY_A0 = 1e-4  # finest-but-one level of the a -> 0 Richardson limit
# the points of the a -> 0 Richardson limit
_BOUNDARY_PROBES = np.array([BOUNDARY_A0, BOUNDARY_A0 / 2.0, BOUNDARY_A0 / 4.0])


def _branch_arctan(num, den):
    """arctan on the [0, pi] branch: pi/2 - arctan(den/num) for num > 0."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    if np.any(np.abs(den) < _BRANCH_EPS):
        warnings.warn("angle denominator nearly vanishes; branch selection at pi/2")
    return np.arctan2(num, den)


class TwoPointReconstruction:
    """Evaluates the two-variable function from a solved boundary grid."""

    def __init__(self, f: GridFunction, coupling: Coupling):
        if coupling.abs_lambda == 0.0:
            raise ValueError("reconstruction needs strictly negative coupling")
        self.f = f
        self.coupling = coupling
        self.lambda2 = float(f.nodes[-1])
        self._hilbert = HilbertOfExp(f, QuadratureConfig(tail_mode=HARD_CUTOFF))
        # the truncated transform diverges at the cutoff edge; below it the
        # working grid keeps f's nodes, where the interpolant is the stored values
        self._r_nodes = np.append(
            self._hilbert.r(f.nodes[:-1], coupling.abs_lambda, f_a=f.values[:-1]),
            math.inf,
        )
        self._angle = SampledPVTransform(f.nodes)
        # the numerator |lam| pi a of the angle on the grid, for every column
        self._tau_num = coupling.abs_lambda * math.pi * f.nodes
        self._h0_tau0 = self._angle.at_zero(self.tau_values(0.0))
        # the angle transforms at the points of the a -> 0 limit that the
        # last table formed, by b
        self._table_probes: dict[float, np.ndarray] = {}

    # -- angle ---------------------------------------------------------

    def tau_values(self, b: float) -> np.ndarray:
        """Angle sampled on the boundary grid; 0 at both domain ends."""
        with np.errstate(invalid="ignore"):
            out = _branch_arctan(self._tau_num, b + self._r_nodes)
        out[0] = 0.0
        out[-1] = 0.0
        return out

    def _r_at(self, a):
        """R at points a in (0, cutoff), and whether a was a scalar."""
        a, scalar = checked(a, "a", 0.0, self.lambda2, "()")
        return a, self._hilbert.r(a, self.coupling.abs_lambda), scalar

    def _checked_b(self, b):
        """b as ``checked`` returns it, for b in [0, cutoff]: the domain
        of the truncated reconstruction, the one rule of every method."""
        return checked(b, "b", 0.0, self.lambda2)

    def tau_at(self, a, b: float):
        """The angle tau_b at points a in (0, cutoff), for b in [0, cutoff]."""
        self._checked_b(b)
        a, r_a, scalar = self._r_at(a)
        tau = _branch_arctan(self.coupling.abs_lambda * math.pi * a, b + r_a)
        return unwrap(tau, scalar)

    # -- two-point values ------------------------------------------------

    def _g_at(self, a: np.ndarray, r_a: np.ndarray, b: float, h_tau=None):
        """The angle tau_b and G(a, b) at points a for one checked b, given
        R at a (``_r_at``) and the angle transform ``h_tau`` at a if it is
        formed already, else with one angle transform for all of them;
        ValueError as for ``g``."""
        al = self.coupling.abs_lambda
        tau = _branch_arctan(al * math.pi * a, b + r_a)
        if not np.all((0.0 <= tau) & (tau <= math.pi)):
            raise ValueError("angle must lie in [0, pi]")
        if h_tau is None:
            h_tau = self._angle.at(self.tau_values(b), a)
        g_val = np.exp(-(h_tau - self._h0_tau0)) * np.sin(tau) / (al * math.pi * a)
        if not np.all(g_val > 0.0):
            raise ValueError("two-point values must be positive")
        return tau, g_val

    def g(self, a: float, b: float) -> float:
        """G(a, b) for b in [0, cutoff]; ValueError if the angle leaves
        [0, pi] or G <= 0."""
        a, r_a, _ = self._r_at(np.array([float(a)]))
        self._checked_b(b)
        return float(self._g_at(a, r_a, b)[1][0])

    @functools.cached_property
    def _probe_r(self) -> np.ndarray:
        """R at the points of the a -> 0 limit, formed once for every b."""
        return self._r_at(_BOUNDARY_PROBES)[1]

    def boundary_limit(self, b: float) -> float:
        """a -> 0 limit by two-level Richardson over {a0, a0/2, a0/4},
        a0 = BOUNDARY_A0.  For a b of the last ``table`` the angle
        transform at those points is the one that table formed with its
        column; any other b transforms its own."""
        self._checked_b(b)
        h_probes = self._table_probes.get(float(b))
        g1, g2, g3 = self._g_at(_BOUNDARY_PROBES, self._probe_r, b, h_probes)[1]
        e1 = 2.0 * g2 - g1
        e2 = 2.0 * g3 - g2
        return (4.0 * e2 - e1) / 3.0

    def boundary_limits(self, b_values):
        """The a -> 0 limits at b_values (``boundary_limit``), and their
        relative deviations from the boundary solution exp(f(b)), for b
        in [0, cutoff]."""
        b_values, _ = self._checked_b(b_values)
        limits = np.array([self.boundary_limit(b) for b in b_values.tolist()])
        ref = np.array([math.exp(v) for v in self.f.at(b_values).tolist()])
        return limits, np.abs(limits - ref) / ref

    def boundary_consistency(self, b_values=None) -> float:
        """Worst relative deviation of the a -> 0 limit from exp(f(b))
        (``boundary_limits``).

        The reconstruction is cutoff-truncated while the boundary
        solution solves the untruncated problem, so the deviation grows
        like b/(|lam| cutoff); the default probe window b <= 1e-3 cutoff
        keeps that genuine cutoff effect below the quadrature scale.
        """
        if b_values is None:
            b_values = np.geomspace(0.5, 1e-3 * self.lambda2, 12)
        return float(np.max(self.boundary_limits(b_values)[1], initial=0.0))

    def table(self, a_grid, b_grid) -> np.ndarray:
        """Columns a, b, tau, G(a,b), symmetry defect on a rectangular grid.

        Each b's angle is sampled once, and its transform taken at the
        a-grid and at the points of the a -> 0 limit together; the latter
        are kept until the next table, for ``boundary_limit`` of that b,
        which checks them.  The defect column |G(a,b)-G(b,a)|/G(a,b) is
        filled when the two grids are equal, NaN otherwise: on grids that
        differ, G(b_j, a_i) is not in the table.
        """
        a_grid, r_a, _ = self._r_at(a_grid)
        b_grid, _ = self._checked_b(b_grid)
        gmat = np.empty((a_grid.size, b_grid.size))
        taumat = np.empty_like(gmat)
        self._table_probes = probes = {}
        for j, b in enumerate(b_grid.tolist()):
            h_a, probes[b] = self._angle.at(self.tau_values(b), a_grid, _BOUNDARY_PROBES)
            taumat[:, j], gmat[:, j] = self._g_at(a_grid, r_a, b, h_a)
        symmetric = np.array_equal(a_grid, b_grid)
        defect = (
            np.abs(gmat - gmat.T) / gmat if symmetric else np.full_like(gmat, np.nan)
        )
        return np.column_stack([
            np.repeat(a_grid, b_grid.size),
            np.tile(b_grid, a_grid.size),
            taumat.ravel(),
            gmat.ravel(),
            defect.ravel(),
        ])
