"""The fixed-point map T, built on the rescaled transform R, and the norm.

R f(a) = (1 - |lam| pi a H_a[exp f]) / exp f(a) has one home,
``HilbertOfExp``, which also owns f on the working grid and the R nodes t
(``r_samples``).  The derivative of the image,

    (T f)'(b) = -1/(1+b) + |lam| int_0^inf dt / ((|lam| pi t)^2 + (b + Rf(t))^2),

is evaluated on a shared cache of R samples at t; T f itself is recovered by
cumulative integration from 0, which pins T f(0) = 0 exactly.  Beyond
the quadrature grid the integrand is closed using the asymptotically
affine model of R and the arctan antiderivative
int dt/((alpha t)^2 + (beta + gamma t)^2) = arctan(alpha t/(beta+gamma t))/(alpha beta).

Applied in a loop on one grid, T builds the grid's plans in its first
application and reads them in every later one: the grid plan of
``hilbert`` (the working grid, the R nodes t, the PV plans and the (Tf)'
layout at the nodes) and the composite weights of the t-grid, from
``quadrature``'s memo of weights by grid, which outlives a switch of the
grid plan to another grid.  Each application still samples R, sums the
(Tf)' kernel at the Chebyshev points of its boxes, and integrates.

``apply`` and ``rf_cache`` also take a block: several members on one
grid, whose R samples come from one ``HilbertOfExp`` with a leading
member axis (its panel samples, PV sum and 2F1 tail); the (Tf)' kernel is
then summed member by member.  Each image has the bits of T applied to
its member alone.  The verify suites apply T this way to their random
members, a bounded block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coupling import Coupling
from .domain import checked, unwrap
from .farfield import DENSE_MAX, LogBoxes
from .grids import GridFunction, POWER_LAW_EXTEND, QuadratureConfig
from .grids import log_envelope_function
from .hilbert import HilbertOfExp, QuadratureError
from .quadrature import composite_weights, cumulative_integral, row_blocks


# (Tf)' boxes are this wide in u = log(1+b).  For R > 0 the integrand's
# poles b = -R(t) +- i |lam| pi t sit in the left half-plane, a distance of
# about 2.6 from the real u axis at large t.  On random domain members at
# 400 to 2000 nodes, boxes 1, 1.5 and 2 wide gave (1+b)(Tf)' within 3.4,
# 3.2 and 3.0 times the rounding spread of the dense sum; 2 wide needs 140
# kernel rows for the whole grid.
_TF_BOX_WIDTH = 2.0


class PoleRegionError(RuntimeError):
    """b + Rf(t) <= 0 somewhere: the input is far outside the fixed-point
    domain and the integrand develops a near-pole the caller must opt into."""


def lb_norm(f: GridFunction) -> float:
    """|f(0)| + sup over nodes of |(1+x) f'(x)|."""
    return float(abs(f.values[0]) + np.max(np.abs(f.scaled_derivs())))


def lb_distance(f: GridFunction, g: GridFunction) -> float:
    if f.nodes.shape != g.nodes.shape or not np.array_equal(f.nodes, g.nodes):
        raise ValueError("grid functions live on different node sets")
    d0 = abs(f.values[0] - g.values[0])
    return float(d0 + np.max(np.abs(f.scaled_derivs() - g.scaled_derivs())))


@dataclass
class RfCache:
    """R samples on the operator's t-quadrature grid plus the affine tail."""

    t_nodes: np.ndarray
    rf: np.ndarray
    weights: np.ndarray
    hilbert: HilbertOfExp
    tail_r0: float | None
    tail_r1: float | None
    min_rf: float


class TOperator:
    """Fixed-point map bound to a coupling and the quadrature's tail
    treatment; the grid is the sampled function's own."""

    def __init__(self, coupling: Coupling, cfg: QuadratureConfig):
        self.coupling = coupling
        self.cfg = cfg

    # -- R ----------------------------------------------------------------

    def rf_cache(self, f: GridFunction | Sequence[GridFunction]) -> RfCache | list[RfCache]:
        """The R samples of f, or of each member of a block (a sequence of
        members on one grid, one cache each, sharing one ``HilbertOfExp``)."""
        he = HilbertOfExp(f, self.cfg)
        t, rf = he.r_samples(self.coupling.abs_lambda)
        w = composite_weights(t)
        k = int(np.searchsorted(t, t[-1] / 10.0))  # the last decade of t
        caches = []
        for row in [rf] if he.single else rf:
            r0 = r1 = None
            if self.cfg.tail_mode == POWER_LAW_EXTEND:
                # Secant model through the last decade, exact at the grid end;
                # beyond the grid R deviates from affine only sublinearly.
                r1 = float((row[-1] - row[k]) / (t[-1] - t[k]))
                r0 = float(row[-1] - r1 * t[-1])
                if not r1 > 0.0:
                    raise QuadratureError("tail model of R has non-positive slope")
            caches.append(RfCache(
                t_nodes=t,
                rf=row,
                weights=w,
                hilbert=he,
                tail_r0=r0,
                tail_r1=r1,
                min_rf=float(row.min()),
            ))
        return caches[0] if he.single else caches

    # -- (Tf)' --------------------------------------------------------------

    def _tail_integral(self, cache: RfCache, b: np.ndarray) -> np.ndarray:
        """int_{T}^inf dt/((al pi t)^2 + (b + r0 + r1 t)^2) via arctan."""
        al = self.coupling.abs_lambda
        alpha = al * math.pi
        t_end = cache.t_nodes[-1]
        beta = b + cache.tail_r0
        # Valid while beta + r1*t stays positive on [t_end, inf); beta itself
        # may be negative (the secant intercept of a sublinear drift).
        if not np.all(beta + cache.tail_r1 * t_end > 0.0):
            raise QuadratureError("affine tail model not applicable beyond the grid")
        with np.errstate(divide="ignore", invalid="ignore"):
            lim = math.atan2(alpha, cache.tail_r1)
            at_end = np.arctan(alpha * t_end / (beta + cache.tail_r1 * t_end))
            out = (lim - at_end) / (alpha * beta)
        exact_zero = 1.0 / ((alpha**2 + cache.tail_r1**2) * t_end)
        return np.where(beta == 0.0, exact_zero, out)

    def _kernel_sum(self, cache: RfCache, b: np.ndarray) -> np.ndarray:
        """sum_t w_t / ((|lam| pi t)^2 + (b + Rf(t))^2) per b, densely."""
        alpha2 = (self.coupling.abs_lambda * math.pi * cache.t_nodes) ** 2
        out = np.empty_like(b)
        blocks = row_blocks(b.size, alpha2.itemsize * alpha2.size)
        kernel = np.empty((max(blk.stop - blk.start for blk in blocks), alpha2.size))
        for blk in blocks:
            k = kernel[: blk.stop - blk.start]
            np.add(b[blk, None], cache.rf, out=k)
            np.square(k, out=k)
            np.add(alpha2, k, out=k)
            np.divide(1.0, k, out=k)
            out[blk] = k @ cache.weights
        return out

    def derivative(self, cache: RfCache, b, require_positive: bool = True):
        """(Tf)'(b) from the R samples of ``rf_cache``, vectorised over b >= 0."""
        b_arr, scalar = checked(b, "b", 0.0)
        al = self.coupling.abs_lambda
        if al == 0.0:
            return unwrap(-1.0 / (1.0 + b_arr), scalar)
        if require_positive and b_arr.size and b_arr.min() + cache.min_rf <= 0.0:
            raise PoleRegionError(
                f"b + Rf(t) <= 0 at b={b_arr.min():g} (min Rf = {cache.min_rf:g})"
            )
        if cache.tail_r0 is not None and cache.min_rf > 0.0 and b_arr.size > DENSE_MAX:
            # (1+b) times the sum is of order one and analytic in a strip
            # around the real u axis: interpolate it from a few b per box.
            # Where R <= 0 the poles reach the real axis; the hard-cutoff
            # zero function of appendix.t0_profile dips to R = -4.4e4 and
            # interpolating it put (1+b)(Tf)' off by 3e-7, so it stays dense.
            # The grid plan keeps the layout of the b set.
            boxes = LogBoxes(0.0, _TF_BOX_WIDTH)
            layout = cache.hilbert.plan.layout(np.log1p(b_arr), boxes)
            integral = layout.interpolate(
                lambda u: np.exp(u) * self._kernel_sum(cache, np.expm1(u))
            ) / (1.0 + b_arr)
        else:
            integral = self._kernel_sum(cache, b_arr)
        if cache.tail_r0 is not None:
            integral += self._tail_integral(cache, b_arr)
        out = -1.0 / (1.0 + b_arr) + al * integral
        if not np.all(np.isfinite(out)):
            raise QuadratureError("operator derivative produced non-finite values")
        return unwrap(out, scalar)

    # -- Tf -------------------------------------------------------------------

    def direct_value(self, cache: RfCache, b: float) -> float:
        """T f(b) via the arctan-difference form (consistency diagnostic)."""
        al = self.coupling.abs_lambda
        alpha = al * math.pi
        t = cache.t_nodes
        rf = cache.rf
        with np.errstate(divide="ignore", invalid="ignore"):
            x = (b + rf) / (alpha * t)
            y = rf / (alpha * t)
            diff = np.arctan2(x - y, 1.0 + x * y)
            integrand = diff / (math.pi * t)
        integrand[t == 0.0] = al * b / (rf[0] * (b + rf[0]))
        val = float(cache.weights @ integrand)
        if cache.tail_r0 is not None:
            r1 = cache.tail_r1
            t_end = t[-1]
            val += b * alpha / (math.pi * (alpha**2 + r1**2) * t_end)
        return -math.log1p(b) + val

    def apply(
        self, f: GridFunction | Sequence[GridFunction], require_positive: bool = True
    ) -> GridFunction | list[GridFunction]:
        """The image T f on the nodes of f (values and derivatives), or the
        image of each member of a block, in order: a sequence of members on
        one grid, whose R samples are formed together (``rf_cache``) and
        whose (Tf)' kernels are summed member by member."""
        single = isinstance(f, GridFunction)
        members = [f] if single else list(f)
        if self.coupling.abs_lambda == 0.0:
            # T f = -log(1+b)
            images = [log_envelope_function(g.nodes, -1.0) for g in members]
        else:
            caches = self.rf_cache(f if single else members)
            images = []
            for g, cache in zip(members, [caches] if single else caches):
                d = self.derivative(cache, g.nodes, require_positive=require_positive)
                images.append(GridFunction(g.nodes, cumulative_integral(g.nodes, d), d))
        return images[0] if single else images

