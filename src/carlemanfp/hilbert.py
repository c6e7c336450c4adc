"""One-sided principal-value Hilbert transforms of sampled functions.

The kernel singularity is removed globally: PV int s(x)/(x-a) dx equals
int (s(x) - s(a))/(x-a) dx + s(a) log((X-a)/a) on [0, X], leaving a C^1
integrand that a per-interval Gauss rule integrates to high order.  In
power-law mode the grid is continued for several decades beyond the
cutoff and the remaining exact power-law tail is integrated in closed
form, so the transform is the untruncated one.  Both transforms below,
of exp(f) and of an arbitrary sampled function, go through ``_pv``.  For
a few points it sums the subtracted integrand over every panel point;
for many it sums only each point's neighbourhood in log x that way and
takes the farther panel points through Chebyshev charges on a tree of
log-x boxes (``farfield``), in the split form sum w s/(x-a) - s(a) sum
w/(x-a).  With those points a box or more from a in log x, the two ways
agree to the rounding of the dense sum.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

from .farfield import DENSE_MAX, BoxTree, LogBoxes, charges
from .grids import (
    GridFunction,
    POWER_LAW_EXTEND,
    QuadratureConfig,
    hermite_eval,
)
from .quadrature import fd_derivative_coeffs, panel_points, row_blocks
from .specfun import hyp2f1_1mu

_TAIL_DECADES = 5.0          # power-law extension beyond the cutoff
_TAIL_NODES_PER_DECADE = 64
_EDGE_REFINE_LEVELS = 40     # dyadic refinement toward the cutoff (hard mode)


class QuadratureError(RuntimeError):
    """Raised when a transform evaluation produces non-finite output."""


def hilbert_power_law(beta: float, mu: float, a):
    """Closed form of the transform quotient for the family (beta+x)^(mu-1).

    H_a[(beta+.)^(mu-1)] / (beta+a)^(mu-1)
        = -cot(pi mu) + (1/(mu pi)) (beta/(beta+a))^mu
          * 2F1(1, mu; 1+mu; beta/(a+beta)).
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if not (0.0 < mu < 1.0):
        raise ValueError("mu must lie in (0, 1)")
    a, scalar = np.asarray(a, dtype=float), np.ndim(a) == 0
    if np.any(a <= 0.0):
        raise ValueError("evaluation point must be positive")
    z = beta / (beta + a)
    out = -1.0 / math.tan(math.pi * mu) + z**mu * hyp2f1_1mu(mu, z) / (mu * math.pi)
    return float(out) if scalar else out


def power_law_tail_integral(coeff: float, p: float, a, x_end: float):
    """(1/pi) int_{x_end}^inf coeff*(1+x)^p / (x-a) dx for p < 0, a < x_end."""
    a = np.asarray(a, dtype=float)
    nu = -p
    z = (1.0 + a) / (1.0 + x_end)
    return coeff * (1.0 + x_end) ** p * hyp2f1_1mu(nu, z) / (nu * math.pi)


def extend_for_quadrature(f: GridFunction, cfg: QuadratureConfig):
    """Working grid for the transform quadratures.

    Power-law mode appends log-spaced nodes for five decades past the
    cutoff, filled with the fitted power-law continuation of f.
    Hard-cutoff mode instead refines dyadically toward the cutoff edge,
    where the truncated transform develops its logarithmic edge
    behaviour.  Returns (extended GridFunction, tail coefficient or None,
    tail exponent or None).
    """
    lam2 = f.nodes[-1]
    if cfg.tail_mode == POWER_LAW_EXTEND:
        p = f.fitted_tail_exponent()
        if p >= -1e-6:
            raise ValueError(
                "power-law extension requires a decaying tail "
                f"(fitted exponent {p:.3g}); use hard_cutoff"
            )
        n_ext = int(round(_TAIL_DECADES * _TAIL_NODES_PER_DECADE))
        ext = np.geomspace(lam2, lam2 * 10.0**_TAIL_DECADES, n_ext + 1)[1:]
        coeff = math.exp(f.values[-1] - p * math.log1p(lam2))
        ext_vals = f.values[-1] + p * (np.log1p(ext) - math.log1p(lam2))
        ext_derivs = p / (1.0 + ext)
        g = GridFunction(
            np.concatenate([f.nodes, ext]),
            np.concatenate([f.values, ext_vals]),
            np.concatenate([f.derivs, ext_derivs]),
            tail_exponent=p,
        )
        return g, coeff, p

    gap = lam2 - f.nodes[-2]
    edge = lam2 - gap * 0.5 ** np.arange(1, _EDGE_REFINE_LEVELS + 1)
    vals, ders = hermite_eval(f.nodes, f.values, f.derivs, edge, with_derivative=True)
    nodes = np.concatenate([f.nodes[:-1], edge, [lam2]])
    values = np.concatenate([f.values[:-1], vals, [f.values[-1]]])
    derivs = np.concatenate([f.derivs[:-1], ders, [f.derivs[-1]]])
    g = GridFunction(nodes, values, derivs, tail_exponent=f.tail_exponent)
    return g, None, None


def _subtracted_sum(x, w, s, a, s_a):
    """sum_j w_j (s_j - s(a)) / (x_j - a) per point a, densely.

    Row blocks keep the two work arrays within the cache budget; the
    arithmetic of every row is the same whatever the blocking.
    """
    out = np.empty_like(a)
    blocks = row_blocks(a.size, 2 * x.itemsize * x.size)
    rows = max(blk.stop - blk.start for blk in blocks)
    diff = np.empty((rows, x.size))
    quot = np.empty_like(diff)
    for blk in blocks:
        d = diff[: blk.stop - blk.start]
        q = quot[: blk.stop - blk.start]
        np.subtract(x, a[blk, None], out=d)
        np.subtract(s, s_a[blk, None], out=q)
        np.divide(q, d, out=q)
        out[blk] = q @ w
    return out


# PV boxes hold this many panel points on average: their width in log x
# is this many mean panel spacings.  PV applications to every grid node,
# for boxes of 50 / 100 / 200 / 400 points, took 3.7 / 2.9 / 3.6 / 4.7 ms at
# 400 nodes (dense: 4.0), 13.3 / 14.3 / 14.9 / 25.1 ms at 2000 (dense: 40)
# and 49 / 44 / 76 / 131 ms at 8000 (dense: 640).
_PV_BOX_POINTS = 100


class _PVFarField:
    """The grid-only half of the compressed PV sum on one set of panel
    points: their boxes in log x, merged pairwise into a tree, and each
    box's Chebyshev proxies xi_J,l and weight charges.

    Seen from a target a below a box, 1/(x - a) decays like 1/x across
    it, so boxes above the target carry charges of q/x and the kernel
    xi/(xi - a); boxes below carry charges of q and 1/(xi - a).  Both
    kernels then stay bounded and smooth over the widest box.
    """

    def __init__(self, sub_x, sub_w):
        u = np.log(sub_x)
        self.boxes = LogBoxes(float(u[0]), _PV_BOX_POINTS * (u[-1] - u[0]) / u.size)
        box = self.boxes.index(u)
        self.tree = BoxTree(self.boxes, int(box[-1]) + 1)
        self.starts = np.searchsorted(box, np.arange(self.tree.n_boxes + 1))
        self.local = self.boxes.local(u, box)
        self.inv_x = 1.0 / sub_x
        xi = np.exp(self.tree.proxies)
        # per charge index: the proxy and the scale of the kernel scale/(xi - a)
        self.xi = np.concatenate([xi, xi])
        self.scale = np.concatenate([np.ones_like(xi), xi])
        self.w_charges = self._charges(sub_w)
        self._splits = {}

    def _charges(self, q) -> np.ndarray:
        """Charges of q (for boxes below a target) and of q/x (above) of
        every box of the tree, the two kinds one after the other."""
        level0 = charges(self.local, self.starts, np.stack([q, q * self.inv_x]))
        return self.tree.upward(level0).ravel()

    def _split(self, k: int) -> tuple[slice, np.ndarray]:
        """For targets in level-0 box k: the panel points summed densely,
        and the indices of the charges summed."""
        hit = self._splits.get(k)
        if hit is None:
            near, below, above = self.tree.split(k)
            hit = self._splits[k] = (
                slice(self.starts[near.start], self.starts[near.stop]),
                np.concatenate([below, above + self.tree.proxies.size]),
            )
        return hit

    def sum(self, sub_x, sub_w, sub_s, a, s_a):
        """_subtracted_sum over all panel points: for targets in box k, the
        panel points of boxes k-1 .. k+1 densely, every other box J through
        sum_l (S_J,l - s(a) T_J,l) K(xi_J,l, a), with S_J,l the charges of
        w s and T_J,l those of w."""
        st = np.column_stack([self._charges(sub_w * sub_s), self.w_charges])
        order = np.argsort(a, kind="stable")
        a_o, s_o = a[order], s_a[order]
        k = self.boxes.index(np.log(a_o))
        cuts = list(np.flatnonzero(np.diff(k)) + 1)
        out_o = np.empty_like(a)
        for g0, g1 in zip([0] + cuts, cuts + [a.size]):
            near, far = self._split(int(k[g0]))
            xi, scale, st_far = self.xi[far], self.scale[far], st[far]
            x, w, s = sub_x[near], sub_w[near], sub_s[near]
            for blk in row_blocks(g1 - g0, 8 * (2 * x.size + xi.size)):
                rows = slice(g0 + blk.start, g0 + blk.stop)
                a_r, s_r = a_o[rows], s_o[rows]
                d = xi - a_r[:, None]
                np.divide(scale, d, out=d)
                f_st = d @ st_far
                out_o[rows] = f_st[:, 0] - s_r * f_st[:, 1]
                if x.size:
                    out_o[rows] += _subtracted_sum(x, w, s, a_r, s_r)
        out = np.empty_like(a)
        out[order] = out_o
        return out


# One plan per panel grid, keyed by the panel points (the weights follow
# from them); a solve, a verify run or a reconstruction uses at most three
# grids.  Like the quadrature weight cache it is not locked.
_PLAN_CACHE_SIZE = 4
_plans: OrderedDict[bytes, _PVFarField] = OrderedDict()


def _far_field(sub_x, sub_w) -> _PVFarField:
    key = sub_x.tobytes()
    plan = _plans.get(key)
    if plan is None:
        plan = _plans[key] = _PVFarField(sub_x, sub_w)
        if len(_plans) > _PLAN_CACHE_SIZE:
            _plans.popitem(last=False)
    else:
        _plans.move_to_end(key)
    return plan


def _pv(sub_x, sub_w, sub_s, x_end: float, a: np.ndarray, s_a: np.ndarray):
    """(1/pi) PV int_0^{x_end} s(x)/(x-a) dx via global subtraction.

    ``sub_x``, ``sub_w`` are the panel points and weights of the grid,
    ``sub_s`` the samples of s there and ``s_a`` its values at ``a``.
    """
    if a.size <= DENSE_MAX:
        out = _subtracted_sum(sub_x, sub_w, sub_s, a, s_a)
    else:
        out = _far_field(sub_x, sub_w).sum(sub_x, sub_w, sub_s, a, s_a)
    out += s_a * np.log((x_end - a) / a)
    return out / math.pi


def _points_inside(a, hi: float, message: str):
    """a as a 1-d float array, and whether it was a scalar; raises
    ValueError(message) unless every point lies strictly inside (0, hi)."""
    scalar = np.ndim(a) == 0
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if np.any(a <= 0.0) or np.any(a >= hi):
        raise ValueError(message)
    return a, scalar


def _finite(out: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(out)):
        raise QuadratureError("transform produced non-finite values")
    return out


class HilbertOfExp:
    """PV transform of exp(f) for a sampled f, evaluated at many points.

    ``quotient(a)`` returns H_a[exp(f)] / exp(f(a)) and ``r(a, |lam|)``
    the rescaled transform R f(a) built from it; in power-law mode the
    transform is the untruncated one, in hard-cutoff mode the transform
    truncated at the grid cutoff.
    """

    def __init__(self, f: GridFunction, cfg: QuadratureConfig):
        f.validate()
        self.lambda2 = float(f.nodes[-1])
        self.ext, self.tail_coeff, self.tail_p = extend_for_quadrature(f, cfg)
        self.x_end = float(self.ext.nodes[-1])
        self.sub_x, self.sub_w = panel_points(self.ext.nodes)
        self.sub_g = np.exp(self._f_at(self.sub_x))

    def _f_at(self, a: np.ndarray) -> np.ndarray:
        """Hermite interpolant of the working grid at points a."""
        return hermite_eval(self.ext.nodes, self.ext.values, self.ext.derivs, a)

    def _quotient(self, a: np.ndarray, s_a: np.ndarray) -> np.ndarray:
        """H_a[exp(f)] / exp(f(a)) at points a > 0, given s_a = exp(f(a))."""
        h = _pv(self.sub_x, self.sub_w, self.sub_g, self.x_end, a, s_a)
        if self.tail_coeff is not None:
            h += power_law_tail_integral(self.tail_coeff, self.tail_p, a, self.x_end)
        return _finite(h) / s_a

    def quotient(self, a, allow_extension: bool = False):
        """H_a[exp(f)] / exp(f(a)) at points a in (0, cutoff), or in
        (0, end of the working grid) with ``allow_extension``."""
        hi = self.x_end if allow_extension else self.lambda2
        a, scalar = _points_inside(
            a, hi, f"evaluation points must lie strictly inside (0, {hi:g})"
        )
        out = self._quotient(a, np.exp(self._f_at(a)))
        return float(out[0]) if scalar else out

    def r(self, a, abs_lambda: float, allow_extension: bool = False):
        """The rescaled transform R f(a) = (1 - |lam| pi a H_a[exp f]) / exp f(a).

        Formed as exp(-f(a)) - |lam| pi a * quotient, so no large
        exponentials appear; f is interpolated once per point and R f(0)
        = exp(-f(0)).  Points lie in [0, cutoff), or in [0, end of the
        working grid) with ``allow_extension``.
        """
        hi = self.x_end if allow_extension else self.lambda2
        scalar = np.ndim(a) == 0
        a = np.atleast_1d(np.asarray(a, dtype=float))
        if not np.all((a >= 0.0) & (a < hi)):
            raise ValueError(f"evaluation points must lie in [0, {hi:g})")
        f_a = self._f_at(a)
        out = np.exp(-f_a)
        inside = a > 0.0
        if abs_lambda != 0.0 and np.any(inside):
            a_in = a[inside]
            quot = self._quotient(a_in, np.exp(f_a[inside]))
            out[inside] -= abs_lambda * math.pi * a_in * quot
        return float(out[0]) if scalar else out


class SampledPVTransform:
    """Truncated PV transform on [0, X] of functions sampled on fixed nodes.

    Bound to its grid: the panel points and the cubic finite-difference
    stencils that estimate the derivative samples are built once, and
    ``at`` / ``at_zero`` take the samples of each function.  Used for
    transforming the reconstruction angle.
    """

    def __init__(self, nodes):
        self.nodes = np.asarray(nodes, dtype=float)
        self.x_end = float(self.nodes[-1])
        self.sub_x, self.sub_w = panel_points(self.nodes)
        self._fd_idx, self._fd_c = fd_derivative_coeffs(self.nodes)

    def _samples(self, values) -> tuple[np.ndarray, np.ndarray]:
        """Values and finite-difference derivative samples on the nodes."""
        values = np.asarray(values, dtype=float)
        return values, np.sum(self._fd_c * values[self._fd_idx], axis=1)

    def at(self, values, a):
        """Transform of the sampled function at points a in (0, X)."""
        values, derivs = self._samples(values)
        a, scalar = _points_inside(
            a, self.x_end, "evaluation points must lie strictly inside the grid"
        )
        sub_s = hermite_eval(self.nodes, values, derivs, self.sub_x)
        s_a = hermite_eval(self.nodes, values, derivs, a)
        out = _finite(_pv(self.sub_x, self.sub_w, sub_s, self.x_end, a, s_a))
        return float(out[0]) if scalar else out

    def at_zero(self, values) -> float:
        """Transform at a = 0 for functions vanishing at 0 (no pole)."""
        values, derivs = self._samples(values)
        if abs(values[0]) > 1e-12:
            raise ValueError("zero-point transform needs s(0) = 0")
        sub_s = hermite_eval(self.nodes, values, derivs, self.sub_x)
        return float(np.sum(self.sub_w * sub_s / self.sub_x) / math.pi)
