"""One-sided principal-value Hilbert transforms of sampled functions.

The kernel singularity is removed globally: PV int s(x)/(x-a) dx equals
int (s(x) - s(a))/(x-a) dx + s(a) log((X-a)/a) on [0, X], leaving a C^1
integrand that a per-interval Gauss rule integrates to high order.  In
power-law mode the grid is continued for several decades beyond the
cutoff and the remaining exact power-law tail is integrated in closed
form, so the transform is the untruncated one.  Both transforms below,
of exp(f) and of an arbitrary sampled function, go through
``_Panels.pv``.  For a few points it sums the subtracted integrand over
every panel point; for many it sums only each point's neighbourhood in
log x that way and takes the farther panel points through the fast
multipole method on a tree of log-x boxes (``farfield``), in the split form sum w s/(x-a) -
s(a) sum w/(x-a).  With those points a box or more from a in log x, the
two ways agree to the rounding of the dense sum.

What depends on the grid alone is planned once per grid, and kept by
what owns the grid.  The transforms of exp f share one grid plan
(``_GridPlan``) per f's nodes and tail mode, held in a single slot
(``_grid_plan``): the plan of the grid the last transform of exp f ran
on, dropped when another grid is asked for (an object that keeps its
plan, such as a reconstruction's ``HilbertOfExp``, keeps it alive for
itself).  It holds the working grid's nodes, panel points and weights
(``_Panels``), the R nodes of ``HilbertOfExp.r_samples``, the source
plan of the compressed sum (``_PVFarField``: boxes, tree, translation
matrices, near windows and the far field of the weight charges T), built
at the first sum past DENSE_MAX targets, and the (Tf)' layout of the
last b set.  A source plan keeps the target plan (``_PVTargets``: each target's
box and Lagrange rows, T's far field there and the near-field rows) of
the last point set it summed at; any other point set is planned for its
call.  ``SampledPVTransform`` keeps its own panels and source plan, and
samples a function once for all the point sets it is transformed at.  An
application then computes only what depends on the sampled function: its
panel samples and Hermite values, the charges of w s with their upward
and downward passes, the near-field arithmetic, and the 2F1 tail.  Both
transforms read it through a ``grids.Interpolant`` on the working grid,
formed once, and take the panel samples at the fixed Gauss fractions of
every interval, so only the targets are located on the grid.  For exp f
that interpolant, ``HilbertOfExp.ext``, is the one owner of f on the
working grid: ``r_samples`` takes f at the R nodes from it too.
Targets outside the grid, and NaN, are refused by ``domain.checked``.
Every caller on a grid shares its plans' arrays, so ``_read_only`` makes
them read-only.  The plans hold intermediates an application would
compute, combined in the same order, so the results keep their bits.

``HilbertOfExp`` also takes a block: several members on one grid, run
through one leading member axis.  Their panel samples come from one
Hermite pass, the PV sum forms the charges, the tree passes and the near
rows of all of them at once (the dense sum shares each row block's
differences x - a and keeps one matrix-vector product per member), and
the 2F1 tail is one ``specfun.hyp2f1`` call, one row per member, with
one Horner pass per series.  Every step is elementwise along the member
axis or sums each member on its own, so each member gets the bits of its
transform alone; a single GridFunction runs the same code without the
axis.  ``members_per_block`` sizes a
block from bytes, so that its transient arrays stay near a member's.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .domain import checked, unwrap
from .farfield import DENSE_MAX, BoxLayout, BoxRows, BoxTree, LogBoxes, charges
from .grids import GridFunction, HARD_CUTOFF, POWER_LAW_EXTEND, Interpolant, QuadratureConfig
from .quadrature import (
    _BLOCK_BYTES,
    PANEL_FRACTIONS,
    _stencil_sums,
    fd_derivative_coeffs,
    panel_points,
    row_blocks,
)
from .specfun import hyp2f1

_TAIL_DECADES = 5.0          # power-law extension beyond the cutoff
_TAIL_NODES_PER_DECADE = 64
_EDGE_REFINE_LEVELS = 40     # dyadic refinement toward the cutoff (hard mode)


def _read_only(plan):
    """plan, with every array it holds made read-only: in a tuple, list or
    dict, or an attribute of an object, at any depth."""
    if isinstance(plan, np.ndarray):
        plan.setflags(write=False)
    elif isinstance(plan, (tuple, list)):
        for part in plan:
            _read_only(part)
    elif isinstance(plan, dict):
        for part in plan.values():
            _read_only(part)
    elif hasattr(plan, "__dict__"):
        for part in vars(plan).values():
            _read_only(part)
    return plan


class QuadratureError(RuntimeError):
    """Raised when a transform evaluation produces non-finite output."""


def hilbert_power_law(beta: float, mu: float, a):
    """Closed form of the transform quotient for the family (beta+x)^(mu-1).

    H_a[(beta+.)^(mu-1)] / (beta+a)^(mu-1)
        = -cot(pi mu) + (1/(mu pi)) (beta/(beta+a))^mu
          * 2F1(1, mu; 1+mu; beta/(a+beta)).
    """
    checked(beta, "beta", 0.0, ends="()")
    checked(mu, "mu", 0.0, 1.0, "()")
    a, scalar = checked(a, "a", 0.0, ends="()")
    z = beta / (beta + a)
    out = -1.0 / math.tan(math.pi * mu) + z**mu * hyp2f1(1.0, mu, 1.0 + mu, z) / (mu * math.pi)
    return unwrap(out, scalar)


def power_law_tail_integral(coeff: float | np.ndarray, p: float | np.ndarray, a,
                            x_end: float):
    """(1/pi) int_{x_end}^inf coeff*(1+x)^p / (x-a) dx for p < 0, a < x_end.

    Arrays of coefficients and exponents, one per member of a block, give
    one row per member, each with the bits of its own call: the block
    shares the checks and the Horner passes of the 2F1 series."""
    coeff, one = checked(coeff, "coeff")
    p, _ = checked(p, "p", hi=0.0, ends="()")
    checked(x_end, "x_end", 0.0, ends="()")
    a = np.asarray(a, dtype=float)
    nu = -p
    z = (1.0 + a) / (1.0 + x_end)
    fit = (slice(None),) + (np.newaxis,) * z.ndim
    # the powers in float arithmetic, member by member, as for one member
    scale = np.array([c * (1.0 + x_end) ** q for c, q in zip(coeff.tolist(), p.tolist())])
    out = scale[fit] * hyp2f1(1.0, nu, 1.0 + nu, z) / (nu * math.pi)[fit]
    return out[0] if one else out


def _extended_nodes(nodes: np.ndarray, tail_mode: str) -> np.ndarray:
    """The nodes of the working grid of the transforms of exp f."""
    lam2 = nodes[-1]
    if tail_mode == POWER_LAW_EXTEND:
        n_ext = int(round(_TAIL_DECADES * _TAIL_NODES_PER_DECADE))
        ext = np.geomspace(lam2, lam2 * 10.0**_TAIL_DECADES, n_ext + 1)[1:]
        return np.concatenate([nodes, ext])
    gap = lam2 - nodes[-2]
    edge = lam2 - gap * 0.5 ** np.arange(1, _EDGE_REFINE_LEVELS + 1)
    return np.concatenate([nodes[:-1], edge, [lam2]])


def _subtracted_sum(x, w, s, a, s_a):
    """sum_j w_j (s_j - s(a)) / (x_j - a) per point a, densely, for each
    row of samples s and values s_a at a (leading axes, one per member).

    Row blocks keep the two work arrays within the cache budget; the
    arithmetic of every row is the same whatever the blocking.  The
    differences x - a of a block serve every member, and each member
    keeps its own matrix-vector product, so the rows OpenBLAS's dgemv
    groups by four are those of one member, as in a sum for it alone.
    """
    s_rows, s_a_rows = s.reshape(-1, x.size), s_a.reshape(s.size // x.size, a.size)
    out = np.empty(s_a_rows.shape)
    blocks = row_blocks(a.size, 2 * x.itemsize * x.size)
    rows = max(blk.stop - blk.start for blk in blocks)
    diff = np.empty((rows, x.size))
    quot = np.empty_like(diff)
    for blk in blocks:
        d = diff[: blk.stop - blk.start]
        q = quot[: blk.stop - blk.start]
        np.subtract(x, a[blk, None], out=d)
        for s_m, s_a_m, out_m in zip(s_rows, s_a_rows, out):
            np.subtract(s_m, s_a_m[blk, None], out=q)
            np.divide(q, d, out=q)
            out_m[blk] = q @ w
    return out.reshape(s_a.shape)


# PV boxes hold this many panel points on average: their width in log x
# is this many mean panel spacings.  PV sums at every node of the
# power-law working grid, for boxes of 12 / 25 / 50 / 100 points, took
# 2.5 / 2.5 / 2.3 / 3.1 ms at 400 nodes, 5.6 / 5.6 / 5.9 / 11 ms at 2000
# and 20 / 20 / 27 / 42 ms at 8000 (each target summing its own far
# charges, boxes of 100: 3.3, 12 and 54 ms; dense: 4, 40 and 640 ms).
_PV_BOX_POINTS = 25


def _pv_kernel(du: np.ndarray) -> np.ndarray:
    """The far-field kernel at du = log(xi/a) for a source proxy xi and a
    target a, less its limit far from the target: xi/(xi - a) - 1 for
    sources above the target (du > 0), a/(xi - a) + 1 for those below."""
    return np.sign(du) / np.expm1(np.abs(du))


def _prefix_sums(v: np.ndarray) -> np.ndarray:
    """sum(v[..., :i]) for i = 0 .. n along the last axis, to about the
    rounding of the last one: np.cumsum, corrected by the error of each of
    its additions (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26 (2005) 1955)."""
    out = np.concatenate([np.zeros(v.shape[:-1] + (1,)), np.cumsum(v, axis=-1)], axis=-1)
    prev, cur = out[..., :-1], out[..., 1:]
    part = cur - prev
    err = (prev - (cur - part)) + (v - part)
    out[..., 1:] += np.cumsum(err, axis=-1)
    return out


class _PVFarField:
    """The grid-only half of the compressed PV sum on one set of panel
    points: their boxes in log x, merged pairwise into a tree with its
    translation matrices, each level-0 box's near-field window, and the
    local expansions of the weight charges.

    Seen from a target a below a box, 1/(x - a) decays like 1/x across
    it, so boxes above the target carry charges of q/x and the kernel
    xi/(xi - a); boxes below carry charges of q and 1/(xi - a), whose
    field F(a) decays like 1/a, so their local expansion holds a F(a),
    of kernel a/(xi - a).  Both kernels depend on log(xi/a) alone and stay
    bounded and smooth between boxes a box of their level apart.  Far
    from the target they tend to 1 and -1: that limit, summed over all
    the far sources of a box, is kept apart as an exact constant per box,
    so the local expansions carry only what decays with distance, and
    their rounding with it.
    """

    def __init__(self, sub_x, sub_w):
        self.sub_x, self.sub_w = sub_x, sub_w
        self.targets = None  # the plan of the last point set summed at
        u = np.log(sub_x)
        self.boxes = LogBoxes(float(u[0]), _PV_BOX_POINTS * (u[-1] - u[0]) / u.size)
        box = self.boxes.index(u)
        self.tree = BoxTree(self.boxes, int(box[-1]) + 1)
        n = self.tree.n_boxes
        self.starts = np.searchsorted(box, np.arange(n + 1))
        self.local = self.boxes.local(u, box)
        self.m2l = self.tree.translations(_pv_kernel)
        # Targets in level-0 box k sum the panel points of boxes k-1 .. k+1
        # densely: near window k, cut into rows of `width` points and a mask
        # that is false past the window's end.  The width is that of the
        # longest window up to 1.5 times the median panel point's, so a few
        # crowded boxes (the refinement toward a hard cutoff) take several
        # rows instead of widening every row.
        k = np.arange(n)
        lo = self.starts[np.maximum(k - 1, 0)]
        length = self.starts[np.minimum(k + 2, n)] - lo
        typical = np.median(np.repeat(length, np.diff(self.starts)))
        self.width = int(length[length <= 1.5 * typical].max())
        rows = -(-length // self.width)
        self.first_row = np.concatenate([[0], np.cumsum(rows)])
        row_box = np.repeat(k, rows)
        part = (np.arange(row_box.size) - self.first_row[row_box]) * self.width
        self.row_lo = lo[row_box] + part
        self.row_mask = np.arange(self.width) < (length[row_box] - part)[:, None]
        self.x_windows = self._windows(sub_x)
        self.w_windows = self._windows(sub_w)
        self.w_far = self._expansions(sub_x, sub_w)

    def _windows(self, v: np.ndarray) -> np.ndarray:
        """Row j of the last axis: v[..., j .. j + width - 1], zero past the
        end (a view)."""
        padded = np.concatenate([v, np.zeros(v.shape[:-1] + (self.width,))], axis=-1)
        return np.lib.stride_tricks.sliding_window_view(padded, self.width, axis=-1)

    def _expansions(self, sub_x, q) -> tuple[np.ndarray, np.ndarray]:
        """The far field of the charges of q for targets in each level-0
        box: its local expansions [..., kind, box, m] and constants
        [..., kind, box], for q with leading axes (one per member).  Kind 0
        is a F(a) of the sources below the target, kind 1 F(a) of those
        above."""
        n = self.tree.n_boxes
        qs = np.stack([q, q / sub_x], axis=-2)
        held = self.starts[:-1] < self.starts[1:]
        totals = np.zeros(qs.shape[:-1] + (n,))
        totals.T[held] = np.add.reduceat(qs, self.starts[:-1][held], axis=-1).T
        level0 = charges(self.local, self.starts, qs)
        del qs  # freed before the tree passes, which set the peak memory
        merged = self.tree.upward(level0)
        del level0
        local = self.tree.downward(merged, self.m2l)
        k = np.arange(n)
        below = -_prefix_sums(totals[..., 0, :]).take(np.maximum(k - 1, 0), axis=-1)
        above = _prefix_sums(totals[..., 1, ::-1]).take(np.maximum(n - k - 2, 0), axis=-1)
        return local, np.stack([below, above], axis=-2)

    def _near(self, sub_s, s_a, targets: _PVTargets) -> np.ndarray:
        """_subtracted_sum over the near window of each target's box, row
        by row, for samples with leading axes (one per member).  A row
        block holds the rows of every member and the differences x - a
        they share within the cache budget."""
        s_windows = self._windows(sub_s)
        members = math.prod(s_a.shape[:-1])
        sums = np.empty(s_a.shape[:-1] + targets.lo.shape)
        for blk in row_blocks(targets.lo.size, (members + 2) * 8 * self.width):
            lo, t = targets.lo[blk], targets.target[blk]
            q = s_windows[..., lo, :]
            q -= s_a.take(t, axis=-1)[..., None]
            d = self.x_windows[lo]
            d -= targets.a_row[blk, None]
            q /= d
            del d  # at most the members' rows and two work arrays per block
            q *= self.w_windows[lo]
            sums[..., blk] = np.einsum("...ij,ij->...i", q, self.row_mask[targets.row[blk]])
        # one bincount for all members: member m's targets are bins m * size ..
        bins = targets.target + s_a.shape[-1] * np.arange(members).reshape(s_a.shape[:-1] + (1,))
        return np.bincount(
            bins.ravel(), weights=sums.ravel(), minlength=s_a.size
        ).reshape(s_a.shape)

    def sum(self, sub_s, a, s_a):
        """_subtracted_sum over all panel points: for targets in box k, the
        panel points of boxes k-1 .. k+1 densely, every other one through
        the local expansions of box k, of the charges S of w s and T of w,
        combined as S - s(a) T.  Targets outside the boxes sum densely.
        The plan of the targets a (``_PVTargets``) is the kept one if a is
        the last point set summed at, else a new one kept in its place.
        Samples with leading axes (one per member) go through every step
        together: one set of charges, tree passes and near rows per block."""
        sub_x, sub_w = self.sub_x, self.sub_w
        targets = self.targets
        if targets is None or not np.array_equal(targets.a, a):
            self.targets = None  # dropped before the new plan is built
            self.targets = targets = _read_only(_PVTargets(self, a))
        inside = targets.inside
        out = np.empty(s_a.shape)
        # masks on the last axis through .T: numpy's fast path in 1-D
        if not inside.all():
            out.T[~inside] = _subtracted_sum(
                sub_x, sub_w, sub_s, a[~inside], s_a.T[~inside].T
            ).T
        a, s_a = a[inside], s_a.T[inside].T
        s_local, s_const = self._expansions(sub_x, sub_w * sub_s)
        far = targets.points.evaluate(s_local)
        far += s_const.take(targets.points.k, axis=-1)
        far -= s_a[..., None, :] * targets.t_far
        out.T[inside] = (far[..., 1, :] + far[..., 0, :] / a + self._near(sub_s, s_a, targets)).T
        return out


class _PVTargets:
    """The target half of the compressed PV sum for one set of targets a:
    each target's level-0 box and its Lagrange rows there, the far field
    of the weight charges T at the targets, and the rows of the near
    windows each target sums.  Only the charges of w s and the near-field
    arithmetic depend on the sampled function.  ``inside`` masks the
    targets inside the boxes; the others sum densely.  ``a`` is a copy of
    the targets, to tell the plan's point set from another."""

    def __init__(self, far: _PVFarField, a: np.ndarray):
        self.a = np.array(a)
        u = np.log(a)
        k = far.boxes.index(u)
        self.inside = (k >= 0) & (k < far.tree.n_boxes)
        a, k, u = a[self.inside], k[self.inside], u[self.inside]
        # the rows serve four sums per target: S and T, two kinds each
        self.points = BoxRows(k, far.boxes.local(u, k), sets=4)
        w_local, w_const = far.w_far
        self.t_far = self.points.evaluate(w_local)
        self.t_far += w_const[:, k]
        count = far.first_row[k + 1] - far.first_row[k]
        self.target = np.repeat(np.arange(a.size), count)
        first = far.first_row[k] - np.cumsum(count) + count
        self.row = np.arange(self.target.size) + np.repeat(first, count)
        self.lo = far.row_lo[self.row]
        self.a_row = a[self.target]


class _Panels:
    """The panel points ``sub_x`` and weights ``sub_w`` of a grid that ends
    at ``x_end``, and the PV sums over them.  The source plan of the
    compressed sum (``_PVFarField``) is built at the first sum past
    DENSE_MAX targets and kept with the panels."""

    def __init__(self, nodes: np.ndarray):
        self.x_end = float(nodes[-1])
        self.sub_x, self.sub_w = _read_only(panel_points(nodes))
        self.far = None

    def pv(self, sub_s, a: np.ndarray, s_a: np.ndarray) -> np.ndarray:
        """(1/pi) PV int_0^{x_end} s(x)/(x-a) dx via global subtraction,
        given the samples ``sub_s`` of s at the panel points and its
        values ``s_a`` at a."""
        if a.size <= DENSE_MAX:
            out = _subtracted_sum(self.sub_x, self.sub_w, sub_s, a, s_a)
        else:
            if self.far is None:
                self.far = _read_only(_PVFarField(self.sub_x, self.sub_w))
            out = self.far.sum(sub_s, a, s_a)
        out += s_a * np.log((self.x_end - a) / a)
        return out / math.pi


class _GridPlan:
    """What the transforms of exp f on one grid compute from its nodes
    and tail mode alone: the working grid's ``nodes`` and its ``panels``,
    the nodes ``r_nodes`` at which ``HilbertOfExp.r_samples`` forms R, and
    the (Tf)' layout of the last b set (``layout``)."""

    def __init__(self, nodes: np.ndarray, tail_mode: str):
        self.grid = np.array(nodes, dtype=float)  # f's nodes, the plan's key
        self.tail_mode = tail_mode
        self.nodes = _extended_nodes(self.grid, tail_mode)
        self.panels = _Panels(self.nodes)
        t = self.nodes[:-1]
        if tail_mode == HARD_CUTOFF:
            # The truncated-transform integrand develops a sharp ridge where
            # b + R crosses zero; halve the mesh to resolve it.
            t = np.sort(np.concatenate([t, 0.5 * (t[1:] + t[:-1])]))
        self.r_nodes = t
        self._layout = None
        _read_only(self)

    def layout(self, u: np.ndarray, boxes: LogBoxes) -> BoxLayout:
        """The layout of the points u in ``boxes``: the kept one if u is the
        last b set asked for, else a new one kept in its place."""
        kept = self._layout
        if kept is None or kept.boxes != boxes or not np.array_equal(kept.u, u):
            self._layout = None  # dropped before the new layout is built
            self._layout = _read_only(BoxLayout(u, boxes))
        return self._layout


# The plan of the grid the last transform of exp f ran on.
_grid_plan: _GridPlan | None = None


def _plan_of(nodes: np.ndarray, tail_mode: str) -> _GridPlan:
    """The grid plan of f's nodes and the tail mode: the slot's, if it is
    theirs, else a new one, which takes the slot."""
    global _grid_plan
    plan = _grid_plan
    if plan is None or plan.tail_mode != tail_mode or not np.array_equal(plan.grid, nodes):
        _grid_plan = None  # the old plan goes before the new one is built
        _grid_plan = plan = _GridPlan(nodes, tail_mode)
    return plan


def _finite(out: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(out)):
        raise QuadratureError("transform produced non-finite values")
    return out


# A block of members holds, per member, about this many arrays as long as
# the working grid's panel points at once: the panel samples of exp f with
# the Hermite terms they are summed from, and the charges of both kinds.
_PANEL_ARRAYS_PER_MEMBER = 5


def members_per_block(nodes: np.ndarray) -> int:
    """How many members on ``nodes`` to transform as one block in
    power-law mode (``HilbertOfExp`` of a sequence): as many as keep their
    panel-point arrays within the row-block budget of ``quadrature``, and
    at least one."""
    points = 4 * (_extended_nodes(np.asarray(nodes, dtype=float), POWER_LAW_EXTEND).size - 1)
    return max(1, _BLOCK_BYTES // (_PANEL_ARRAYS_PER_MEMBER * 8 * points))


class HilbertOfExp:
    """PV transform of exp(f) for a sampled f, evaluated at many points.

    ``quotient(a)`` returns H_a[exp(f)] / exp(f(a)) and ``r(a, |lam|)``
    the rescaled transform R f(a) built from it; in power-law mode the
    transform is the untruncated one, in hard-cutoff mode the transform
    truncated at the grid cutoff.

    ``f`` is one GridFunction, or a sequence of them on one grid: a block
    of members.  Then every per-member array (the interpolant ``ext``, the
    panel samples ``sub_g``, the tail coefficients and exponents) and
    every result has a leading member axis, one row per member, each with
    the bits of the transform of that member alone.  One GridFunction
    runs the same code without that axis.

    ``ext`` is f on the plan's working grid: in power-law mode, past the
    cutoff, each member's fitted power law, whose tail beyond the grid is
    integrated in closed form; in hard-cutoff mode, each member's
    interpolant at the dyadic refinement toward the cutoff edge.
    """

    def __init__(self, f: GridFunction | Sequence[GridFunction], cfg: QuadratureConfig):
        self.single = isinstance(f, GridFunction)
        members = [f] if self.single else list(f)
        if not members:
            raise ValueError("a block needs at least one member")
        nodes = members[0].nodes
        for g in members:
            g.validate()
            if g.nodes is not nodes and not np.array_equal(g.nodes, nodes):
                raise ValueError("the members of a block live on different node sets")
        self.lambda2 = float(nodes[-1])
        self.plan = plan = _plan_of(nodes, cfg.tail_mode)
        # one entry per member, along a leading axis unless f is one member
        rows = (lambda per_member: np.asarray(per_member[0])) if self.single else np.stack
        values, derivs = rows([g.values for g in members]), rows([g.derivs for g in members])
        self.tail_coeff = self.tail_p = None
        if plan.tail_mode == POWER_LAW_EXTEND:
            exponents = [g.fitted_tail_exponent() for g in members]
            for p in exponents:
                if not p < -1e-6:
                    raise ValueError(
                        "power-law extension requires a decaying tail "
                        f"(fitted exponent {p:.3g}); use hard_cutoff"
                    )
            log_end = math.log1p(self.lambda2)
            self.tail_coeff = rows([
                math.exp(g.values[-1] - p * log_end) for g, p in zip(members, exponents)
            ])
            self.tail_p = p = rows(exponents)
            beyond = plan.nodes[nodes.size :]
            ext_vals = values[..., -1:] + p[..., None] * (np.log1p(beyond) - log_end)
            values = np.concatenate([values, ext_vals], axis=-1)
            derivs = np.concatenate([derivs, p[..., None] / (1.0 + beyond)], axis=-1)
        else:
            edge = plan.nodes[nodes.size - 1 : -1]
            vals, ders = (rows(s) for s in zip(*(g.interpolant.at(edge, True) for g in members)))
            values = np.concatenate([values[..., :-1], vals, values[..., -1:]], axis=-1)
            derivs = np.concatenate([derivs[..., :-1], ders, derivs[..., -1:]], axis=-1)
        self.ext = Interpolant(plan.nodes, values, derivs)
        panels = plan.panels
        self.x_end, self.sub_x, self.sub_w = panels.x_end, panels.sub_x, panels.sub_w
        self.sub_g = np.exp(self.ext.at_fractions(PANEL_FRACTIONS))

    def _result(self, out: np.ndarray, scalar: bool):
        """out as a method returns it: for one GridFunction a float at a
        scalar point."""
        return unwrap(out, scalar) if self.single else out

    def _quotient(self, a: np.ndarray, s_a: np.ndarray) -> np.ndarray:
        """H_a[exp(f)] / exp(f(a)) at points a > 0, given s_a = exp(f(a))."""
        h = self.plan.panels.pv(self.sub_g, a, s_a)
        if self.tail_coeff is not None:
            h += power_law_tail_integral(self.tail_coeff, self.tail_p, a, self.x_end)
        return _finite(h) / s_a

    def quotient(self, a):
        """H_a[exp(f)] / exp(f(a)) at points a in (0, cutoff)."""
        a, scalar = checked(a, "a", 0.0, self.lambda2, "()")
        return self._result(self._quotient(a, np.exp(self.ext.at(a))), scalar)

    def _r(self, a: np.ndarray, abs_lambda: float, f_a: np.ndarray) -> np.ndarray:
        """R f at points a >= 0, given f_a = f(a) (one row per member)."""
        out = np.exp(-f_a)
        inside = a > 0.0
        if abs_lambda != 0.0 and np.any(inside):
            a_in = a[inside]
            # masks on the last axis through .T: numpy's fast path in 1-D
            quot = self._quotient(a_in, np.exp(f_a.T[inside].T))
            out.T[inside] -= (abs_lambda * math.pi * a_in * quot).T
        return out

    def r(self, a, abs_lambda: float, f_a=None):
        """The rescaled transform R f(a) = (1 - |lam| pi a H_a[exp f]) / exp f(a)
        at points a in [0, cutoff).

        Formed as exp(-f(a)) - |lam| pi a * quotient, so no large
        exponentials appear; f is interpolated once per point, unless the
        caller passes its values ``f_a`` at a (one row per member), and
        R f(0) = exp(-f(0)).
        """
        a, scalar = checked(a, "a", 0.0, self.lambda2, "[)")
        f_a = self.ext.at(a) if f_a is None else np.atleast_1d(f_a)
        return self._result(self._r(a, abs_lambda, f_a), scalar)

    def r_samples(self, abs_lambda: float) -> tuple[np.ndarray, np.ndarray]:
        """The plan's R nodes t, which the (Tf)' integral sums over, and R f
        there (one row per member): f is its stored values at the working
        grid's nodes, and its interpolant at the fraction 1/2 of each
        interval at the hard-cutoff midpoints."""
        t, f_t = self.plan.r_nodes, self.ext.values[..., :-1]
        if self.plan.tail_mode == HARD_CUTOFF:
            mids = self.ext.at_fractions([0.5])[..., :-1]
            f_t = np.insert(f_t, np.arange(1, f_t.shape[-1]), mids, axis=-1)
        return t, self._r(t, abs_lambda, f_t)


class SampledPVTransform:
    """Truncated PV transform on [0, X] of functions sampled on fixed nodes.

    Bound to its grid: the panel points and the cubic finite-difference
    stencils that estimate the derivative samples are built once, the
    source plan of the compressed sum at its first sum past DENSE_MAX
    targets, and ``at`` / ``at_zero`` take the samples of each function.
    As for ``HilbertOfExp``, the panel samples are the interpolant at the
    fixed Gauss fractions of each interval, so only the targets are
    located on the grid.  Used for transforming the reconstruction angle.
    """

    def __init__(self, nodes):
        self.nodes = np.asarray(nodes, dtype=float)
        self.panels = panels = _Panels(self.nodes)
        self.x_end, self.sub_x, self.sub_w = panels.x_end, panels.sub_x, panels.sub_w
        # the stencils stencil-major, contiguous in (4, n), for _stencil_sums
        self._fd_idx, self._fd_c = (a.T for a in fd_derivative_coeffs(self.nodes))

    def _extension(self, values) -> Interpolant:
        """The interpolant of the values on the nodes, with their
        finite-difference derivative samples."""
        values = np.asarray(values, dtype=float)
        return Interpolant(self.nodes, values, _stencil_sums(self._fd_idx, self._fd_c, values))

    def at(self, values, *point_sets):
        """Transform of the sampled function at each set of points a in
        (0, X): one result for one set, else a tuple of one per set.

        The samples are formed once for all the sets, and each set is
        summed on its own, so its values have the bits of a call for it
        alone (a dense sum of several sets together would regroup its
        rows in the matrix-vector product, and could cross DENSE_MAX).
        """
        ext = self._extension(values)
        sub_s = ext.at_fractions(PANEL_FRACTIONS)
        out = []
        for a in point_sets:
            a, scalar = checked(a, "a", 0.0, self.x_end, "()")
            s_a = ext.at(a)
            out.append(unwrap(_finite(self.panels.pv(sub_s, a, s_a)), scalar))
        return out[0] if len(out) == 1 else tuple(out)

    def at_zero(self, values) -> float:
        """Transform at a = 0 for functions vanishing at 0 (no pole)."""
        ext = self._extension(values)
        checked(ext.values[0], "s(0)", -1e-12, 1e-12)
        sub_s = ext.at_fractions(PANEL_FRACTIONS)
        return float(_finite(np.sum(self.sub_w * sub_s / self.sub_x)) / math.pi)
