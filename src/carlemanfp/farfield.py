"""Log-scale far-field compression of the two O(N^2) sums.

Every application of the fixed-point map runs two dense sums: the PV
transform behind R f (``hilbert._Panels.pv``) and the (Tf)' integral
(``TOperator.derivative``).  Between points a box or more apart in log
scale both kernels are smooth, so of low numerical rank, and the far
field can be carried by a few Chebyshev points per box (the black-box
fast multipole method of Fong & Darve, J. Comput. Phys. 228 (2009) 8712;
Hackbusch, *Hierarchical Matrices*, Springer 2015).  This module holds
what both sums share: equal boxes in a log variable, their merger into a
binary tree, and the Lagrange basis on each box's Chebyshev points, used
both ways -- to gather sources into charges at the points and to
interpolate values from them.  Both go through the Chebyshev expansion
of the basis and the three-term recurrence, so no points-by-basis matrix
is formed.

The tree runs both passes of the method.  Upward, the charges of two
boxes merge into those of their parent (M2M).  Downward, each box turns
the charges of its interaction list into values at its own Chebyshev
points (M2L: one matrix per level and offset, for kernels of the log
distance alone) and passes the sum, interpolated, on to its children
(L2L); the values of a level-0 box are its local expansion, evaluated at
each target by interpolation (L2P).  Every target then costs O(p) far
field, p = CHEB_POINTS, whatever the number of sources.

With at most ``DENSE_MAX`` targets the compression does not pay and both
sums run dense; the callers pick the path from the input alone.

The target side is planned once per point set: ``BoxRows`` holds the
Lagrange rows of a set of points, and a ``BoxLayout`` the layout of
points to interpolate at (their boxes, the Chebyshev points of those
boxes and the rows).  This module keeps no plan: the caller that owns
the points keeps their layout (``hilbert``'s grid plan keeps the (Tf)'
layout of the last b set), so an interpolation at the same points
evaluates only its function at the Chebyshev points and the sums of the
rows.  The sources' Chebyshev terms are recomputed by each ``charges``
call, three rows at a time: kept, they would take 160 bytes per source.

The charges, both tree passes and ``BoxRows.evaluate`` take leading axes
before the kind axis, one per member of a block of sampled functions on
the same sources (``hilbert.HilbertOfExp`` of a sequence): the members
share the Chebyshev terms of the sources and every Python-level step, and
each matrix product runs on one member's rows, as it does for that member
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import row_blocks

# Chebyshev points per box.  Seen from a target one box away, the nearest
# singularity of either kernel lies on the Bernstein ellipse of parameter
# 3 + sqrt(8) or beyond.  With 20 points the compressed sums agree with the
# dense ones to the spread between two column orders of the dense sum
# (PV: 7e-15 against 1.2e-14 on an oscillating sampled function; (Tf)':
# at most 2.3 times the spread on random domain members); 16 points left
# 7 and 18 times that spread.
CHEB_POINTS = 20

# Sums with at most this many targets run dense.  At 2000 nodes the
# compressed PV sum overtook the dense one between 256 and 384 targets
# and the (Tf)' interpolation at about 190; a whole grid has 438 targets
# or more (400 nodes, hard cutoff), a pointwise probe at most 30.
DENSE_MAX = 256

_M = np.arange(CHEB_POINTS)
_THETA = (2.0 * _M + 1.0) * math.pi / (2.0 * CHEB_POINTS)
CHEB_NODES = np.cos(_THETA)                     # first kind, inside (-1, 1)
# L_l(x) = sum_m _EXPAND[m, l] T_m(x): the Lagrange basis on CHEB_NODES in
# Chebyshev polynomials, by their discrete orthogonality on these points.
_EXPAND = np.where(_M == 0, 1.0, 2.0)[:, None] / CHEB_POINTS * np.cos(
    np.outer(_M, _THETA)
)


def _chebyshev_rows(x: np.ndarray):
    """T_0(x), ..., T_{p-1}(x) by the three-term recurrence, one at a time:
    each yielded array is overwritten two steps later, so the recurrence
    holds three of them whatever p."""
    prev, cur, nxt = np.ones_like(x), np.array(x, dtype=float), np.empty_like(x)
    two_x = 2.0 * x
    yield prev
    yield cur
    for _ in range(2, CHEB_POINTS):
        np.multiply(two_x, cur, out=nxt)
        nxt -= prev
        prev, cur, nxt = cur, nxt, prev
        yield cur


def _chebyshev_terms(x: np.ndarray) -> np.ndarray:
    """T_0(x), ..., T_{p-1}(x), one row each."""
    out = np.empty((CHEB_POINTS,) + x.shape)
    for m, t in enumerate(_chebyshev_rows(x)):
        out[m] = t
    return out


@dataclass(frozen=True)
class LogBoxes:
    """Boxes [u0 + k w, u0 + (k+1) w) of equal width w in a log variable u."""

    u0: float
    width: float

    def index(self, u: np.ndarray) -> np.ndarray:
        return np.floor((u - self.u0) / self.width).astype(np.intp)

    def local(self, u: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Position of u within its box k, mapped onto [-1, 1]."""
        return 2.0 * ((u - self.u0) / self.width - k) - 1.0

    def proxies(self, k: np.ndarray) -> np.ndarray:
        """u at the Chebyshev points of boxes k, one row per box."""
        return self.u0 + self.width * (k[:, None] + 0.5 * (1.0 + CHEB_NODES))


def _lagrange_rows(y: np.ndarray) -> np.ndarray:
    """L_l(y) for the points y in [-1, 1], one row per point."""
    return _chebyshev_terms(y).T @ _EXPAND


# Right factors taking the charges of the lower and upper half of a box to
# charges of the whole box: the half's Chebyshev point x sits at (x -+ 1)/2
# of the box, and L_m of the box is a polynomial the half's basis carries
# exactly.
_TO_PARENT = (
    _lagrange_rows(0.5 * (CHEB_NODES - 1.0)),
    _lagrange_rows(0.5 * (CHEB_NODES + 1.0)),
)


# The interaction list of a box b of one level: the boxes b + d of that
# level two or three boxes away whose parents are b's parent or one of its
# neighbours.  The sign of d says whether the sources lie below or above.
_FAR_OFFSETS = ((-2, 2, 3), (-3, -2, 2))   # for even b, for odd b


class BoxTree:
    """The boxes of a layout merged pairwise, level by level, for sums of
    a kernel that is smooth between boxes one box apart at every level.

    Box k of level l spans boxes k 2^l .. (k+1) 2^l - 1 of level 0.  A
    target in level-0 box k sums boxes k-1 .. k+1 densely; every other
    source is reached exactly once, through the charges of the coarsest
    box that still has a box of its own level between it and the target
    (the interaction lists of the fast multipole method).  ``split`` lists
    them for one target; ``downward`` gathers them for every level-0 box
    at once, into local expansions passed down the tree.
    """

    def __init__(self, boxes: LogBoxes, n_boxes: int):
        self.n_boxes = n_boxes
        self.width = boxes.width
        self.counts = [n_boxes]
        while self.counts[-1] > 1:
            self.counts.append((self.counts[-1] + 1) // 2)
        self.offsets = np.concatenate([[0], np.cumsum(self.counts)])

    def upward(self, level0: np.ndarray) -> np.ndarray:
        """Charges [..., kind, box, l] of every box of every level, level by
        level from 0 (box k of level l at offsets[l] + k), from those of
        level 0."""
        out = np.empty(level0.shape[:-2] + (self.offsets[-1], CHEB_POINTS))
        out[..., : self.n_boxes, :] = level0
        for level, n in enumerate(self.counts[1:]):
            child = out[..., self.offsets[level] : self.offsets[level + 1], :]
            if child.shape[-2] % 2:
                child = np.concatenate([child, np.zeros_like(child[..., :1, :])], axis=-2)
            out[..., self.offsets[level + 1] : self.offsets[level + 1] + n, :] = (
                child[..., 0::2, :] @ _TO_PARENT[0] + child[..., 1::2, :] @ _TO_PARENT[1]
            )
        return out

    def split(self, k: int) -> tuple[slice, np.ndarray, np.ndarray]:
        """What a target in level-0 box k sums: the level-0 boxes it sums
        densely, and the indices of the charges of the boxes below it and
        of those above it in the [box, l] charges of ``upward``, flattened.
        A k below -1 or beyond the last box acts as -1 or the last box + 1."""
        b = min(max(k, -1), self.n_boxes)
        near = slice(max(b - 1, 0), min(b + 2, self.n_boxes))
        below, above = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
        for level, n in enumerate(self.counts):
            if b - 1 <= 0 and b + 1 >= n - 1:
                break
            for d in _FAR_OFFSETS[b % 2]:
                if 0 <= b + d < n:
                    first = (self.offsets[level] + b + d) * CHEB_POINTS
                    (below if d < 0 else above).append(first + _M)
            b //= 2
        return near, np.concatenate(below), np.concatenate(above)

    def translations(self, kernel) -> list[dict[int, np.ndarray]]:
        """Per level, the right factors M_d that take the charges of box
        b + d to the values at box b's Chebyshev points, one for each
        offset of an interaction list: Q_{b+d} @ M_d, with
        M_d[l, m] = kernel(u_l - u_m) for the source proxy u_l and the
        target proxy u_m.  The kernel depends on the proxies through
        their difference only, so one matrix serves a whole level."""
        out = []
        for level in range(len(self.counts)):
            width = self.width * 2**level
            out.append({
                d: kernel(width * (d + 0.5 * (CHEB_NODES[:, None] - CHEB_NODES[None, :])))
                for d in (-3, -2, 2, 3)
            })
        return out

    def downward(self, q: np.ndarray, m2l: list[dict[int, np.ndarray]]) -> np.ndarray:
        """Local expansions [..., kind, box, m] of every level-0 box: the
        field at its Chebyshev points of every source outside its three
        boxes.

        ``q`` holds the charges [..., kind, box, l] of ``upward``; kind 0
        is summed from the boxes below a target, kind 1 from those above,
        through the factors of ``translations``.  Each level adds its
        interaction lists to what its parent passes down, interpolated at
        the children's points (exact: the parent's field is a polynomial
        of degree below CHEB_POINTS)."""
        lead = q.shape[:-3]
        loc = np.zeros(lead + (2, 1, CHEB_POINTS))  # above the root: no field
        for level in reversed(range(len(self.counts))):
            n = self.counts[level]
            src = q[..., self.offsets[level] : self.offsets[level + 1], :]
            here = np.zeros(lead + (2, n, CHEB_POINTS))
            here[..., 0::2, :] = loc[..., : (n + 1) // 2, :] @ _TO_PARENT[0].T
            here[..., 1::2, :] = loc[..., : n // 2, :] @ _TO_PARENT[1].T
            for d, mat in m2l[level].items():
                # the targets b with b + d in range and d in b's list
                # (_FAR_OFFSETS): every b for d = +-2, even b for 3, odd
                # b for -3
                lo, hi, step = max(-d, 0), n - max(d, 0), 1 if abs(d) == 2 else 2
                if lo < hi:
                    kind = int(d > 0)
                    here[..., kind, lo:hi:step, :] += src[..., kind, lo + d : hi + d : step, :] @ mat
            loc = here
        return loc


def charges(x: np.ndarray, starts: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Charges [..., kind, box, l] = sum over the sources of the box of
    q L_l(x).

    The sources are sorted by box: box J holds sources starts[J] ..
    starts[J+1]-1, and ``x`` is each one's local position in its box.
    ``q`` has one row per kind of charge, and any leading axes (one per
    member of a block), which share the Chebyshev terms of the sources.
    """
    held = starts[:-1] < starts[1:]
    first = starts[:-1][held]
    moments = np.empty((CHEB_POINTS,) + q.shape[:-1] + first.shape)
    qt = np.empty_like(q)
    for m, t in enumerate(_chebyshev_rows(x)):
        np.multiply(q, t, out=qt)
        np.add.reduceat(qt, first, axis=-1, out=moments[m])
    held_charges = np.moveaxis(moments, 0, -1) @ _EXPAND
    del moments
    if held.all():
        return held_charges
    out = np.zeros(q.shape[:-1] + (starts.size - 1, CHEB_POINTS))
    out[..., held, :] = held_charges
    return out


class BoxRows:
    """Points of local position y in their boxes k, with the Lagrange rows
    L_l(y) there: ``evaluate(v)`` interpolates values v[..., box, l] given
    at the Chebyshev points of each box, sum_l v[..., k, l] L_l(y) per
    point.  The rows are built once, in row blocks that hold them and the
    values gathered for ``sets`` such sums per point within the cache
    budget; ``evaluate`` goes over the same blocks, or over smaller ones
    for more sums at once (the members of a block)."""

    def __init__(self, k: np.ndarray, y: np.ndarray, sets: int):
        self.k = k
        self.sets = sets
        self.rows = np.empty(y.shape + (CHEB_POINTS,))
        for blk in row_blocks(y.size, 8 * CHEB_POINTS * (sets + 4)):
            self.rows[blk] = _lagrange_rows(y[blk])

    def evaluate(self, v: np.ndarray) -> np.ndarray:
        out = np.empty(v.shape[:-2] + self.k.shape)
        sets = max(math.prod(v.shape[:-2]), self.sets)
        for blk in row_blocks(self.k.size, 8 * CHEB_POINTS * (sets + 4)):
            gathered = v.take(self.k[blk], axis=-2)  # faster than v[..., k, :]
            out[..., blk] = np.einsum("...pl,pl->...p", gathered, self.rows[blk])
        return out


class BoxLayout:
    """Points u in the boxes of ``boxes``: the Chebyshev points of the
    boxes that hold them, and u's Lagrange rows there.  ``interpolate(fn)``
    is fn at every point of u, interpolated from fn at those Chebyshev
    points; fn must be analytic around each box."""

    def __init__(self, u: np.ndarray, boxes: LogBoxes):
        self.u = np.array(u, dtype=float)
        self.boxes = boxes
        k = boxes.index(u)
        occupied, slot = np.unique(k, return_inverse=True)
        self.proxies = boxes.proxies(occupied).ravel()
        self.rows = BoxRows(slot, boxes.local(u, k), sets=1)

    def interpolate(self, fn) -> np.ndarray:
        return self.rows.evaluate(fn(self.proxies).reshape(-1, CHEB_POINTS))
