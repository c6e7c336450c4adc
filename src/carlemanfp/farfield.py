"""Log-scale far-field compression of the two O(N^2) sums.

Every application of the fixed-point map runs two dense sums: the PV
transform behind R f (``hilbert._pv``) and the (Tf)' integral
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

With at most ``DENSE_MAX`` targets the compression does not pay and both
sums run dense; the callers pick the path from the input alone.
"""

from __future__ import annotations

import math

import numpy as np

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


def _chebyshev_terms(x: np.ndarray):
    """T_0(x), ..., T_{p-1}(x) by the three-term recurrence."""
    prev, cur = np.ones_like(x), x
    yield prev
    yield cur
    for _ in range(2, CHEB_POINTS):
        prev, cur = cur, 2.0 * x * cur - prev
        yield cur


class LogBoxes:
    """Boxes [u0 + k w, u0 + (k+1) w) of equal width w in a log variable u."""

    def __init__(self, u0: float, width: float):
        self.u0 = u0
        self.width = width

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
    return np.column_stack(list(_chebyshev_terms(y))) @ _EXPAND


# Right factors taking the charges of the lower and upper half of a box to
# charges of the whole box: the half's Chebyshev point x sits at (x -+ 1)/2
# of the box, and L_m of the box is a polynomial the half's basis carries
# exactly.
_TO_PARENT = (
    _lagrange_rows(0.5 * (CHEB_NODES - 1.0)),
    _lagrange_rows(0.5 * (CHEB_NODES + 1.0)),
)


class BoxTree:
    """The boxes of a layout merged pairwise, level by level, for sums of
    a kernel that is smooth between boxes one box apart at every level.

    Box k of level l spans boxes k 2^l .. (k+1) 2^l - 1 of level 0.  A
    target in level-0 box k sums boxes k-1 .. k+1 densely; every other
    source is reached exactly once, through the charges of the coarsest
    box that still has a box of its own level between it and the target
    (the interaction lists of the fast multipole method).
    """

    def __init__(self, boxes: LogBoxes, n_boxes: int):
        self.n_boxes = n_boxes
        self.counts = [n_boxes]
        while self.counts[-1] > 1:
            self.counts.append((self.counts[-1] + 1) // 2)
        self.offsets = np.concatenate([[0], np.cumsum(self.counts)])
        self.proxies = np.concatenate([
            LogBoxes(boxes.u0, boxes.width * 2**level).proxies(np.arange(n)).ravel()
            for level, n in enumerate(self.counts)
        ])

    def upward(self, level0: np.ndarray) -> np.ndarray:
        """Charges [kind, box, l] of every box of every level, the boxes in
        the order of ``proxies``, from those of level 0."""
        levels = [level0]
        for _ in self.counts[1:]:
            child = levels[-1]
            if child.shape[1] % 2:
                child = np.concatenate([child, np.zeros_like(child[:, :1])], axis=1)
            levels.append(child[:, 0::2] @ _TO_PARENT[0] + child[:, 1::2] @ _TO_PARENT[1])
        return np.concatenate(levels, axis=1)

    def split(self, k: int) -> tuple[slice, np.ndarray, np.ndarray]:
        """What a target in level-0 box k sums: the level-0 boxes it sums
        densely, and the indices into ``proxies`` of the charges of the
        boxes below it and of those above it.  A k below -1 or beyond the
        last box acts as -1 or the last box + 1."""
        b = min(max(k, -1), self.n_boxes)
        near = slice(max(b - 1, 0), min(b + 2, self.n_boxes))
        below, above = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
        for level, n in enumerate(self.counts):
            if b - 1 <= 0 and b + 1 >= n - 1:
                break
            parent = b // 2
            for c in range(max(2 * parent - 2, 0), min(2 * parent + 4, n)):
                if abs(c - b) >= 2:
                    first = (self.offsets[level] + c) * CHEB_POINTS
                    (below if c < b else above).append(first + _M)
            b = parent
        return near, np.concatenate(below), np.concatenate(above)


def charges(x: np.ndarray, starts: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Charges [kind, box, l] = sum over the sources of the box of q L_l(x).

    The sources are sorted by box: box J holds sources starts[J] ..
    starts[J+1]-1, and ``x`` is each one's local position in its box.
    ``q`` has one row per kind of charge.
    """
    held = starts[:-1] < starts[1:]
    moments = np.zeros((q.shape[0], starts.size - 1, CHEB_POINTS))
    for m, t in enumerate(_chebyshev_terms(x)):
        moments[:, held, m] = np.add.reduceat(q * t, starts[:-1][held], axis=1)
    return moments @ _EXPAND


def interpolate_in_boxes(fn, u: np.ndarray, boxes: LogBoxes) -> np.ndarray:
    """fn at every point of u, interpolated from fn at the Chebyshev
    points of the boxes that hold u; fn must be analytic around each box."""
    k = boxes.index(u)
    occupied, slot = np.unique(k, return_inverse=True)
    values = fn(boxes.proxies(occupied).ravel()).reshape(occupied.size, CHEB_POINTS)
    coeffs = values @ _EXPAND.T
    out = np.zeros_like(u)
    for m, t in enumerate(_chebyshev_terms(boxes.local(u, k))):
        out += coeffs[slot, m] * t
    return out
