import numpy as np
import pytest

from carlemanfp.farfield import (
    CHEB_NODES,
    CHEB_POINTS,
    BoxLayout,
    BoxRows,
    BoxTree,
    LogBoxes,
    _chebyshev_terms,
    charges,
)
from carlemanfp.hilbert import _pv_kernel


class TestBoxTree:
    @pytest.mark.parametrize("n_boxes", [1, 2, 3, 5, 8, 13, 61, 64, 91])
    def test_every_source_box_once_and_separated(self, n_boxes):
        tree = BoxTree(LogBoxes(0.0, 1.0), n_boxes)
        for k in range(-4, n_boxes + 4):
            near, below, above = tree.split(k)
            seen = np.zeros(n_boxes, dtype=int)
            seen[near] += 1
            b = min(max(k, -1), n_boxes)
            for side, idx in ((-1, below), (1, above)):
                assert idx.size % CHEB_POINTS == 0
                for box in np.unique(idx // CHEB_POINTS):
                    level = int(np.searchsorted(tree.offsets, box, side="right")) - 1
                    c = int(box - tree.offsets[level])
                    # a box of its own level lies between it and the target
                    assert side * (c - (b >> level)) >= 2
                    seen[c << level : (c + 1) << level] += 1
            assert np.all(seen == 1), (n_boxes, k)

    def test_upward_charges_equal_direct_ones(self, rng):
        u = np.sort(rng.uniform(0.0, 7.3, 500))
        q = rng.normal(size=(2, u.size))
        boxes = LogBoxes(0.0, 1.0)
        k = boxes.index(u)
        tree = BoxTree(boxes, int(k[-1]) + 1)
        level0 = charges(boxes.local(u, k), np.searchsorted(k, np.arange(k[-1] + 2)), q)
        merged = tree.upward(level0)
        for level, n in enumerate(tree.counts):
            coarse = LogBoxes(0.0, 2.0**level)
            kl = coarse.index(u)
            direct = charges(coarse.local(u, kl), np.searchsorted(kl, np.arange(n + 1)), q)
            part = merged[:, tree.offsets[level] : tree.offsets[level + 1]]
            assert np.allclose(part, direct, rtol=0.0, atol=1e-12)


def generated_chebyshev_terms(x):
    """The recurrence one term at a time, each a new array: the reference
    for the rows filled in place."""
    prev, cur = np.ones_like(x), x
    yield prev
    yield cur
    for _ in range(2, CHEB_POINTS):
        prev, cur = cur, 2.0 * x * cur - prev
        yield cur


class TestChebyshev:
    @pytest.mark.parametrize("n", [0, 1, 2318])
    def test_terms_in_place_have_the_bits_of_the_recurrence(self, rng, n):
        x = rng.uniform(-1.0, 1.0, n)
        want = np.array(list(generated_chebyshev_terms(x)))
        assert np.array_equal(_chebyshev_terms(x), want)

    def test_charges_move_polynomials_exactly(self, rng):
        # sum over sources of q p(x) = sum_l charge_l p(node_l) for every
        # polynomial p of degree below CHEB_POINTS
        boxes = LogBoxes(0.0, 1.0)
        u = np.sort(rng.uniform(0.0, 3.0, 200))
        q = rng.normal(size=(1, u.size))
        k = boxes.index(u)
        got = charges(boxes.local(u, k), np.searchsorted(k, np.arange(4)), q)[0]
        poly = np.polynomial.Polynomial(rng.normal(size=CHEB_POINTS))
        want = np.bincount(k, weights=q[0] * poly(u), minlength=3)
        proxies = boxes.proxies(np.arange(3))
        assert np.allclose(np.sum(got * poly(proxies), axis=1), want, rtol=1e-12)

    def test_interpolation_is_exact_for_polynomials(self, rng):
        coef = rng.normal(size=CHEB_POINTS)
        poly = np.polynomial.Chebyshev(coef, domain=[0.0, 8.0])
        u = rng.uniform(0.0, 8.0, 300)  # four whole boxes
        got = BoxLayout(u, LogBoxes(0.0, 2.0)).interpolate(poly)
        want = poly(u)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def tree_charges(u, q, boxes):
    """Charges of every level for sources at u, and the tree."""
    k = boxes.index(u)
    tree = BoxTree(boxes, int(k[-1]) + 1)
    level0 = charges(boxes.local(u, k), np.searchsorted(k, np.arange(k[-1] + 2)), q)
    return tree, tree.upward(level0)


class TestDownward:
    def test_l2l_moves_polynomials_exactly(self, rng):
        # a kernel that is a polynomial of degree below CHEB_POINTS in the
        # target's position: the field of every level reaches level 0
        # through L2L alone, which must carry it without error
        coef = rng.normal(size=CHEB_POINTS) / 4.0 ** np.arange(CHEB_POINTS)
        poly = np.polynomial.Polynomial(coef)
        boxes = LogBoxes(0.0, 1.0)
        u = np.sort(rng.uniform(0.0, 37.0, 400))
        q = rng.normal(size=(2, u.size))
        tree, up = tree_charges(u, q, boxes)
        # only the coarse levels carry charges
        up[:, : tree.offsets[3]] = 0.0
        m2l = tree.translations(lambda du: poly(du / 40.0))
        local = tree.downward(up, m2l)
        # direct: every source reached through a level >= 3 list
        targets = boxes.proxies(np.arange(tree.n_boxes))
        want = np.zeros((2, tree.n_boxes, CHEB_POINTS))
        flat = up.reshape(2, -1)
        for b in range(tree.n_boxes):
            _, below, above = tree.split(b)
            for kind, idx in ((0, below), (1, above)):
                idx = idx[idx >= tree.offsets[3] * CHEB_POINTS]
                src = source_proxies(tree, boxes, idx)
                kernel = poly((src[:, None] - targets[b][None, :]) / 40.0)
                want[kind, b] = kernel.T @ flat[kind, idx]
        assert np.allclose(local, want, rtol=0.0, atol=1e-10 * np.abs(want).max())

    def test_m2l_matrices_equal_the_kernel_between_proxies(self):
        # the PV kernel depends on log(xi/a) alone, so one matrix per level
        # and offset serves every box pair, wherever it sits in x
        boxes = LogBoxes(-4.0, 0.3)
        tree = BoxTree(boxes, 40)
        m2l = tree.translations(_pv_kernel)
        for level, n in enumerate(tree.counts):
            coarse = LogBoxes(boxes.u0, boxes.width * 2**level)
            for d, mat in m2l[level].items():
                for b in (0, n // 2, n - 1):
                    if not 0 <= b + d < n:
                        continue
                    xi = np.exp(coarse.proxies(np.array([b + d])))[0]
                    a = np.exp(coarse.proxies(np.array([b])))[0]
                    # xi/(xi - a) - 1 above the target, a/(xi - a) + 1 below,
                    # written without the cancelling 1
                    kernel = (a[None, :] if d > 0 else xi[:, None]) / (xi[:, None] - a[None, :])
                    assert np.allclose(mat, kernel, rtol=1e-12, atol=0.0), (level, d, b)

    def test_local_expansions_match_the_direct_far_field(self, rng):
        # the PV kernel: downward + L2P against the sum over every source
        # outside the target's three boxes, each kernel taken exactly
        boxes = LogBoxes(0.0, 0.4)
        u = np.sort(rng.uniform(0.0, 30.0, 3000))
        q = rng.uniform(0.5, 1.0, size=(2, u.size))
        tree, up = tree_charges(u, q, boxes)
        local = tree.downward(up, tree.translations(_pv_kernel))
        v = rng.uniform(0.0, tree.n_boxes * boxes.width, 200)
        k = boxes.index(v)
        got = BoxRows(k, boxes.local(v, k), sets=2).evaluate(local)
        box = boxes.index(u)
        for i in range(v.size):
            far = np.abs(box - k[i]) >= 2
            du = u[far] - v[i]
            kind = (du > 0).astype(int)
            want = [np.sum(q[j, far][kind == j] * _pv_kernel(du[kind == j])) for j in (0, 1)]
            assert np.allclose(got[:, i], want, rtol=1e-13, atol=1e-13), i


def source_proxies(tree, boxes, idx):
    """u at the Chebyshev points behind flattened charge indices."""
    box, l = np.divmod(idx, CHEB_POINTS)
    level = np.searchsorted(tree.offsets, box, side="right") - 1
    c = box - tree.offsets[level]
    width = boxes.width * 2.0**level
    return boxes.u0 + width * (c + 0.5 * (1.0 + CHEB_NODES[l]))
