import numpy as np
import pytest

from carlemanfp.farfield import (
    CHEB_POINTS,
    BoxTree,
    LogBoxes,
    charges,
    interpolate_in_boxes,
)


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


class TestChebyshev:
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
        got = interpolate_in_boxes(poly, u, LogBoxes(0.0, 2.0))
        want = poly(u)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
