"""Blocks of members through R and T.

``HilbertOfExp`` and ``TOperator.apply`` take a sequence of members on
one grid as one block, with one leading member axis through the panel
samples, the PV sum and the 2F1 tail.  Every result must have the bits
of the same transform of its member alone, the verify suites must give
the reports of one-member blocks, and a block must stay small in memory.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from carlemanfp import specfun, verification
from carlemanfp.coupling import Coupling
from carlemanfp.farfield import DENSE_MAX
from carlemanfp.grids import (
    HARD_CUTOFF,
    QuadratureConfig,
    log_envelope_function,
    make_nodes,
    random_klambda,
)
from carlemanfp.hilbert import HilbertOfExp, members_per_block
from carlemanfp.operators import TOperator
from carlemanfp.verification import run_suites

NODES = make_nodes(verification.SUITE_NODES, 1e6)
CFG = QuadratureConfig(n_nodes=verification.SUITE_NODES, lambda2=1e6)
COUPLING = Coupling(-1.0 / (2.0 * math.pi))


def random_members(count: int, seed: int = 7) -> list:
    rng = np.random.default_rng(seed)
    return [random_klambda(COUPLING, NODES, rng) for _ in range(count)]


def image_members() -> list:
    # tails from -0.5 to -0.99 and random ones: the log series of their
    # 2F1 tails run 51 to 56 terms at the R nodes
    envelopes = [log_envelope_function(NODES, p) for p in (-0.5, -0.99, -0.7)]
    return [m for pair in zip(envelopes, random_members(3)) for m in pair] + random_members(3, 8)


def r_members() -> list:
    # tails from -0.1 to -0.99: the Gauss series differ in length too
    envelopes = [log_envelope_function(NODES, p) for p in (-0.1, -0.99, -0.35, -0.6)]
    return envelopes + random_members(5, 9)


@pytest.fixture
def series_lengths(monkeypatch):
    """The lengths of the coefficient lists each 2F1 series of a block
    pads to one array, by series."""
    lengths = {}
    padded = specfun._columns

    def spy(rows):
        series = sys._getframe(1).f_code.co_name
        lengths.setdefault(series, []).append([len(row) for row in rows])
        return padded(rows)

    monkeypatch.setattr(specfun, "_columns", spy)
    return lengths


def differ(calls) -> bool:
    return any(len(set(call)) > 1 for call in calls)


@pytest.mark.parametrize("size", [1, 2, 4, 5, 9])
def test_block_images_are_those_of_each_member(size, series_lengths):
    op = TOperator(COUPLING, CFG)
    members = image_members()[:size]
    alone = [op.apply(f) for f in members]
    series_lengths.clear()
    block = op.apply(members)
    assert len(block) == size
    for one, blocked in zip(alone, block):
        assert np.array_equal(one.values, blocked.values)
        assert np.array_equal(one.derivs, blocked.derivs)
    if size >= 2:
        assert differ(series_lengths["_log_series"])


@pytest.mark.parametrize("size", [1, 2, 4, 5, 9])
def test_block_r_values_are_those_of_each_member(size, series_lengths):
    # the 26 probes of prop4 sum densely, the R nodes of rf_cache through
    # the far field, and their z span both series of the 2F1 tail
    members = r_members()[:size]
    probes = np.concatenate([[0.0], np.geomspace(1e-2, 9e5, 25)])
    r_nodes = HilbertOfExp(members[0], CFG).plan.r_nodes
    assert r_nodes.size > DENSE_MAX
    al = COUPLING.abs_lambda
    alone = [[HilbertOfExp(f, CFG).r(a, al, allow_extension=True) for f in members]
             for a in (probes, r_nodes)]
    series_lengths.clear()
    for a, rows in zip((probes, r_nodes), alone):
        block = HilbertOfExp(members, CFG).r(a, al, allow_extension=True)
        assert block.shape == (size, a.size)
        for one, row in zip(rows, block):
            assert np.array_equal(one, row)
    if size >= 2:
        assert differ(series_lengths["_gauss_series"])
        assert differ(series_lengths["_log_series"])


def test_hard_cutoff_block_is_that_of_each_member():
    cfg = QuadratureConfig(n_nodes=verification.SUITE_NODES, lambda2=1e6,
                           tail_mode=HARD_CUTOFF)
    members = random_members(5)
    a = np.geomspace(1e-3, 9e5, 300)
    block = HilbertOfExp(members, cfg).quotient(a)
    for f, row in zip(members, block):
        assert np.array_equal(HilbertOfExp(f, cfg).quotient(a), row)


def test_a_block_needs_one_grid():
    other = random_klambda(COUPLING, make_nodes(500, 1e6), np.random.default_rng(0))
    with pytest.raises(ValueError, match="different node sets"):
        HilbertOfExp(random_members(1) + [other], CFG)
    with pytest.raises(ValueError, match="at least one member"):
        HilbertOfExp([], CFG)


@pytest.mark.parametrize("seed, count", [(0, 10), (1, 10), (2, 10), (3, 3)],
                         ids=["0", "1", "2", "partial-blocks"])
def test_suites_give_the_reports_of_one_member_blocks(seed, count, monkeypatch):
    # 3 pairs and 3 members end each coupling on a partial block: 4 + 2
    # members, and 3
    suites = ["prop4", "prop5", "equicont"]
    settings = dict(seed=seed, n_pairs=count, n_members=count)
    assert verification.MEMBER_BLOCK > 1
    blocked = run_suites(suites, **settings)
    monkeypatch.setattr(verification, "MEMBER_BLOCK", 1)
    alone = run_suites(suites, **settings)
    assert [r.to_dict() for r in blocked] == [r.to_dict() for r in alone]


def peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_full_block_stays_within_a_megabyte_of_one_member():
    # the block is sized from bytes; a larger one would raise the peak
    # memory of verify, whose transient arrays are these
    block = verification.MEMBER_BLOCK
    assert block == members_per_block(NODES) >= 2
    members = random_members(block)
    op = TOperator(COUPLING, CFG)
    op.apply(members[0])  # the grid's plans, kept for both
    one = peak_bytes(lambda: op.apply(members[0]))
    full = peak_bytes(lambda: op.apply(members))
    assert full - one <= 1_000_000, (one, full)
