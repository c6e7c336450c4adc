"""Grid plans: the grid-invariant work of an operator application, kept
per grid while the grid recurs.  Reusing a plan must not move a bit, serve
another grid's or target set's data, grow without bound, or let a caller
write into a shared array."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlemanfp import farfield, grids, hilbert, operators, plans, quadrature, solver
from carlemanfp.coupling import Coupling
from carlemanfp.gab import TwoPointReconstruction
from carlemanfp.grids import HARD_CUTOFF, QuadratureConfig, make_nodes, random_klambda
from carlemanfp.hilbert import HilbertOfExp
from carlemanfp.operators import TOperator
from carlemanfp.solver import SolverConfig

MODULES = (quadrature, farfield, hilbert, operators, grids, solver)


def plan_caches() -> dict:
    """Every plan cache of the package, by module and name."""
    return {
        f"{m.__name__}.{name}": value
        for m in MODULES
        for name, value in vars(m).items()
        if isinstance(value, (plans.PlanCache, plans.RecurringPlan))
    }


def stored_plans(cache) -> list:
    if isinstance(cache, plans.PlanCache):
        return list(cache._plans.values())
    return [] if cache._plan is None else [cache._plan]


def clear_plans() -> None:
    for cache in plan_caches().values():
        cache.clear()


@pytest.fixture(autouse=True)
def fresh_plans():
    clear_plans()
    yield
    clear_plans()


def arrays_in(obj):
    """Every array a plan holds, at any depth."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for part in obj:
            yield from arrays_in(part)
    elif isinstance(obj, dict):
        for part in obj.values():
            yield from arrays_in(part)
    elif hasattr(obj, "__dict__"):
        for part in vars(obj).values():
            yield from arrays_in(part)


def test_every_cache_is_found():
    # the plans of the working grid, the PV sum and the (Tf)' sum
    assert set(plan_caches()) == {
        "carlemanfp.quadrature._panel_plans",
        "carlemanfp.quadrature._composite_plans",
        "carlemanfp.quadrature._weight_cache",
        "carlemanfp.farfield._layouts",
        "carlemanfp.hilbert._working_grids",
        "carlemanfp.hilbert._plans",
        "carlemanfp.hilbert._targets",
    }


@pytest.mark.parametrize("tail_mode", ["power_law_extend", HARD_CUTOFF])
def test_applications_keep_their_bits(fig_coupling, rng, tail_mode):
    # cold (nothing kept), second (plans stored), reused, and cold again
    # after every cache is cleared: the same bits each time
    nodes = make_nodes(400, 1e6)
    cfg = QuadratureConfig(n_nodes=400, lambda2=1e6, tail_mode=tail_mode)
    op = TOperator(fig_coupling, cfg)
    f = random_klambda(fig_coupling, nodes, rng)
    images = [op.apply(f, require_positive=False) for _ in range(3)]
    assert len(hilbert._targets) == 1
    clear_plans()
    images.append(op.apply(f, require_positive=False))
    for image in images[1:]:
        assert np.array_equal(image.values, images[0].values)
        assert np.array_equal(image.derivs, images[0].derivs)


def test_second_target_set_is_not_served_stale_data(fig_coupling, rng):
    # two target sets on one panel grid, each kept in turn: every transform
    # and (Tf)' sum equals its own cold value, not the other set's
    nodes = make_nodes(400, 1e6)
    cfg = QuadratureConfig(n_nodes=400, lambda2=1e6)
    he = HilbertOfExp(random_klambda(fig_coupling, nodes, rng), cfg)
    a_sets = [np.geomspace(1e-2, 1e5, 400), np.geomspace(3e-2, 3e5, 400)]
    op = TOperator(fig_coupling, cfg)
    cache = op.rf_cache(random_klambda(fig_coupling, nodes, rng))
    b_sets = [nodes, np.geomspace(1e-3, 9e5, 300)]
    cold = []
    for a, b in zip(a_sets, b_sets):
        cold.append((he.quotient(a), op.derivative(cache, b)))
        clear_plans()
    for _ in range(2):
        for a, b, (want_a, want_b) in zip(a_sets, b_sets, cold):
            for _ in range(3):  # built, built and kept, reused
                assert np.array_equal(he.quotient(a), want_a)
                assert np.array_equal(op.derivative(cache, b), want_b)
            (kept_a,) = stored_plans(hilbert._targets)
            (kept_b,) = stored_plans(farfield._layouts)
            assert kept_a.inside.size == a.size and kept_b[1].k.size == b.size


def test_reconstructions_end_the_solve_plans(fig_coupling):
    # the t-grid weights and the (Tf)' layout of a solve serve its working
    # grid; reconstructions, on their own hard-cutoff working grid, end
    # that grid's run and keep neither
    res = solver.solve(
        SolverConfig(coupling=fig_coupling, lambda2=1e6, n_nodes=400, tol_lb=1e-6)
    )
    assert len(quadrature._composite_plans) == len(farfield._layouts) == 1
    grid = np.geomspace(1e-2, 1e2, 4)
    for _ in range(3):
        TwoPointReconstruction(res.grid_function, fig_coupling).table(grid, grid)
        assert len(quadrature._composite_plans) == len(farfield._layouts) == 0


def test_caches_stay_bounded():
    # solves on five distinct grids keep at most each cache's size
    coupling = Coupling(-1.0 / (2.0 * math.pi))
    for n in (260, 280, 300, 320, 340):
        solver.solve(SolverConfig(coupling=coupling, lambda2=1e5, n_nodes=n, tol_lb=1e-6))
    sizes = {name: len(cache) for name, cache in plan_caches().items()}
    for name, cache in plan_caches().items():
        assert 1 <= sizes[name] <= getattr(cache, "size", 1), (name, sizes[name])
    assert sizes["carlemanfp.hilbert._plans"] == hilbert._PLAN_CACHE_SIZE
    assert grids._node_layout.cache_info().currsize <= 8


def test_plans_are_read_only(fig_coupling, rng):
    nodes = make_nodes(400, 1e6)
    op = TOperator(fig_coupling, QuadratureConfig(n_nodes=400, lambda2=1e6))
    f = random_klambda(fig_coupling, nodes, rng)
    for _ in range(2):
        op.apply(f)
    held = 0
    for name, cache in plan_caches().items():
        for plan in stored_plans(cache):
            for array in arrays_in(plan):
                assert not array.flags.writeable, name
                held += 1
    assert held > 0
    xs, _ = quadrature.panel_points(HilbertOfExp(f, op.cfg).ext.nodes)
    with pytest.raises(ValueError):
        xs[0] = 1.0
    (targets,) = stored_plans(hilbert._targets)
    with pytest.raises(ValueError):
        targets.points.rows[0, 0] = 0.0


def test_reused_application_builds_no_rows(fig_coupling, rng, monkeypatch):
    # a work counter on the Lagrange rows: the first two applications
    # build rows at their targets, every later one none
    built = []
    rows = farfield._lagrange_rows

    def counting(y):
        built.append(y.size)
        return rows(y)

    monkeypatch.setattr(farfield, "_lagrange_rows", counting)
    nodes = make_nodes(400, 1e6)
    op = TOperator(fig_coupling, QuadratureConfig(n_nodes=400, lambda2=1e6))
    f = random_klambda(fig_coupling, nodes, rng)
    counts = []
    for _ in range(4):
        built.clear()
        op.apply(f)
        counts.append(sum(built))
    # the PV targets (the working grid's nodes but its ends) and the (Tf)'
    # nodes
    assert counts[0] == counts[1] == (400 + 320 - 2) + 400
    assert counts[2:] == [0, 0]


def test_target_sets_used_in_turn_are_not_kept(fig_coupling, rng):
    # a target plan is kept only while the compressed sum runs at the same
    # targets with no other PV sum in between
    nodes = make_nodes(400, 1e6)
    cfg = QuadratureConfig(n_nodes=400, lambda2=1e6)
    he = HilbertOfExp(random_klambda(fig_coupling, nodes, rng), cfg)
    a = np.geomspace(1e-2, 1e5, 400)
    for _ in range(3):
        he.quotient(a)
        he.quotient(np.geomspace(3e-2, 3e5, 400))
        assert len(hilbert._targets) == 0
    for _ in range(3):
        he.quotient(a)
        he.quotient(a[:10])  # a dense sum
        assert len(hilbert._targets) == 0
    he.quotient(a)
    he.quotient(a)
    assert len(hilbert._targets) == 1


# Property tests on shared small grids, so that the examples also run on
# kept plans.
SHARED_GRIDS = {n: make_nodes(n, 1e6) for n in (64, 200)}
members = st.tuples(
    st.floats(min_value=-1.0 / 6.0, max_value=-0.01),
    st.integers(min_value=0, max_value=2**31 - 1),
)


def image_of_member(n, member):
    lam, seed = member
    coupling = Coupling(lam)
    f = random_klambda(coupling, SHARED_GRIDS[n], np.random.default_rng(seed))
    return coupling, TOperator(coupling, QuadratureConfig(n_nodes=n, lambda2=1e6)).apply(f)


@given(n=st.sampled_from(sorted(SHARED_GRIDS)), member=members)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_images_vanish_at_zero_and_are_finite(n, member):
    _, image = image_of_member(n, member)
    assert image.values[0] == 0.0
    assert np.all(np.isfinite(image.values)) and np.all(np.isfinite(image.derivs))


@given(member=members)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_random_members_map_into_the_band(member):
    # on the 64-node grid the discretised map misses the lower edge by up
    # to 2e-4 for |lam| near 0.03, where the band is thinnest, and a solve
    # there stops at its first iterate as the grid is too coarse; from 100
    # nodes on the worst margin seen is +1e-5
    coupling, image = image_of_member(200, member)
    lower, upper = image.envelope_margins(coupling)
    assert min(lower.min(), upper.min()) >= -SolverConfig.envelope_slack
