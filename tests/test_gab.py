import math

import numpy as np
import pytest

from carlemanfp import gab
from carlemanfp.gab import TwoPointReconstruction
from carlemanfp.hilbert import HilbertOfExp


@pytest.fixture(scope="module")
def reconstruction(small_solution):
    cfg, res = small_solution
    return cfg, TwoPointReconstruction(res.grid_function, cfg.coupling)


class TestAngle:
    def test_range_and_sign(self, reconstruction):
        _, rec = reconstruction
        for b in (0.0, 1.0, 100.0):
            tau = rec.tau_values(b)
            assert np.all(tau >= 0.0)
            assert np.all(tau <= math.pi)
        t = rec.tau_at(1.0, 1.0)
        assert 0.0 < t < math.pi
        assert math.sin(t) > 0.0

    def test_vanishes_for_large_b(self, reconstruction):
        _, rec = reconstruction
        taus = [rec.tau_at(1.0, b) for b in (1.0, 1e2, 1e4)]
        assert taus == sorted(taus, reverse=True)
        assert taus[-1] < 1e-3

    @pytest.mark.parametrize("a", [math.nan, [0.1, math.nan], [math.nan, 0.9]])
    def test_nan_points_rejected(self, reconstruction, a):
        _, rec = reconstruction
        with pytest.raises(ValueError):
            rec.tau_at(a, 1.0)

    @pytest.mark.parametrize("b", [-0.5, -math.inf, math.nan, math.inf])
    def test_b_off_the_half_line_rejected(self, reconstruction, b):
        # b < 0 gave finite G: g(1, -5) was 0.12 and g(1, -inf) 1.1e-19
        _, rec = reconstruction
        for call in (lambda: rec.tau_at(1.0, b), lambda: rec.g(1.0, b),
                     lambda: rec.boundary_limit(b), lambda: rec.table([1.0], [b])):
            with pytest.raises(ValueError, match="b must lie"):
                call()

    def test_branch_at_vanishing_denominator(self):
        from carlemanfp.gab import _branch_arctan

        with pytest.warns(UserWarning):
            assert _branch_arctan(1.0, 0.0) == pytest.approx(math.pi / 2.0)
        assert _branch_arctan(1.0, -2.0) > math.pi / 2.0
        with pytest.warns(UserWarning):
            _branch_arctan(np.array([1.0]), np.array([1e-15]))


class TestTwoPoint:
    def test_positive_on_grid(self, reconstruction):
        _, rec = reconstruction
        grid = np.geomspace(0.1, 50.0, 5)
        table = rec.table(grid, grid)
        assert np.all(table[:, 3] > 0.0)
        assert np.all((table[:, 2] >= 0.0) & (table[:, 2] <= math.pi))

    def test_boundary_consistency(self, reconstruction):
        _, rec = reconstruction
        assert rec.boundary_consistency() <= 1e-3

    @pytest.mark.parametrize("method", [
        "boundary_limits", "boundary_limit", "g", "tau_at", "table",
    ])
    def test_limits_beyond_the_cutoff_name_b(self, reconstruction, method):
        # b past the cutoff leaves the domain of the truncated reconstruction
        _, rec = reconstruction
        call = {
            "boundary_limits": lambda: rec.boundary_limits([0.5, 2e6]),
            "boundary_limit": lambda: rec.boundary_limit(2e6),
            "g": lambda: rec.g(0.5, 2e6),
            "tau_at": lambda: rec.tau_at(0.5, 2e6),
            "table": lambda: rec.table([0.5], [0.5, 2e6]),
        }[method]
        with pytest.raises(ValueError, match=r"b must lie in \[0, 1e\+06\], got 2e\+06"):
            call()

    def test_boundary_limits_form_r_once(self, small_solution, monkeypatch):
        # the a -> 0 limits of every b share one R at the probe points,
        # with the bits of R formed anew for each b
        cfg, res = small_solution
        rec = TwoPointReconstruction(res.grid_function, cfg.coupling)
        sizes = []
        r = HilbertOfExp.r

        def counting(self, a, *args, **kwargs):
            sizes.append(np.size(a))
            return r(self, a, *args, **kwargs)

        monkeypatch.setattr(HilbertOfExp, "r", counting)
        b_values = np.geomspace(0.5, 1e3, 12)
        limits = [rec.boundary_limit(float(b)) for b in b_values]
        assert sizes == [3]
        anew = []
        for b in b_values:
            del rec._probe_r  # formed again at the next limit
            anew.append(rec.boundary_limit(float(b)))
        assert sizes == [3] * 13
        assert anew == limits

    def test_symmetry_defect_reported(self, reconstruction):
        _, rec = reconstruction
        defect = rec.table([1.0, 2.0], [1.0, 2.0])[:, 4]
        assert np.all(np.isfinite(defect))
        assert np.all(defect >= 0.0)
        # a b-grid a relative 1e-6 off the a-grid holds no G(b_j, a_i) to
        # compare G(a_i, b_j) with
        defect = rec.table([1.0, 2.0], [1.0 + 1e-6, 2.0 + 2e-6])[:, 4]
        assert np.all(np.isnan(defect))

    def test_table_rows_run_over_b_within_a(self, reconstruction):
        _, rec = reconstruction
        a_grid, b_grid = np.array([0.3, 4.0, 20.0]), np.array([0.0, 2.5])
        table = rec.table(a_grid, b_grid)
        assert table.shape == (6, 5)
        for row, (a, b) in zip(table, [(a, b) for a in a_grid for b in b_grid]):
            assert (row[0], row[1]) == (a, b)
            assert row[2] == pytest.approx(rec.tau_at(a, b), rel=1e-13)
            assert row[3] == pytest.approx(rec.g(a, b), rel=1e-13)

    def test_normalisation_near_origin(self, reconstruction):
        cfg, rec = reconstruction
        # G -> 1 as both arguments go to 0
        val = rec.g(1e-4, 0.0)
        assert val == pytest.approx(1.0, abs=1e-3)


def column_reference(rec, a, b):
    """tau_b and G(a, b) at points a for one b, with the angle transform
    taken at a alone (``_angle.at``)."""
    al = rec.coupling.abs_lambda
    a = np.asarray(a, dtype=float)
    tau = np.arctan2(al * math.pi * a, b + rec._hilbert.r(a, al))
    h = rec._angle.at(rec.tau_values(b), a)
    return tau, np.exp(-(h - rec._h0_tau0)) * np.sin(tau) / (al * math.pi * a)


def limit_reference(rec, b):
    """The a -> 0 limit from G at the probe points alone."""
    g1, g2, g3 = column_reference(rec, gab._BOUNDARY_PROBES, b)[1]
    return (4.0 * (2.0 * g3 - g2) - (2.0 * g2 - g1)) / 3.0


def counted_transforms(monkeypatch, rec) -> list:
    """Record the point sets of every angle transform of rec."""
    at, calls = rec._angle.at, []

    def counting(values, *point_sets):
        calls.append(point_sets)
        return at(values, *point_sets)

    monkeypatch.setattr(rec._angle, "at", counting)
    return calls


class TestSharedColumns:
    """table transforms each b's angle once, at the a-grid and the points
    of the a -> 0 limit; boundary_limit reads the latter for the b's of
    the last table."""

    @pytest.mark.parametrize("a_grid, b_grid", [
        (np.geomspace(0.05, 80.0, 7), np.geomspace(0.05, 80.0, 7)),
        (np.geomspace(0.02, 300.0, 5), np.array([0.0, 0.7, 45.0])),
        # past farfield.DENSE_MAX points a: the compressed sum
        (np.geomspace(1e-2, 1e2, 301), np.array([0.3, 9.0])),
    ], ids=["equal", "unequal", "compressed"])
    def test_bits_of_per_column_transforms(self, small_solution, a_grid, b_grid):
        cfg, res = small_solution
        rec = TwoPointReconstruction(res.grid_function, cfg.coupling)
        ref = TwoPointReconstruction(res.grid_function, cfg.coupling)
        table = rec.table(a_grid, b_grid)
        tau = table[:, 2].reshape(a_grid.size, b_grid.size)
        g = table[:, 3].reshape(a_grid.size, b_grid.size)
        for j, b in enumerate(b_grid):
            want_tau, want_g = column_reference(ref, a_grid, b)
            assert np.array_equal(tau[:, j], want_tau)
            assert np.array_equal(g[:, j], want_g)
            assert rec.boundary_limit(b) == limit_reference(ref, b)

    def test_limits_read_the_last_table(self, reconstruction, monkeypatch):
        _, rec = reconstruction
        b_grid = np.array([0.5, 2.0, 30.0])
        rec.table([0.1, 1.0], b_grid)
        calls = counted_transforms(monkeypatch, rec)
        limits = [rec.boundary_limit(b) for b in b_grid]
        assert calls == []
        # a b outside the table transforms its own column at the probes
        other = rec.boundary_limit(7.0)
        assert len(calls) == 1 and np.array_equal(calls[0][0], gab._BOUNDARY_PROBES)
        monkeypatch.undo()
        assert limits == [limit_reference(rec, b) for b in b_grid]
        assert other == limit_reference(rec, 7.0)

    def test_new_table_replaces_kept_limits(self, reconstruction, monkeypatch):
        _, rec = reconstruction
        rec.table([0.1, 1.0], [0.5, 2.0])
        rec.table([0.1, 1.0], [3.0, 40.0])
        calls = counted_transforms(monkeypatch, rec)
        assert rec.boundary_limit(40.0) == limit_reference(rec, 40.0)
        assert len(calls) == 1  # the reference's own transform
        # a b of the earlier table only: transformed anew, not served by
        # the b in its place in the last table
        assert rec.boundary_limit(0.5) == limit_reference(rec, 0.5)
        assert len(calls) == 3

    @pytest.mark.parametrize("failure", ["angle", "positivity"])
    def test_probe_failure_raises_in_boundary_limit_only(
        self, small_solution, monkeypatch, failure
    ):
        cfg, res = small_solution
        rec = TwoPointReconstruction(res.grid_function, cfg.coupling)
        if failure == "angle":
            rec._probe_r = np.full(3, math.nan)  # tau NaN at the probes
            match = "angle must lie"
        else:
            at = rec._angle.at

            def probes_vanish(values, *point_sets):
                # a transform of 1e4 at the probes makes G underflow to 0 there
                out = at(values, *point_sets)
                out = out if len(point_sets) > 1 else (out,)
                out = tuple(h + 1e4 * np.array_equal(a, gab._BOUNDARY_PROBES)
                            for h, a in zip(out, point_sets))
                return out if len(out) > 1 else out[0]

            monkeypatch.setattr(rec._angle, "at", probes_vanish)
            match = "two-point values must be positive"
        b_grid = np.array([0.5, 3.0])
        table = rec.table(b_grid, b_grid)
        assert np.all(table[:, 3] > 0.0)
        for b in (0.5, 8.0):  # of the table, and not
            with pytest.raises(ValueError, match=match):
                rec.boundary_limit(b)


class TestConstruction:
    def test_angle_transform_reused_across_b(self, small_solution):
        # one reconstruction visits b forward and reversed; a fresh one per
        # b gives the same bits, so no sample state leaks between b values
        cfg, res = small_solution
        f = res.grid_function
        rec = TwoPointReconstruction(f, cfg.coupling)
        a_values, b_values = (1e-3, 2.0, 300.0), (0.0, 0.5, 40.0, 7e3)
        forward = {(a, b): rec.g(a, b) for b in b_values for a in a_values}
        backward = {(a, b): rec.g(a, b) for b in b_values[::-1] for a in a_values}
        assert forward == backward
        for b in b_values:
            fresh = TwoPointReconstruction(f, cfg.coupling)
            assert all(fresh.g(a, b) == forward[a, b] for a in a_values)

    def test_zero_coupling_rejected(self, small_solution):
        from carlemanfp.coupling import Coupling

        _, res = small_solution
        with pytest.raises(ValueError):
            TwoPointReconstruction(res.grid_function, Coupling(0.0))
