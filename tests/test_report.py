"""One worst-margin rule for every certificate scan (``report.Worst``).

A NaN margin injected at any scan site must fail its report, and a scan
that samples nothing must fail too.
"""

import json
import math

import numpy as np
import pytest

from carlemanfp import bounds, verification
from carlemanfp.grids import GridFunction
from carlemanfp.operators import TOperator
from carlemanfp.report import INCONCLUSIVE_BAND, Worst, write_reports_json
from carlemanfp.verification import run_suites


class TestWorst:
    def test_empty_scan_fails(self):
        worst = Worst()
        worst.add(np.array([]), lambda i: i)
        assert worst.margin == math.inf and worst.location is None
        assert worst.report("x", "nothing").status == "fail"

    def test_tie_keeps_the_first_location(self):
        worst = Worst()
        worst.add([1.0, 0.5, 0.5], lambda i: ("row 0", i))
        worst.add(0.5, lambda _: "row 1")
        worst.add([0.75, 0.5], lambda i: ("row 2", i))
        assert (worst.margin, worst.location) == (0.5, ("row 0", 1))

    def test_nan_is_the_worst_and_stays(self):
        worst = Worst()
        worst.add([2.0, 1.0], lambda i: ("row 0", i))
        worst.add([3.0, math.nan, math.nan], lambda i: ("row 1", i))
        worst.add([-5.0], lambda i: ("row 2", i))
        worst.add(math.nan, lambda _: "row 3")
        assert math.isnan(worst.margin) and worst.location == ("row 1", 1)
        assert worst.report("x", "nan").status == "fail"

    def test_two_dimensional_rows_in_flat_order(self):
        worst = Worst()
        worst.add(np.array([[3.0, 1.0], [1.0, 2.0]]), lambda k: divmod(k, 2))
        assert (worst.margin, worst.location) == (1.0, (0, 1))


class TestInconclusive:
    # a positive margin inside the floating-point trust band certifies
    # nothing for a strict check, and is a pass for a check whose margin
    # may legitimately be zero
    def thin(self) -> Worst:
        worst = Worst()
        worst.add([1.0, INCONCLUSIVE_BAND / 2.0], lambda i: i)
        return worst

    def test_strict_margin_in_the_band_is_inconclusive(self):
        report = self.thin().report("x", "thin")
        assert report.passed and report.status == "inconclusive"
        assert report.to_dict()["status"] == "inconclusive"

    def test_non_strict_margin_in_the_band_passes(self):
        assert self.thin().report("x", "thin", strict=False).status == "pass"


def _statuses(reports, prefix):
    return [r.status for r in reports if r.lemma_id.startswith(prefix)]


class TestNaNMarginFails:
    """One NaN in an input of each scan fails its report, even when the
    other samples of that scan hold."""

    def test_prop4(self, monkeypatch):
        real = bounds.delta_r_bounds
        calls = []

        def half_nan(t, delta, coupling):
            out = real(t, delta, coupling)
            calls.append(None)
            if len(calls) % 2:
                out[:, 5] = math.nan
            return out

        monkeypatch.setattr(bounds, "delta_r_bounds", half_nan)
        reports = run_suites(["prop4"], seed=0, n_pairs=2)
        assert _statuses(reports, "prop4.delta-r") == ["fail"] * 3

    def test_master_expression(self, monkeypatch):
        real = bounds.upper_bound_master

        def nan_at_edge(b, coupling):
            out = real(b, coupling)
            if coupling.abs_lambda == 1.0 / 6.0:
                out[20] = math.nan
            return out

        monkeypatch.setattr(bounds, "upper_bound_master", nan_at_edge)
        b = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 999)])
        rep, _ = run_suites(["ck"], n_lambda=4)
        assert rep.status == "fail"
        assert rep.worst_location == (-1.0 / 6.0, float(b[20]))

    def test_printed_coefficients(self, monkeypatch):
        real = bounds.c_coeffs_printed

        def nan_at_edge(coupling):
            out = real(coupling)
            if coupling.abs_lambda == 1.0 / 6.0:
                out[2] = math.nan
            return out

        monkeypatch.setattr(bounds, "c_coeffs_printed", nan_at_edge)
        _, rep = run_suites(["ck"], n_lambda=4)
        assert rep.status == "fail"
        assert rep.worst_location == (-1.0 / 6.0, "c16")

    @pytest.mark.parametrize("name, suite, failing", [
        ("f_bound_second", "lemma3",
         ["lemma3.convex", "lemma3.concave", "lemma3.second-deriv-window"]),
        ("s_bound", "lemma4", ["lemma4.minorant"]),
        ("c_aux", "prop5", [f"prop5.aux-sup[{lam:.4g}]" for lam in verification.COUPLINGS]),
        ("c_tilde_aux", "prop5",
         [f"prop5.aux-tilde-sup[{lam:.4g}]" for lam in verification.COUPLINGS]),
    ], ids=["lemma3", "lemma4", "aux-sup", "aux-tilde-sup"])
    def test_closed_form_scan(self, monkeypatch, name, suite, failing):
        real = getattr(bounds, name)

        def nan_at_five(x, *args):
            out = real(x, *args)
            out[5] = math.nan
            return out

        monkeypatch.setattr(bounds, name, nan_at_five)
        reports = run_suites([suite], seed=0, n_pairs=1)
        assert [r.lemma_id for r in reports if r.status == "fail"] == failing

    def test_prop5_image_distance(self, monkeypatch):
        real = verification.lb_distance
        calls = []

        def nan_image_distance(f, g):
            calls.append(None)
            # per pair: the domain distance, then the image distance; the
            # first pair of each two measures NaN
            return math.nan if len(calls) % 4 == 2 else real(f, g)

        monkeypatch.setattr(verification, "lb_distance", nan_image_distance)
        reports = run_suites(["prop5"], seed=0, n_pairs=2)
        assert _statuses(reports, "prop5.modulus") == ["fail"] * 3
        assert _statuses(reports, "prop5.aux") == ["pass"] * 6

    def test_equicont_image(self, monkeypatch):
        real = TOperator.apply
        calls = []

        def nan_image(self, block, require_positive=True):
            images = []
            for img in real(self, block, require_positive):
                calls.append(None)
                if len(calls) % 2:
                    derivs = img.derivs.copy()
                    derivs[3] = math.nan
                    img = GridFunction(img.nodes, img.values, derivs)
                images.append(img)
            return images

        monkeypatch.setattr(TOperator, "apply", nan_image)
        reports = run_suites(["equicont"], seed=0, n_members=2)
        assert _statuses(reports, "equicont.modulus") == ["fail"] * 3

    def test_residue_integral(self, monkeypatch):
        real = verification.cauchy_integral

        def nan_at_one(u):
            numeric, closed = real(u)
            return (math.nan if u == 1.0 else numeric), closed

        monkeypatch.setattr(verification, "cauchy_integral", nan_at_one)
        reports = run_suites(["appendix"])
        assert _statuses(reports, "appendix.residue-integral") == ["fail"]
        assert _statuses(reports, "appendix.zero-input") == ["pass", "pass"]

    def test_zero_input_closed_form(self, monkeypatch):
        real = verification.t0_profile

        def nan_near_cutoff(coupling, lam2, n_nodes):
            nodes, computed, formula, rest = real(coupling, lam2, n_nodes=n_nodes)
            if lam2 == 1e6:
                computed = computed.copy()
                computed[-5] = math.nan  # outside the vanishing window
            return nodes, computed, formula, rest

        monkeypatch.setattr(verification, "t0_profile", nan_near_cutoff)
        reports = run_suites(["appendix"])
        assert _statuses(reports, "appendix.zero-input-closed-form") == ["fail"]
        assert _statuses(reports, "appendix.zero-input-vanishing") == ["pass"]
        assert _statuses(reports, "appendix.residue-integral") == ["pass"]



def refuse_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


class TestStrictJson:
    """The JSON report holds no Infinity or NaN token, which RFC 8259
    parsers reject; a non-finite number is written as a string."""

    def strict(self, path):
        return json.loads(path.read_text(), parse_constant=refuse_constant)

    def test_empty_scan(self, tmp_path):
        path = tmp_path / "ck.json"
        write_reports_json(path, run_suites(["ck"], n_lambda=0))
        reports = self.strict(path)["reports"]
        assert [r["worst_margin"] for r in reports] == ["inf", "inf"]
        assert [r["status"] for r in reports] == ["fail", "fail"]

    def test_nan_scan(self, monkeypatch, tmp_path):
        # prop5 puts the worst ratio, NaN here, in the location too
        real = verification.lb_distance
        calls = []

        def nan_image_distance(f, g):
            calls.append(None)
            return math.nan if len(calls) % 4 == 2 else real(f, g)

        monkeypatch.setattr(verification, "lb_distance", nan_image_distance)
        path = tmp_path / "prop5.json"
        write_reports_json(path, run_suites(["prop5"], seed=0, n_pairs=2),
                           meta={"bound": -math.inf})
        payload = self.strict(path)
        modulus = [r for r in payload["reports"] if r["lemma_id"].startswith("prop5.modulus")]
        assert [(r["worst_margin"], r["worst_location"]) for r in modulus] == [("nan", "nan")] * 3
        assert payload["meta"] == {"bound": "-inf"}

    def test_finite_margins_keep_their_bytes(self, tmp_path):
        reports = run_suites(["lemma4", "appendix"])
        path = tmp_path / "finite.json"
        write_reports_json(path, reports, meta={"seed": 0, "lambda": -0.1})
        payload = {"meta": {"seed": 0, "lambda": -0.1},
                   "reports": [r.to_dict() for r in reports]}
        assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
