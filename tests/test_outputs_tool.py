"""The comparison of ``tools/outputs.py`` on tiny synthetic outputs."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "outputs.py"


@pytest.fixture(scope="module")
def outputs():
    spec = importlib.util.spec_from_file_location("outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_csv(path: Path, f_values, iterations: int = 9) -> None:
    rows = "".join(f"{b!r},{f!r},small\n" for b, f in zip([0.0, 1.0, 2.0], f_values))
    path.write_text(f"# carleman-fp 0.1.0\n# iterations={iterations}\nb,f,window\n{rows}")


def write_json(path: Path, margins, statuses) -> None:
    reports = [{"lemma_id": f"suite.check[{k}]", "worst_margin": m, "status": s,
                "passed": s == "pass", "worst_location": None}
               for k, (m, s) in enumerate(zip(margins, statuses))]
    path.write_text(json.dumps({"meta": {}, "reports": reports}))


F = [0.0, -0.6931471805599453, -1.0986122886681098]


@pytest.fixture
def pair(tmp_path):
    new, ref = tmp_path / "new", tmp_path / "ref"
    new.mkdir()
    ref.mkdir()
    return new, ref


def table_rows(text: str) -> dict:
    """The comparison table's cells after file and column, by (file, column)."""
    rows = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == 6 and cells[0] not in ("File", "---"):
            rows[cells[0], cells[1]] = cells[2:]
    return rows


def test_identical_files_give_zeros(outputs, pair):
    new, ref = pair
    for d in pair:
        write_csv(d / "solve.csv", F)
        write_json(d / "verify.json", [1e-3, 0.5], ["pass", "pass"])
    rows = table_rows(outputs.compare(new, ref))
    assert rows == {("solve.csv", "all (identical)"): ["0", "0", "0", "0"],
                    ("verify.json", "all (identical)"): ["0", "0", "0", "0"]}
    assert outputs.differences(F, list(F)) == {"rows": 0, "of": 3, "abs": None,
                                                "rel": None, "ulp": None}


def test_one_ulp_change_gives_one_ulp(outputs, pair):
    new, ref = pair
    moved = list(F)
    moved[2] = float(np.nextafter(F[2], 0.0))
    write_csv(new / "solve.csv", moved)
    write_csv(ref / "solve.csv", F)
    rows = table_rows(outputs.compare(new, ref))
    assert rows == {("solve.csv", "f"): ["1 of 3", "2.22e-16", "2.02e-16", "1"],
                    ("solve.csv", "unchanged: #iterations, b, window"): ["0", "0", "0", "0"]}


def test_ulps_across_zero_and_sign(outputs):
    tiny = math.ulp(0.0)
    assert outputs.differences([tiny], [-tiny])["ulp"] == 2
    assert outputs.differences([-0.0], [0.0])["ulp"] == 0
    assert outputs.differences([-1.0], [float(np.nextafter(-1.0, 0.0))])["ulp"] == 1


def test_verify_margins_and_statuses(outputs, pair):
    new, ref = pair
    write_json(ref / "verify.json", [1e-3, 0.5], ["pass", "pass"])
    write_json(new / "verify.json", [float(np.nextafter(1e-3, 1.0)), -0.5], ["pass", "fail"])
    text = outputs.compare(new, ref)
    rows = table_rows(text)
    assert rows["verify.json", "worst_margin"][0] == "2 of 2"
    assert rows["verify.json", "status"] == ["1 of 2", "-", "-", "-"]
    assert rows["verify.json", "unchanged: worst_location"] == ["0", "0", "0", "0"]
    assert ("- verify.json suite.check[0]: margin 0.001 -> 0.0010000000000000002 "
            "(rel 2.2e-16, 1 ulp)") in text
    assert "- verify.json suite.check[1]: status pass -> fail" in text
