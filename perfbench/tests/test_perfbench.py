"""Self-tests of the benchmark: it prints what BENCHMARK.json names, its
output checks can fail, and its traced self times account for the whole
operation time."""

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracing
import worker
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL_NODES = 800  # smallest grid on which the production budgets still hold
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


@functools.cache
def run_bench(workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--nodes", str(SMALL_NODES)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def test_workloads_match_the_spec():
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_small_run_prints_every_metric(workload, trace):
    code, lines = run_bench(workload, trace)
    assert code == 0
    env = json.loads(lines[0])["env"]
    assert env["workload"] == workload and env["seed"] == 3
    assert env["blas"]["threads"] in (None, 1)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float)) and math.isfinite(printed["value"])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_self_times_add_up_to_the_op_time(workload):
    _, lines = run_bench(workload, 1)
    values = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    attributed = sum(values[name] for name in tracing.TIME_METRICS)
    unattributed = values[tracing.UNATTRIBUTED]
    assert attributed + unattributed == pytest.approx(values["trace.op_s"], rel=1e-9)
    assert 0.0 <= unattributed < 0.05 * values["trace.op_s"]


def test_spec_lists_every_traced_metric():
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(tracing.TIME_METRICS) | set(tracing.COUNT_METRICS) <= names
    assert tracing.UNATTRIBUTED in names


def _bindings(originals):
    """Every (module, name) and (dict, key) holding one of ``originals``."""
    found = []
    for mname in tracing.BINDING_MODULES:
        mod = tracing._module(mname)
        for name, value in vars(mod).items():
            if id(value) in originals:
                found.append((mod.__name__, name))
            elif isinstance(value, dict) and not name.startswith("__"):
                found += [(f"{mod.__name__}.{name}", k) for k, v in value.items()
                          if id(v) in originals]
    return found


def test_install_wraps_every_binding_and_uninstall_restores_them():
    from carlemanfp.hilbert import HilbertOfExp

    originals = {id(m) for _, owner, _, m in tracing.entry_points() if not isinstance(owner, type)}
    before = _bindings(originals)
    assert ("carlemanfp.operators", "composite_weights") in before
    assert ("carlemanfp.cli", "solve") in before
    assert ("carlemanfp.verification.SUITES", "prop5") in before
    pv = HilbertOfExp.quotient
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _bindings(originals) == []
        assert HilbertOfExp.quotient is not pv
    finally:
        tracer.uninstall()
    assert _bindings(originals) == before
    assert HilbertOfExp.quotient is pv


def _corrupt_solve(out):
    meta_and_rows = out["csv"].read_text().splitlines()
    header = meta_and_rows.index(",".join(workloads.SOLVE_HEADER))
    rows = [r.split(",") for r in meta_and_rows[header + 1:]]
    for r in rows:
        r[2] = repr(10.0 * float(r[2]))  # exp f far above the upper envelope
    out["csv"].write_text("\n".join(meta_and_rows[:header + 1] + [",".join(r) for r in rows]))


def _corrupt_certify(out):
    payload = json.loads(out["json"].read_text())
    payload["reports"][0]["status"] = "fail"
    out["json"].write_text(json.dumps(payload))


def _corrupt_reconstruct(out):
    out["table"][5, 3] = -out["table"][5, 3]


CORRUPT = {
    "solve-production": _corrupt_solve,
    "certify": _corrupt_certify,
    "reconstruct": _corrupt_reconstruct,
}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_corrupted_output_counts_as_failed(workload, tmp_path, monkeypatch):
    cls = workloads.WORKLOADS[workload]
    wl = cls(SMALL_NODES)
    wl.setup()
    honest = cls.op

    def corrupted(self, inp, workdir, k):
        out = honest(self, inp, workdir, k)
        CORRUPT[workload](out)
        return out

    monkeypatch.setattr(cls, "op", corrupted)
    result = worker.measure(wl, seed=5, seconds=0.0, trace=False, workdir=tmp_path)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_inputs_follow_the_seed(workload):
    wl = workloads.WORKLOADS[workload](SMALL_NODES)

    def draw(seed):
        rounds = wl.rounds(np.random.default_rng(seed))
        return [next(rounds) for _ in range(8)]

    assert draw(9) == draw(9)
    assert draw(9) != draw(10)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "baseline", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD_NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
