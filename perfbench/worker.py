"""One workload run in a fresh process: set-up, the timed loop, the checks.

run.py starts this script; its last line of standard output is one JSON
object for run.py.  ``--setup-only`` stops the process once set-up is done,
so that run.py can time set-up in several fresh processes.

Operations are timed with tracing off.  With ``--trace 1`` every input
runs twice, untraced and then traced, so the per-layer numbers and the
tracing overhead come from the same process and the same inputs.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import carlemanfp  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Accuracy columns: the worst value over a run's checked operations.
ACCURACY = (
    "solver.consistency_residual",
    "solver.tail_law_err",
    "appendix.t0_closed_err",
    "gab.boundary_rel_err",
)


def _blas() -> dict:
    """Name, version and thread count of the BLAS numpy loaded."""
    info = {"name": None, "version": None, "threads": None}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=dep.get("name"), version=dep.get("version"))
    except (TypeError, KeyError):
        pass
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(wl, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "workload": wl.name,
        "seed": seed,
        "params": wl.params(),
    }


def measure(wl, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run whole rounds of operations until ``seconds`` have passed, then
    check every output.  Returns untraced op times, failures, peak memory
    and, when tracing, the per-layer values."""
    rng = np.random.default_rng(seed)
    tracer = tracing.Tracer() if trace else None
    records = []
    cpu = 0.0
    start = time.perf_counter()
    for round_inputs in wl.rounds(rng):
        for inp in round_inputs:
            for traced in (False, True) if trace else (False,):
                rec = {"input": inp, "traced": traced, "out": None, "error": None}
                if traced:
                    tracer.install()
                c0 = time.process_time()
                t0 = time.perf_counter()
                if traced:
                    tracer.start_op(t0)
                try:
                    rec["out"] = wl.op(inp, workdir, len(records))
                except Exception:  # a failed operation is counted, not fatal
                    rec["error"] = traceback.format_exc()
                t1 = time.perf_counter()
                c1 = time.process_time()
                rec["wall"] = t1 - t0
                if traced:
                    rec["trace"] = tracer.end_op(t1)
                    tracer.uninstall()
                else:
                    cpu += c1 - c0
                records.append(rec)
        if time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for rec in records:
        rec["values"] = {}
        if rec["error"] is None:
            try:
                rec["values"] = wl.check(rec["input"], rec["out"])
            except Exception:  # malformed output fails the operation
                rec["error"] = traceback.format_exc()
        if rec["error"] is not None:
            print(f"operation {rec['input']!r} failed:\n{rec['error']}", file=sys.stderr)

    untraced = [r["wall"] for r in records if not r["traced"]]
    result = {
        "attempted": len(records),
        "failed": sum(r["error"] is not None for r in records),
        "op_s": untraced,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        result["layers"] = layer_values(wl, records, cpu / len(untraced))
    return result


def layer_values(wl, records: list[dict], cpu_per_op: float) -> dict:
    traced = [r for r in records if r["traced"]]
    n = len(traced)
    out = {}
    for name in tracing.TIME_METRICS + (tracing.UNATTRIBUTED,):
        out[name] = sum(r["trace"]["self"].get(name, 0.0) for r in traced) / n
    for name in tracing.COUNT_METRICS:
        out[name] = sum(r["trace"]["counts"].get(name, 0) for r in traced) / n
    iterations = [r["values"]["solver.iterations"] for r in records
                  if "solver.iterations" in r["values"]]
    out["solver.iterations"] = statistics.fmean(iterations) if iterations else 0.0
    traced_iters = sum(r["values"].get("solver.iterations", 0) for r in traced)
    solve_s = sum(r["trace"]["solve_s"] for r in traced)
    out["solver.s_per_iter"] = solve_s / traced_iters if traced_iters else 0.0
    for name in ACCURACY:
        out[name] = max((r["values"][name] for r in records if name in r["values"]),
                        default=0.0)
    out["hilbert.pv_oracle_err"] = workloads.pv_oracle_err(wl.nodes)
    walls = [r["wall"] for r in traced]
    out["trace.op_s"] = statistics.fmean(walls)
    out["trace.overhead_s"] = statistics.median(walls) - statistics.median(
        r["wall"] for r in records if not r["traced"]
    )
    out["process.cpu_s_per_op"] = cpu_per_op
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--nodes", type=int, default=workloads.PRODUCTION_NODES)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(carlemanfp.__file__).resolve().parents:
        print(f"carlemanfp imported from {carlemanfp.__file__}, not {src}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.nodes)
    wl.setup()
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        result = measure(wl, args.seed, args.seconds, bool(args.trace), Path(workdir))
    result["ready_at"] = ready_at
    result["env"] = environment(wl, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
