"""Benchmark of carlemanfp: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads and metric names come from
BENCHMARK.json next to this directory; perfbench/README.md explains them.
The workload runs as a closed loop with one client, in one fresh worker
process (worker.py), which runs BLAS on one thread.  Set-up, from
process start until the first timed operation can start, is timed in
three fresh processes and reported as their median: one that stops after
set-up before the measuring worker, the worker itself, and one more
after it, so that the set-ups spread over the whole run.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer ones.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # the whole run must end within 180 s


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 20:
        return None
    p = (100 * (n - 10)) // n
    return p, statistics.quantiles(samples, n=100)[p - 1]


def child_env() -> dict:
    """Environment for the workers: one BLAS thread.

    The benchmark is a single client.  On a host of a few shared cores a
    second BLAS thread mostly spins, and its op times measure the
    scheduler rather than the program.
    """
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, setup_only: bool, deadline: float) -> tuple[float, dict]:
    """Start one worker and wait for it; returns (set-up seconds, its JSON)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.nodes is not None:
        cmd += ["--nodes", str(args.nodes)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - started, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    return payload["ready_at"] - started, payload


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--nodes", type=int, default=None,
                   help="grid size of the solves; the default 2000 is production "
                   "size, smaller grids are for the self-tests")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "carlemanfp" / "__init__.py").is_file():
        print(f"no carlemanfp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        setups = [run_worker(args, True, deadline)[0]]
        worker_setup, run = run_worker(args, False, deadline)
        setups += [worker_setup, run_worker(args, True, deadline)[0]]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    op_s = run["op_s"]
    measured = {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(op_s),
        "peak_rss_mb": run["peak_rss_mb"],
        **run.get("layers", {}),
    }
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed}

    attempted, failed = run["attempted"], run["failed"]
    print(json.dumps({"env": run["env"]}))
    tail = tail_percentile(op_s)
    print(f"{args.workload}: {failed} of {attempted} operations failed "
          f"(error_rate {failed / attempted:.3g}); op_s_p50 {measured['op_s_p50']:.4f} s "
          f"over {len(op_s)} untraced samples"
          + (f", p{tail[0]} {tail[1]:.4f} s" if tail else "")
          + f"; setup_s {measured['setup_s']:.4f} s, median of "
          + ", ".join(f"{s:.4f}" for s in setups))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
