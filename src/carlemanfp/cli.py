"""Command-line driver: solve, verify, figure2, gab.

Configuration precedence is flags > config file > defaults; the config
file is flat ``key=value`` text with ``#`` comments, keys named like the
long flags.  Every run writes a JSON manifest next to its outputs.
Exit codes: 0 success, 1 verification failure, 2 non-convergence,
3 envelope escape, 4 coupling outside the stability range.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .coupling import Coupling, THEOREM_LAMBDA_MIN, lambda_in_theorem_range
from .gab import TwoPointReconstruction
from .grids import POWER_LAW_EXTEND
from .hilbert import QuadratureError
from .operators import PoleRegionError
from .report import write_reports_json
from .solver import (
    EnvelopeEscapeError,
    NonConvergenceError,
    SolveResult,
    SolverConfig,
    envelope_curves,
    solve,
    solution_rows,
)
from .verification import SUITES, run_suites

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_NONCONVERGENCE = 2
EXIT_ENVELOPE = 3
EXIT_RANGE = 4

_FMT = "%.17g"


def read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _merged(args: argparse.Namespace, key: str, default, cast):
    """flags > config file > defaults."""
    flag_val = getattr(args, key.replace("-", "_"), None)
    if flag_val is not None:
        return flag_val
    if getattr(args, "_config", None) and key in args._config:
        return cast(args._config[key])
    return default


def _write_csv(path: str, header: list[str], rows, meta: dict) -> None:
    with open(path, "w") as fh:
        fh.write(f"# carleman-fp {__version__}\n")
        for key in sorted(meta):
            fh.write(f"# {key}={meta[key]}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    cell if isinstance(cell, str) else _FMT % cell for cell in row
                )
                + "\n"
            )


def _write_manifest(
    path: str,
    command: str,
    config: dict,
    outputs: list[str],
    t0: float,
    history: list | None = None,
) -> None:
    for out in outputs:
        if not os.path.exists(out):
            raise FileNotFoundError(f"declared output {out} was not written")
    payload = {
        "command": command,
        "config": config,
        "version": __version__,
        "wall_time_s": round(time.time() - t0, 3),
        "outputs": outputs,
    }
    if history is not None:
        payload["history"] = [asdict(r) for r in history]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _coupling_or_exit(lam: float, exploratory: bool) -> Coupling:
    if not exploratory and not lambda_in_theorem_range(lam):
        print(
            f"coupling {lam} outside [{THEOREM_LAMBDA_MIN:.6f}, 0]; "
            "pass --exploratory for diagnostic runs",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_RANGE)
    return Coupling(lam, exploratory=exploratory)


def _run_solve_config(args, default_lam: float | None = None) -> tuple[SolverConfig, bool, dict]:
    lam = _merged(args, "lambda", default_lam, float)
    if lam is None:
        print("--lambda is required", file=sys.stderr)
        raise SystemExit(EXIT_RANGE)
    exploratory = bool(getattr(args, "exploratory", False))
    coupling = _coupling_or_exit(lam, exploratory)
    cfg = SolverConfig(
        coupling=coupling,
        lambda2=_merged(args, "cutoff", 1e6, float),
        n_nodes=int(_merged(args, "nodes", 2000, int)),
        damping=_merged(args, "damping", 1.0, float),
        tol_lb=_merged(args, "tol", 1e-8, float),
        max_iters=int(_merged(args, "max-iters", 500, int)),
    )
    snapshot = {
        "lambda": coupling.lam,
        "lambda_r": coupling.lambda_r,
        "cutoff": cfg.lambda2,
        "nodes": cfg.n_nodes,
        "damping": cfg.damping,
        "tol": cfg.tol_lb,
        "max_iters": cfg.max_iters,
        "tail_mode": POWER_LAW_EXTEND,
        "exploratory": exploratory,
    }
    return cfg, exploratory, snapshot


def _solve_or_exit(cfg: SolverConfig, exploratory: bool) -> SolveResult:
    try:
        return solve(cfg, enforce_envelope=not exploratory)
    except NonConvergenceError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_NONCONVERGENCE)
    except EnvelopeEscapeError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_ENVELOPE)
    except (QuadratureError, PoleRegionError) as exc:
        # exploratory couplings can break the transform's structure
        print(f"solve failed numerically: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_NONCONVERGENCE)


def cmd_solve(args) -> int:
    t0 = time.time()
    cfg, exploratory, snapshot = _run_solve_config(args)
    res = _solve_or_exit(cfg, exploratory)
    out_path = _merged(args, "out", "solution.csv", str)
    rows = solution_rows(res, cfg.coupling)
    meta = dict(snapshot, iterations=res.iterations, residual=res.residual,
                tail_exponent=res.tail_exponent, slow_tail=res.slow_tail)
    _write_csv(
        out_path,
        ["b", "f", "g0b", "lower_envelope", "upper_envelope"],
        rows,
        meta,
    )
    manifest = _merged(args, "manifest", out_path + ".manifest.json", str)
    _write_manifest(manifest, "solve", snapshot, [out_path], t0, res.history)
    print(
        f"converged in {res.iterations} iterations, residual {res.residual:.3e}, "
        f"wrote {out_path}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.time()
    suites = _merged(args, "suite", "all", str).split(",")
    seed = int(_merged(args, "seed", 0, int))
    n_lambda = int(_merged(args, "lambda-grid", 200, int))
    reports = run_suites(
        [s.strip() for s in suites],
        seed=seed,
        n_lambda=n_lambda,
        n_pairs=int(_merged(args, "pairs", 10, int)),
        n_members=int(_merged(args, "members", 10, int)),
    )
    for rep in reports:
        print(rep.to_line())
    out_path = _merged(args, "out", "verification.json", str)
    snapshot = {"suites": suites, "seed": seed, "lambda_grid": n_lambda}
    write_reports_json(out_path, reports, meta=snapshot)
    manifest = _merged(args, "manifest", out_path + ".manifest.json", str)
    _write_manifest(manifest, "verify", snapshot, [out_path], t0)
    ok = all(r.status == "pass" for r in reports)
    print(("all checks passed" if ok else "CHECKS FAILED") + f", wrote {out_path}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


_FIG2_WINDOWS = (
    ("small", 2.0),
    ("medium", 60.0),
    ("large", 3e3),
    ("huge", None),  # up to the cutoff
)


def cmd_figure2(args) -> int:
    t0 = time.time()
    cfg, exploratory, snapshot = _run_solve_config(
        args, default_lam=-1.0 / (2.0 * math.pi)
    )
    res = _solve_or_exit(cfg, exploratory)
    f = res.grid_function
    lower, upper = envelope_curves(cfg.coupling, f.nodes)
    g0b = np.exp(f.values)
    rows = []
    for label, b_max in _FIG2_WINDOWS:
        cap = cfg.lambda2 if b_max is None else b_max
        sel = f.nodes <= cap
        for b, g, lo, up in zip(f.nodes[sel], g0b[sel], lower[sel], upper[sel]):
            rows.append([label, b, g, lo, up])
    out_path = _merged(args, "out", "figure2.csv", str)
    _write_csv(
        out_path,
        ["window", "b", "g0b", "lower_envelope", "upper_envelope"],
        rows,
        dict(snapshot, iterations=res.iterations, residual=res.residual),
    )
    manifest = _merged(args, "manifest", out_path + ".manifest.json", str)
    _write_manifest(manifest, "figure2", snapshot, [out_path], t0, res.history)
    print(f"wrote {out_path} ({len(rows)} rows over four windows)")
    return EXIT_OK


def cmd_gab(args) -> int:
    t0 = time.time()
    cfg, exploratory, snapshot = _run_solve_config(args)
    res = _solve_or_exit(cfg, exploratory)
    rec = TwoPointReconstruction(res.grid_function, cfg.coupling)
    n = int(_merged(args, "grid", 12, int))
    a_min = _merged(args, "a-min", 1e-2, float)
    a_max = _merged(args, "a-max", 1e2, float)
    grid = np.geomspace(a_min, a_max, n)
    table = rec.table(grid, grid)
    rows = [list(r) for r in table]
    # a -> 0 block: the extrapolated boundary limit against the solved edge
    for b in grid:
        lim = rec.boundary_limit(float(b))
        ref = math.exp(float(res.grid_function.at(float(b))))
        rows.append([0.0, float(b), 0.0, lim, abs(lim - ref) / ref])
    snapshot = dict(snapshot, grid=n, a_min=a_min, a_max=a_max)
    out_path = _merged(args, "out", "gab.csv", str)
    _write_csv(
        out_path,
        ["a", "b", "tau", "g_ab", "symmetry_defect"],
        rows,
        snapshot,
    )
    manifest = _merged(args, "manifest", out_path + ".manifest.json", str)
    _write_manifest(manifest, "gab", snapshot, [out_path], t0, res.history)
    print(f"wrote {out_path} ({len(rows)} rows)")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="coupling constant in [-1/6, 0]")
    p.add_argument("--cutoff", type=float, default=None, help="grid cutoff (default 1e6)")
    p.add_argument("--nodes", type=int, default=None, help="grid size (default 2000)")
    p.add_argument("--tol", type=float, default=None, help="norm tolerance (default 1e-8)")
    p.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    p.add_argument("--damping", type=float, default=None,
                   help="mixing factor beta in (0, 1] (default 1)")
    p.add_argument("--exploratory", action="store_true",
                   help="bypass the coupling range guard (diagnostic only)")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--manifest", type=str, default=None)
    p.add_argument("--config", type=str, default=None,
                   help="flat key=value config file (flags win)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="carleman-fp",
        description="Fixed-point solver and certification suite for the "
        "boundary two-point function",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the fixed-point iteration")
    _add_common(p_solve)

    p_verify = sub.add_parser("verify", help="run certification suites")
    p_verify.add_argument(
        "--suite",
        type=str,
        default=None,
        help="comma list of " + "|".join(sorted(SUITES)) + "|all",
    )
    p_verify.add_argument("--lambda-grid", dest="lambda_grid", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--pairs", type=int, default=None)
    p_verify.add_argument("--members", type=int, default=None)
    p_verify.add_argument("--out", type=str, default=None)
    p_verify.add_argument("--manifest", type=str, default=None)
    p_verify.add_argument("--config", type=str, default=None)

    p_fig = sub.add_parser("figure2", help="emit the envelope comparison dataset")
    _add_common(p_fig)

    p_gab = sub.add_parser("gab", help="reconstruct the two-variable function")
    _add_common(p_gab)
    p_gab.add_argument("--grid", type=int, default=None)
    p_gab.add_argument("--a-min", dest="a_min", type=float, default=None)
    p_gab.add_argument("--a-max", dest="a_max", type=float, default=None)

    args = parser.parse_args(argv)
    args._config = read_config_file(args.config) if getattr(args, "config", None) else {}

    # expose merged lookups using flag-style keys
    for attr, key in (
        ("lam", "lambda"),
        ("max_iters", "max-iters"),
        ("lambda_grid", "lambda-grid"),
        ("a_min", "a-min"),
        ("a_max", "a-max"),
    ):
        if hasattr(args, attr):
            setattr(args, key.replace("-", "_"), getattr(args, attr))

    handlers = {
        "solve": cmd_solve,
        "verify": cmd_verify,
        "figure2": cmd_figure2,
        "gab": cmd_gab,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
