"""Command-line driver: solve, verify, figure2, gab.

Configuration precedence is flags > config file > defaults.  The config
file (``--config``) is flat ``key=value`` text with ``#`` comments; each
key is a value-taking long flag of the command without its dashes
(``lambda``, ``max-iters``, ``lambda-grid``, ``out``, ...; not
``exploratory``, a command-line switch only), and the values become the
command's defaults.  Every run writes a JSON manifest next to its output.
Exit codes: 0 success, 1 verification failure, 2 non-convergence,
3 envelope escape, 4 coupling outside the stability range, 5 invalid
input (flag, config file or key, or setting, or a size the machine
cannot hold: one line, no output).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import pickle
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .coupling import Coupling, CouplingRangeError, lambda_in_theorem_range
from .gab import TwoPointReconstruction
from .grids import POWER_LAW_EXTEND
from .hilbert import QuadratureError
from .operators import PoleRegionError
from .report import all_passed, write_reports_json
from .solver import (
    EnvelopeEscapeError,
    NonConvergenceError,
    SolveResult,
    SolverConfig,
    envelope_curves,
    solve,
    solution_rows,
)
from .verification import SUITES, SUITES_BY_COST, resolve_suites, run_suites

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_NONCONVERGENCE = 2
EXIT_ENVELOPE = 3
EXIT_RANGE = 4
EXIT_USAGE = 5

_FMT = "%.17g"
_CSV_BLOCK = 256


class _Parser(argparse.ArgumentParser):
    """Reports every input error in one line and exits EXIT_USAGE."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


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


def _config_defaults(command: argparse.ArgumentParser, path: str) -> dict[str, str]:
    """The config file's values keyed by the destination of the long flag
    each key names; a key naming no value-taking flag is a usage error."""
    try:
        values = read_config_file(path)
    except (OSError, ValueError) as exc:
        command.error(f"config file {path}: {exc}")
    flags = {opt[2:]: a for a in command._actions for opt in a.option_strings}
    defaults = {}
    for key, value in values.items():
        action = flags.get(key)
        if action is None or action.nargs == 0 or action.dest == "config":
            command.error(f"config key {key!r} is not a value-taking flag here")
        defaults[action.dest] = value
    return defaults


def _write_manifest(args, command: str, snapshot: dict, t0: float, **extra):
    """The run's manifest, at --manifest or next to --out, with the
    command's own ``extra`` keys."""
    payload = {
        "command": command,
        "config": snapshot,
        "version": __version__,
        "wall_time_s": round(time.time() - t0, 3),
        "outputs": [args.out],
        **extra,
    }
    with open(args.manifest or args.out + ".manifest.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(args, command: str, snapshot: dict, t0: float, header: list[str], blocks,
          meta: dict, history) -> None:
    """The command's CSV at --out, with a ``# key=value`` preamble from
    ``meta`` and the rows of each of ``blocks`` in turn, and then its
    manifest."""
    with open(args.out, "w") as fh:
        fh.write(f"# carleman-fp {__version__}\n")
        for key in sorted(meta):
            fh.write(f"# {key}={meta[key]}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(_csv_lines(*blocks))
    _write_manifest(args, command, snapshot, t0, history=[asdict(r) for r in history])


def _csv_lines(*blocks):
    """CSV text of the rows of each block (a list of rows or a 2-D
    array), numbers as ``_FMT`` and strings as they are; every row of a
    block has the shape of its first.  Each run of ``_CSV_BLOCK`` rows is
    formatted by one %-operation, which bounds the Python floats alive
    at once."""
    for rows in blocks:
        if len(rows) == 0:
            continue
        line = ",".join("%s" if isinstance(cell, str) else _FMT for cell in rows[0]) + "\n"
        for lo in range(0, len(rows), _CSV_BLOCK):
            block = rows[lo : lo + _CSV_BLOCK]
            if isinstance(block, np.ndarray):
                cells = block.ravel().tolist()
            else:
                cells = list(itertools.chain.from_iterable(block))
            yield (line * len(block)) % tuple(cells)


def _run_solve_config(args) -> tuple[SolverConfig, dict]:
    if args.lam is None:
        raise argparse.ArgumentError(None, "--lambda is required (flag or config key)")
    try:
        coupling = Coupling(args.lam, exploratory=args.exploratory)
        cfg = SolverConfig(
            coupling=coupling,
            lambda2=args.cutoff,
            n_nodes=args.nodes,
            damping=args.damping,
            tol_lb=args.tol,
            max_iters=args.max_iters,
        )
    except CouplingRangeError as exc:
        print(f"{exc}; pass --exploratory for diagnostic runs", file=sys.stderr)
        raise SystemExit(EXIT_RANGE)
    except ValueError as exc:
        raise argparse.ArgumentError(None, str(exc)) from exc
    snapshot = {
        "lambda": coupling.lam,
        "lambda_r": coupling.lambda_r,
        "cutoff": cfg.lambda2,
        "nodes": cfg.n_nodes,
        "damping": cfg.damping,
        "tol": cfg.tol_lb,
        "max_iters": cfg.max_iters,
        "tail_mode": POWER_LAW_EXTEND,
        "exploratory": args.exploratory,
    }
    return cfg, snapshot


def _solve_or_exit(cfg: SolverConfig) -> SolveResult:
    try:
        return solve(cfg)
    except NonConvergenceError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_NONCONVERGENCE)
    except EnvelopeEscapeError as exc:
        hint = ("T keeps the band for lambda in [-1/6, 0], so the grid is too coarse: "
                "raise --nodes" if lambda_in_theorem_range(cfg.coupling.lam)
                else "past -1/6 T need not keep the band, or the grid is too coarse: "
                "try more --nodes")
        print(f"solve failed: {exc}; {hint}", file=sys.stderr)
        raise SystemExit(EXIT_ENVELOPE)
    except (QuadratureError, PoleRegionError) as exc:
        # exploratory couplings can break the transform's structure
        print(f"solve failed numerically: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_NONCONVERGENCE)


def cmd_solve(args) -> int:
    t0 = time.time()
    cfg, snapshot = _run_solve_config(args)
    res = _solve_or_exit(cfg)
    f = res.grid_function
    meta = dict(snapshot, iterations=res.iterations, residual=res.residual,
                tail_exponent=f.fitted_tail_exponent(), slow_tail=f.has_slow_tail())
    _emit(args, "solve", snapshot, t0,
          ["b", "f", "g0b", "lower_envelope", "upper_envelope"],
          [solution_rows(res, cfg.coupling)], meta, res.history)
    print(
        f"converged in {res.iterations} iterations, residual {res.residual:.3e}, "
        f"wrote {args.out}"
    )
    return EXIT_OK


def _timed_suite(name: str, **kwargs) -> tuple[list, float]:
    """One suite's reports and its wall seconds, timed where it ran."""
    t0 = time.perf_counter()
    reports = run_suites([name], **kwargs)
    return reports, time.perf_counter() - t0


_RECORD = 2  # bytes of one work-queue record, a suite's index: each read is atomic


def _work_queue(names: list[str]) -> int:
    """The read end of a pipe holding the index of every suite in
    ``names``, costliest first, its write end closed.  The queue is
    written before any process reads it, so a list the pipe cannot hold
    is refused rather than blocking."""
    rank = {name: k for k, name in enumerate(SUITES_BY_COST)}
    order = sorted(range(len(names)), key=lambda i: rank[names[i]])
    queue, feed = os.pipe()
    os.set_blocking(feed, False)
    try:
        full = len(order) > 1 << 8 * _RECORD or os.write(
            feed, b"".join(i.to_bytes(_RECORD, "little") for i in order)
        ) < _RECORD * len(order)
    finally:
        os.close(feed)
    if full:
        os.close(queue)
        raise argparse.ArgumentError(
            None, f"--suite: {len(names)} suites are more than the work queue holds")
    return queue


def _drain(queue: int) -> None:
    """Empty the work queue, so that no process starts another suite."""
    while os.read(queue, 1 << 16):
        pass


def _work(queue: int, names: list[str], kwargs: dict, parent: int | None = None) -> list:
    """The ``(index, (reports, wall))`` pair of each suite this process
    takes from the queue, until it is empty or, in a forked child, the
    process ``parent`` is gone.  A suite's error drains the queue and is
    raised."""
    done = []
    try:
        while (parent is None or os.getppid() == parent) and (
                record := os.read(queue, _RECORD)):
            index = int.from_bytes(record, "little")
            done.append((index, _timed_suite(names[index], **kwargs)))
    except BaseException:
        _drain(queue)
        raise
    return done


def _child(queue: int, result: int, inherited, parent: int, names: list[str],
           kwargs: dict):
    """A forked worker: closes the ``inherited`` descriptors, sends its
    ``_work`` pairs, or its error, pickled down ``result``, and leaves by
    ``os._exit``, never returning."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            payload = _work(queue, names, kwargs, parent)
        except BaseException as exc:
            payload = exc
        data = pickle.dumps(payload)
        with open(result, "wb") as fh:  # EPIPE once the parent is gone
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _run_verify_suites(names: list[str], **kwargs) -> tuple[list, dict]:
    """The reports of the suites, in order, and the manifest's keys on
    how they ran: ``workers``, and each suite's wall seconds and worker.

    The suites share no state, and each builds its own generator from the
    seed, so any process may run any of them.  They wait in one work
    queue, costliest first (``SUITES_BY_COST``).  This process forks one
    child per further usable CPU, up to one process per suite, and then
    it and every child take the next suite until the queue is empty.
    The children inherit the imports and the per-grid caches; this
    process keeps its own warm from one run to the next.  Worker 0 is
    this process, k the k-th child.  A suite's exception drains the
    queue, so no process starts another suite, and is raised here with
    its own type after every child has ended.  On one CPU no process is
    forked.
    """
    workers = min(len(os.sched_getaffinity(0)), len(names))
    queue = _work_queue(names)
    # the suites' generators load numpy.random: once here, not in each child
    import numpy.random  # noqa: F401

    parent = os.getpid()
    children = {}  # pid -> read end of its result pipe, until reaped
    try:
        for _ in range(workers - 1):
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                # an earlier child's result pipe must close when the parent dies
                _child(queue, result_w, (result_r, *children.values()), parent,
                       names, kwargs)
            os.close(result_w)
            children[pid] = result_r
        parts = {index: (0, part) for index, part in _work(queue, names, kwargs)}
        for k, (pid, result_r) in enumerate(list(children.items()), 1):
            with open(result_r, "rb", closefd=False) as fh:
                data = fh.read()
            os.close(children.pop(pid))
            status = os.waitpid(pid, 0)[1]
            if not data:
                raise RuntimeError(f"verify worker {k} sent no result "
                                   f"(exit status {os.waitstatus_to_exitcode(status)})")
            payload = pickle.loads(data)
            if isinstance(payload, BaseException):
                raise payload
            parts.update((index, (k, part)) for index, part in payload)
    finally:
        for pid, result_r in children.items():
            os.close(result_r)
            os.waitpid(pid, 0)
        os.close(queue)
    ran = [parts[i] for i in range(len(names))]
    reports = [rep for _, (suite_reports, _) in ran for rep in suite_reports]
    walls = {name: round(wall, 4) for name, (_, (_, wall)) in zip(names, ran)}
    where = {name: worker for name, (worker, _) in zip(names, ran)}
    return reports, {"workers": workers, "suite_wall_s": walls, "suite_worker": where}


def cmd_verify(args) -> int:
    t0 = time.time()
    suites = args.suite.split(",")
    try:
        names = resolve_suites([s.strip() for s in suites])
    except KeyError as exc:
        raise argparse.ArgumentError(None, f"--suite: {exc.args[0]}") from exc
    reports, runs = _run_verify_suites(
        names,
        seed=args.seed,
        n_lambda=args.lambda_grid,
        n_pairs=args.pairs,
        n_members=args.members,
    )
    for rep in reports:
        print(rep.to_line())
    snapshot = {"suites": suites, "seed": args.seed, "lambda_grid": args.lambda_grid}
    write_reports_json(args.out, reports, meta=snapshot)
    _write_manifest(args, "verify", snapshot, t0, **runs)
    ok = all_passed(reports)
    print(("all checks passed" if ok else "CHECKS FAILED") + f", wrote {args.out}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


_FIG2_WINDOWS = (
    ("small", 2.0),
    ("medium", 60.0),
    ("large", 3e3),
    ("huge", None),  # up to the cutoff
)


def cmd_figure2(args) -> int:
    t0 = time.time()
    cfg, snapshot = _run_solve_config(args)
    res = _solve_or_exit(cfg)
    f = res.grid_function
    lower, upper = envelope_curves(cfg.coupling, f.nodes)
    g0b = np.exp(f.values)
    rows = []
    for label, b_max in _FIG2_WINDOWS:
        cap = cfg.lambda2 if b_max is None else b_max
        sel = f.nodes <= cap
        for b, g, lo, up in zip(f.nodes[sel], g0b[sel], lower[sel], upper[sel]):
            rows.append([label, b, g, lo, up])
    _emit(args, "figure2", snapshot, t0,
          ["window", "b", "g0b", "lower_envelope", "upper_envelope"], [rows],
          dict(snapshot, iterations=res.iterations, residual=res.residual),
          res.history)
    print(f"wrote {args.out} ({len(rows)} rows over four windows)")
    return EXIT_OK


def cmd_gab(args) -> int:
    t0 = time.time()
    cfg, snapshot = _run_solve_config(args)
    if cfg.coupling.abs_lambda == 0.0:
        raise argparse.ArgumentError(
            None, f"--lambda={args.lam:g}: reconstruction needs a strictly negative coupling")
    if not 0.0 < args.a_min <= args.a_max < cfg.lambda2:
        raise argparse.ArgumentError(
            None,
            f"--a-min={args.a_min} and --a-max={args.a_max} must satisfy "
            f"0 < a-min <= a-max < cutoff ({cfg.lambda2:g})",
        )
    res = _solve_or_exit(cfg)
    rec = TwoPointReconstruction(res.grid_function, cfg.coupling)
    grid = np.geomspace(args.a_min, args.a_max, args.grid)
    table = rec.table(grid, grid)
    # a -> 0 block: the extrapolated boundary limit against the solved edge
    limits, deviation = rec.boundary_limits(grid)
    zeros = np.zeros_like(grid)
    edge = np.column_stack([zeros, grid, zeros, limits, deviation])
    snapshot = dict(snapshot, grid=args.grid, a_min=args.a_min, a_max=args.a_max)
    _emit(args, "gab", snapshot, t0, ["a", "b", "tau", "g_ab", "symmetry_defect"],
          [table, edge], snapshot, res.history)
    print(f"wrote {args.out} ({len(table) + len(edge)} rows)")
    return EXIT_OK


def _count(text: str, least: int = 1) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if n < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
    return n


def _seed(text: str) -> int:
    return _count(text, 0)


def _parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = _Parser(
        prog="carleman-fp",
        description="Fixed-point solver and certification suite for the "
        "boundary two-point function",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, out, summary in (
        ("solve", "solution.csv", "run the fixed-point iteration"),
        ("verify", "verification.json", "run certification suites"),
        ("figure2", "figure2.csv", "emit the envelope comparison dataset"),
        ("gab", "gab.csv", "reconstruct the two-variable function"),
    ):
        p = sub.add_parser(
            name, help=summary, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        p.add_argument("--out", default=out, help="output file")
        p.add_argument("--manifest", help="None writes OUT.manifest.json")
        p.add_argument("--config", help="flat key=value file of defaults; flags win")
        if name == "verify":
            continue
        p.add_argument("--lambda", dest="lam", type=float,
                       default=-1.0 / (2.0 * math.pi) if name == "figure2" else None,
                       help="coupling constant in [-1/6, 0]")
        p.add_argument("--cutoff", type=float, default=1e6, help="grid cutoff")
        p.add_argument("--nodes", type=int, default=2000, help="grid size")
        p.add_argument("--tol", type=float, default=1e-8, help="norm tolerance")
        p.add_argument("--max-iters", dest="max_iters", type=_count, default=500,
                       help="iteration cap")
        p.add_argument("--damping", type=float, default=1.0,
                       help="mixing factor beta in (0, 1]")
        p.add_argument("--exploratory", action="store_true",
                       help="widen the coupling range to (-1/pi, 0] (diagnostic only)")

    p = sub.choices["verify"]
    p.add_argument("--suite", default="all",
                   help="comma list of " + "|".join(sorted(SUITES)) + "|all")
    p.add_argument("--lambda-grid", dest="lambda_grid", type=_count, default=200,
                   help="couplings in the ck scans")
    p.add_argument("--seed", type=_seed, default=0, help="random-member seed")
    p.add_argument("--pairs", type=_count, default=10, help="pairs per coupling")
    p.add_argument("--members", type=_count, default=10, help="members per coupling")

    p = sub.choices["gab"]
    p.add_argument("--grid", type=_count, default=12, help="points per axis")
    p.add_argument("--a-min", dest="a_min", type=float, default=1e-2, help="first point")
    p.add_argument("--a-max", dest="a_max", type=float, default=1e2, help="last point")
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _parser()
    args = parser.parse_args(argv)
    command = commands[args.command]
    if args.config:
        # the file's values become the command's defaults; flags still win
        command.set_defaults(**_config_defaults(command, args.config))
        args = parser.parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "verify": cmd_verify,
        "figure2": cmd_figure2,
        "gab": cmd_gab,
    }
    try:
        return handlers[args.command](args)
    except argparse.ArgumentError as exc:  # a setting argparse cannot check
        command.error(str(exc))
    except MemoryError as exc:  # here, or pickled from a verify worker
        sizes = " or ".join(opt for a in command._actions for opt in a.option_strings
                            if opt in ("--nodes", "--grid", "--lambda-grid"))
        command.error(f"out of memory ({str(exc) or 'MemoryError'}); lower {sizes}")


if __name__ == "__main__":
    sys.exit(main())
