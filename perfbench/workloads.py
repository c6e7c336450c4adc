"""The benchmark's workloads: inputs drawn from the seed, one operation each,
and a check of every operation's output against fixed budgets.

A workload runs as a closed loop with one client.  ``rounds`` yields lists
of operation inputs; the loop stops only between rounds, so a run of
``solve-production`` always holds as many operations at one coupling as at
the other and its median does not depend on where the clock ran out.
``op`` is the timed part.  ``check`` runs after the timed loop; it raises
``CheckFailed`` or returns the accuracy values of the operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from carlemanfp import cli, solver
from carlemanfp.coupling import Coupling
from carlemanfp.gab import TwoPointReconstruction
from carlemanfp.grids import QuadratureConfig, log_envelope_function, make_nodes
from carlemanfp.hilbert import HilbertOfExp, hilbert_power_law
from carlemanfp.solver import SolverConfig, consistency_residual
from carlemanfp.verification import SUITES

FIG_LAMBDA = -1.0 / (2.0 * math.pi)
EDGE_LAMBDA = -1.0 / 6.0
CUTOFF = 1e6
TOL = 1e-8
PRODUCTION_NODES = 2000

CONSISTENCY_BUDGET = 1e-6  # acceptance criterion 08
TAIL_LAW_BUDGET = 1e-6     # fitted tail exponent against the exact arcsin law
GAB_BUDGET = 1e-3          # a -> 0 limit against exp f(b), as in test_gab
GAB_GRID = 12              # carleman-fp gab --grid default
GAB_JITTER_DECADES = 0.1   # the seed moves each a-grid end by up to this

SOLVE_HEADER = ["b", "f", "g0b", "lower_envelope", "upper_envelope"]


class CheckFailed(AssertionError):
    """An operation's output is missing, malformed or outside its budget."""


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def tail_law(lam: float) -> float:
    """Exact tail exponent -(1 - arcsin(|lam| pi)/pi) of exp f, taken from
    the exact solution of the model (Grosse-Hock-Wulkenhaar,
    arXiv:1908.04543), not from this code."""
    return -(1.0 - math.asin(abs(lam) * math.pi) / math.pi)


def pv_oracle_err(nodes: int) -> float:
    """Acceptance criterion 01: worst relative error of the power-law PV
    transform against its closed form, on the workload's grid size."""
    cfg = QuadratureConfig(n_nodes=nodes, lambda2=CUTOFF)
    grid = make_nodes(nodes, CUTOFF)
    a = np.geomspace(1e-3, 1e3, 30)
    worst = 0.0
    for mu in (0.1, 0.25, 0.45):
        got = HilbertOfExp(log_envelope_function(grid, mu - 1.0), cfg).quotient(a)
        worst = max(worst, float(np.max(np.abs(got / hilbert_power_law(1.0, mu, a) - 1.0))))
    return worst


def run_cli(argv: list[str]) -> int:
    """carleman-fp in-process, its printing kept off the worker's output;
    returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


@contextlib.contextmanager
def capture_solve(store: dict):
    """Keep the SolveResult behind ``carleman-fp solve`` for its check.

    The CLI's own ``solve`` binding is routed through ``solver.solve``,
    looked up at call time, so a traced ``solver.solve`` is still traced.
    """
    bound = cli.solve

    def solve_and_keep(*args, **kwargs):
        store["result"] = solver.solve(*args, **kwargs)
        return store["result"]

    cli.solve = solve_and_keep
    try:
        yield
    finally:
        cli.solve = bound


def read_solution_csv(path: Path) -> tuple[dict, list[str], np.ndarray]:
    meta, header, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, sep, value = line[1:].strip().partition("=")
                if sep:
                    meta[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(cell) for cell in line.split(",")])
    return meta, header, np.asarray(rows)


class SolveProduction:
    """carleman-fp solve at production size, once per coupling in a round."""

    name = "solve-production"

    def __init__(self, nodes: int = PRODUCTION_NODES):
        self.nodes = nodes

    def params(self) -> dict:
        return {"lambdas": [FIG_LAMBDA, EDGE_LAMBDA], "cutoff": CUTOFF,
                "nodes": self.nodes, "tol": TOL}

    def setup(self) -> None:
        pass

    def rounds(self, rng: np.random.Generator):
        while True:
            yield [float(lam) for lam in rng.permutation([FIG_LAMBDA, EDGE_LAMBDA])]

    def op(self, lam: float, workdir: Path, k: int) -> dict:
        out = workdir / f"solve-{k}.csv"
        kept: dict = {}
        with capture_solve(kept):
            code = run_cli([
                "solve", f"--lambda={lam!r}", f"--cutoff={CUTOFF:g}",
                f"--nodes={self.nodes}", f"--tol={TOL:g}", f"--out={out}",
            ])
        return {"code": code, "csv": out, "result": kept.get("result")}

    def check(self, lam: float, out: dict) -> dict:
        _require(out["code"] == 0, f"exit code {out['code']}")
        meta, header, rows = read_solution_csv(out["csv"])
        _require(header == SOLVE_HEADER, f"unexpected CSV header {header}")
        _require(rows.shape == (self.nodes, 5), f"CSV holds {rows.shape} cells")
        _require(np.all(np.isfinite(rows)), "non-finite CSV cells")
        b, f, g, lower, upper = rows.T
        # The solver lets the scaled derivative leave its band by
        # envelope_slack; integrated from 0 that allows exp f to pass an
        # envelope by the relative amount slack * log(1 + b).
        slack = SolverConfig.envelope_slack * np.log1p(b)
        _require(np.all(g >= lower * (1.0 - slack)), "exp f below the lower envelope")
        _require(np.all(g <= upper * (1.0 + slack)), "exp f above the upper envelope")
        res = out["result"]
        _require(res is not None, "solve returned no result")
        fn = res.grid_function
        _require(np.array_equal(fn.nodes, b) and np.array_equal(fn.values, f),
                 "CSV does not hold the solved boundary function")
        coupling = Coupling(lam)
        residual = consistency_residual(
            fn, coupling, QuadratureConfig(n_nodes=self.nodes, lambda2=CUTOFF)
        )
        _require(residual < CONSISTENCY_BUDGET, f"consistency residual {residual:.3e}")
        tail_err = abs(float(meta["tail_exponent"]) - tail_law(lam))
        _require(tail_err <= TAIL_LAW_BUDGET, f"tail exponent off the law by {tail_err:.3e}")
        return {
            "solver.consistency_residual": residual,
            "solver.tail_law_err": tail_err,
            "solver.iterations": int(meta["iterations"]),
        }


class Certify:
    """carleman-fp verify --suite=all with a fresh suite seed per operation."""

    name = "certify"

    def __init__(self, nodes: int = PRODUCTION_NODES):
        self.nodes = nodes  # the suites fix their own grid sizes

    def params(self) -> dict:
        return {"suites": "all", "suite_seed_range": [0, 2**31 - 1]}

    def setup(self) -> None:
        pass

    def rounds(self, rng: np.random.Generator):
        while True:
            yield [int(rng.integers(0, 2**31 - 1))]

    def op(self, suite_seed: int, workdir: Path, k: int) -> dict:
        out = workdir / f"verify-{k}.json"
        code = run_cli(["verify", "--suite=all", f"--seed={suite_seed}", f"--out={out}"])
        return {"code": code, "json": out}

    def check(self, suite_seed: int, out: dict) -> dict:
        _require(out["code"] == 0, f"exit code {out['code']}")
        with open(out["json"]) as fh:
            payload = json.load(fh)
        _require(payload["meta"]["seed"] == suite_seed, "report written for another seed")
        reports = {r["lemma_id"]: r for r in payload["reports"]}
        for suite in SUITES:
            _require(any(i.startswith(suite + ".") for i in reports), f"no {suite} report")
        failing = [i for i, r in reports.items() if r["status"] != "pass"]
        _require(not failing, f"reports not passing: {failing}")
        # The record's margin is its 1e-6 budget minus the worst error.
        closed = reports["appendix.zero-input-closed-form"]
        return {"appendix.t0_closed_err": 1e-6 - closed["worst_margin"]}


class Reconstruct:
    """Post-solve work of carleman-fp gab on a seed-jittered a-grid.

    The boundary function is solved once, in set-up.
    """

    name = "reconstruct"

    def __init__(self, nodes: int = PRODUCTION_NODES):
        self.nodes = nodes
        self.coupling = Coupling(FIG_LAMBDA)

    def params(self) -> dict:
        return {"lambda": FIG_LAMBDA, "cutoff": CUTOFF, "nodes": self.nodes,
                "tol": TOL, "grid": GAB_GRID, "a_ends": [1e-2, 1e2],
                "jitter_decades": GAB_JITTER_DECADES}

    def setup(self) -> None:
        cfg = SolverConfig(coupling=self.coupling, lambda2=CUTOFF,
                           n_nodes=self.nodes, tol_lb=TOL)
        self.boundary = solver.solve(cfg).grid_function

    def rounds(self, rng: np.random.Generator):
        while True:
            lo, hi = 10.0 ** rng.uniform(-GAB_JITTER_DECADES, GAB_JITTER_DECADES, 2)
            yield [(1e-2 * lo, 1e2 * hi)]

    def op(self, ends: tuple[float, float], workdir: Path, k: int) -> dict:
        rec = TwoPointReconstruction(self.boundary, self.coupling)
        grid = np.geomspace(ends[0], ends[1], GAB_GRID)
        table = rec.table(grid, grid)
        limits = np.array([rec.boundary_limit(float(b)) for b in grid])
        return {"grid": grid, "table": table, "limits": limits}

    def check(self, ends: tuple[float, float], out: dict) -> dict:
        table, limits = out["table"], out["limits"]
        _require(table.shape == (GAB_GRID**2, 5), f"table shape {table.shape}")
        tau, g = table[:, 2], table[:, 3]
        _require(np.all(np.isfinite(g)) and np.all(g > 0.0), "G(a, b) not finite and positive")
        _require(np.all((tau >= 0.0) & (tau <= math.pi)), "angle off the [0, pi] branch")
        _require(np.all(np.isfinite(limits)) and np.all(limits > 0.0),
                 "boundary limit not finite and positive")
        ref = np.exp(self.boundary.at(out["grid"]))
        err = float(np.max(np.abs(limits - ref) / ref))
        _require(err <= GAB_BUDGET, f"boundary limit off exp f(b) by {err:.3e}")
        return {"gab.boundary_rel_err": err}


WORKLOADS = {w.name: w for w in (SolveProduction, Certify, Reconstruct)}
