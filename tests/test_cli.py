import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import carlemanfp
from carlemanfp import cli, verification
from carlemanfp.cli import EXIT_USAGE, _csv_lines, main
from carlemanfp.hilbert import QuadratureError
from carlemanfp.operators import PoleRegionError, TOperator
from carlemanfp.report import INCONCLUSIVE_BAND, Worst
from carlemanfp.solver import envelope_curves, solution_rows
from carlemanfp.verification import SUITES, run_suites

LAM = "-0.159154"


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    code = main(
        [
            "solve",
            f"--lambda={LAM}",
            "--cutoff=1e4",
            "--nodes=400",
            "--tol=1e-8",
            "--out",
            str(d / "sol.csv"),
        ]
    )
    assert code == 0
    return d


class TestSolve:
    def test_outputs_exist(self, solved_dir):
        csv = solved_dir / "sol.csv"
        manifest = solved_dir / "sol.csv.manifest.json"
        assert csv.exists() and manifest.exists()
        meta = json.loads(manifest.read_text())
        assert meta["command"] == "solve"
        assert meta["outputs"] == [str(csv)]
        assert meta["config"]["nodes"] == 400
        history = meta["history"]
        assert [h["iteration"] for h in history] == list(range(1, len(history) + 1))
        assert set(history[0]) == {
            "iteration", "lb_distance", "residual", "envelope_min_margin", "mixing_depth",
        }
        assert history[0]["mixing_depth"] == 0
        assert history[-1]["residual"] < 1e-8

    def test_csv_shape_and_envelopes(self, solved_dir):
        lines = (solved_dir / "sol.csv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "b,f,g0b,lower_envelope,upper_envelope"
        data = np.loadtxt(
            [l for l in lines if not l.startswith("#")][1:], delimiter=","
        )
        assert data.shape == (400, 5)
        assert np.all(data[:, 3] <= data[:, 2] + 1e-12)
        assert np.all(data[:, 2] <= data[:, 4] + 1e-12)

    def test_range_guard_exit_code(self, tmp_path):
        code = run(["solve", "--lambda=-0.2", "--out", str(tmp_path / "x.csv")])
        assert code == 4
        assert run(["solve", "--lambda=0.1", "--out", str(tmp_path / "x.csv")]) == 4

    def test_exploratory_bypass(self, tmp_path):
        code = run(
            [
                "solve", "--lambda=-0.2", "--exploratory", "--nodes=300",
                "--cutoff=1e4", "--out", str(tmp_path / "ex.csv"),
            ]
        )
        assert code == 0  # just past the stability range the iteration still lands

    def test_exploratory_numerical_breakdown_exit(self, tmp_path, capsys):
        # past -1/pi R(t)/t would tend to sqrt(1 - (lambda pi)^2), which is
        # not real: the run that once iterated into a numerical breakdown
        # (exit 2) is refused as an input error before it starts
        out = tmp_path / "x.csv"
        for lam in ("-0.45", "-0.3184", str(-1.0 / math.pi)):
            code = run(
                [
                    "solve", f"--lambda={lam}", "--exploratory", "--nodes=300",
                    "--cutoff=1e4", "--max-iters=20", "--out", str(out),
                ]
            )
            assert code == EXIT_USAGE
            err = capsys.readouterr().err
            assert "-1/pi" in err and "sqrt(1 - (lambda pi)^2)" in err
        assert not out.exists()

    def test_envelope_escape_exit_code(self, tmp_path, capsys):
        # at the range edge 64 nodes are too coarse: the first image leaves
        # the band, and the one-line message names the remedy
        out = tmp_path / "esc.csv"
        code = run(["solve", "--lambda=-0.16666666666666666", "--nodes=64",
                    "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "--nodes" in err
        assert list(tmp_path.iterdir()) == []

    def test_exploratory_envelope_escape_exit_code(self, tmp_path, capsys):
        # an exploratory run keeps the band check; past -1/6 the message
        # does not claim that T keeps the band
        out = tmp_path / "esc.csv"
        code = run(["solve", "--lambda=-0.25", "--exploratory", "--nodes=64",
                    "--cutoff=1e4", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "past -1/6" in err and "--nodes" in err
        assert list(tmp_path.iterdir()) == []

    def test_nonconvergence_exit_code(self, tmp_path):
        code = run(
            [
                "solve", f"--lambda={LAM}", "--nodes=300", "--cutoff=1e4",
                "--max-iters=2", "--out", str(tmp_path / "nc.csv"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("error", [QuadratureError, PoleRegionError])
    def test_numerical_failure_exit_code(self, error, tmp_path, capsys, monkeypatch):
        # a transform that breaks down inside the iteration ends the run
        # with exit 2 and one line, before any output is written
        def broken(self, f, require_positive=True):
            raise error("injected breakdown")

        monkeypatch.setattr(TOperator, "apply", broken)
        code = run(["solve", f"--lambda={LAM}", "--nodes=300", "--cutoff=1e4",
                    "--out", str(tmp_path / "nf.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["solve failed numerically: injected breakdown"]
        assert list(tmp_path.iterdir()) == []

    def test_deterministic_output(self, tmp_path):
        # lambda = 0 skips the operator; -0.05 runs it and the mixing step;
        # gab adds the reconstruction transforms
        runs = [
            ["solve", "--lambda=0", "--nodes=200"],
            ["solve", "--lambda=-0.05", "--nodes=200"],
            ["gab", f"--lambda={LAM}", "--nodes=300", "--grid=4"],
        ]
        for k, run in enumerate(runs):
            args = run + ["--cutoff=1e4", "--out"]
            a, b = tmp_path / f"a{k}.csv", tmp_path / f"b{k}.csv"
            assert main(args + [str(a)]) == 0
            assert main(args + [str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()

    def test_config_file_precedence(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("lambda=-0.05\ncutoff=1e4\nnodes=200\n# comment\n")
        out = tmp_path / "c.csv"
        code = main(["solve", "--config", str(cfgfile), "--nodes=150", "--out", str(out)])
        assert code == 0
        meta = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert meta["config"]["nodes"] == 150  # flag beats config file
        assert meta["config"]["lambda"] == -0.05  # config beats default

        cfgfile.write_text("seed=7\nsuite=lemma4\nlambda-grid=50\n")
        out = tmp_path / "v.json"
        code = main(["verify", "--config", str(cfgfile), "--seed=3", "--out", str(out)])
        assert code == 0
        meta = json.loads((tmp_path / "v.json.manifest.json").read_text())
        assert meta["config"]["seed"] == 3  # flag beats config file
        assert meta["config"]["suites"] == ["lemma4"]  # config beats "all"
        assert meta["config"]["lambda_grid"] == 50  # config beats 200

        cfgfile.write_text(
            f"lambda={LAM}\ncutoff=1e4\nnodes=300\ngrid=4\na-min=0.1\nmax-iters=50\n"
        )
        out = tmp_path / "g.csv"
        code = main(["gab", "--config", str(cfgfile), "--grid=3", "--out", str(out)])
        assert code == 0
        meta = json.loads((tmp_path / "g.csv.manifest.json").read_text())
        assert meta["config"]["grid"] == 3  # flag beats config file
        assert meta["config"]["a_min"] == 0.1  # config beats 1e-2
        assert meta["config"]["max_iters"] == 50  # config beats 500
        assert meta["config"]["a_max"] == 100.0  # default

    def test_config_cannot_bypass_range_guard(self, tmp_path, capsys):
        # a switch read from a file would turn "false" into a truthy string
        cfgfile = tmp_path / "run.cfg"
        out = tmp_path / "x.csv"
        for value in ("true", "false"):
            cfgfile.write_text(f"lambda=-0.2\nexploratory={value}\n")
            code = run(["solve", "--config", str(cfgfile), "--out", str(out)])
            assert code == EXIT_USAGE
            assert "exploratory" in capsys.readouterr().err
        assert not out.exists()


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "argv, cfg_text, named",
    [
        (["solve", "--bogus"], None, "--bogus"),
        (["solve", f"--lambda={LAM}", "--nodes=x"], None, "--nodes"),
        (["solve", "--config", "{missing}"], None, "missing.cfg"),
        (["solve", "--config", "{cfg}"], "lambda=-0.05\nnodes\n", "nodes"),
        (["solve", "--config", "{cfg}"], "lambda=-0.05\nnode=150\n", "node"),
        (["solve", "--config", "{cfg}"], "lambda=-0.05\nnodes=abc\n", "--nodes"),
        (["solve", "--config", "{cfg}"], "lambda=-0.05\ngrid=4\n", "grid"),
        (["verify", "--config", "{cfg}"], "nodes=300\n", "nodes"),
        (["solve", "--config", "{cfg}"], "lambda=-0.05\nconfig=x\n", "config"),
        (["solve"], None, "--lambda"),
        (["gab", "--nodes=300"], None, "--lambda"),
        (["solve", f"--lambda={LAM}", "--nodes=10"], None, "n_nodes"),
        (["solve", f"--lambda={LAM}", "--damping=0"], None, "damping"),
        (["solve", f"--lambda={LAM}", "--tol=0"], None, "tolerance"),
        (["solve", f"--lambda={LAM}", "--max-iters=0"], None, "--max-iters"),
        (["solve", "--lambda=-0.6", "--exploratory"], None, "coupling"),
        (["verify", "--pairs=0"], None, "--pairs"),
        (["verify", "--members=0"], None, "--members"),
        (["verify", "--suite=ck", "--lambda-grid=0"], None, "--lambda-grid"),
        (["gab", f"--lambda={LAM}", "--grid=0"], None, "--grid"),
        (["solve", "--lambda=-0.1", "--cutoff=1", "--nodes=100"], None, "cutoff"),
        (["solve", f"--lambda={LAM}", "--cutoff=inf"], None, "cutoff"),
        (["solve", f"--lambda={LAM}", "--cutoff=nan"], None, "cutoff"),
        (["solve", f"--lambda={LAM}", "--tol=nan"], None, "tolerance"),
        (["solve", f"--lambda={LAM}", "--tol=inf"], None, "tolerance"),
        (["gab", f"--lambda={LAM}", "--a-min=-1"], None, "--a-min"),
        (["gab", f"--lambda={LAM}", "--a-min=nan"], None, "--a-min"),
        (["gab", f"--lambda={LAM}", "--a-max=1e6"], None, "--a-max"),
        (["gab", f"--lambda={LAM}", "--cutoff=1e4", "--a-max=2e4"], None, "--a-max"),
        (["gab", f"--lambda={LAM}", "--a-min=10", "--a-max=1"], None, "--a-min"),
        (["verify", "--suite=nope"], None, "nope"),
        (["verify", "--suite=prop4,nope"], None, "nope"),
        (["verify", "--suite=all,nope"], None, "nope"),
        # a coupling that is not a finite number is a usage error, not a
        # coupling outside the stability range
        (["solve", "--lambda=nan"], None, "coupling"),
        (["solve", "--lambda=-inf"], None, "coupling"),
        (["solve", "--lambda=nan", "--exploratory"], None, "coupling"),
        (["solve", "--lambda=-inf", "--exploratory"], None, "coupling"),
        (["solve", "--lambda=0.1", "--exploratory"], None, "coupling"),
        # a negative seed, by flag or key, before any suite draws from it
        (["verify", "--seed=-1"], None, "--seed"),
        (["verify", "--config", "{cfg}"], "seed=-2\n", "--seed"),
        # the reconstruction needs a negative coupling: refused before the solve
        (["gab", "--lambda=0"], None, "--lambda"),
        (["gab", "--lambda=-0.0"], None, "--lambda"),
        # a count that is not an integer is named in the project's terms
        (["verify", "--seed=x"], None, "--seed: must be an integer, got 'x'"),
        (["verify", "--pairs=x"], None, "--pairs: must be an integer, got 'x'"),
        (["solve", f"--lambda={LAM}", "--max-iters=x"], None,
         "--max-iters: must be an integer, got 'x'"),
    ],
)
def test_input_errors_exit_usage(tmp_path, capsys, argv, cfg_text, named):
    cfg = _write(tmp_path, "run.cfg", cfg_text) if cfg_text is not None else None
    out = tmp_path / "out.csv"
    argv = [
        a.format(cfg=cfg, missing=tmp_path / "missing.cfg") for a in argv
    ] + ["--out", str(out)]
    assert run(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and named in err
    assert list(tmp_path.iterdir()) == ([tmp_path / "run.cfg"] if cfg else [])


class TestVerify:
    def test_appendix_suite(self, tmp_path):
        out = tmp_path / "rep.json"
        code = main(
            ["verify", "--suite=appendix", "--out", str(out), "--manifest",
             str(tmp_path / "m.json")]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        ids = {r["lemma_id"] for r in payload["reports"]}
        assert "appendix.residue-integral" in ids
        assert all(r["status"] == "pass" for r in payload["reports"])

    def test_empty_scan_certifies_nothing(self):
        reports = run_suites(
            ["prop4", "prop5", "equicont", "ck"], seed=0, n_pairs=0, n_members=0,
            n_lambda=0,
        )
        aux = [r.to_dict() for r in reports if r.lemma_id.startswith("prop5.aux")]
        scans = [r for r in reports if not r.lemma_id.startswith("prop5.aux")]
        assert len(scans) == 11
        assert all(r.status == "fail" for r in scans)
        # the auxiliary suprema sample no pairs, so they do not change
        sampled = run_suites(["prop5"], seed=0, n_pairs=1)
        assert len(aux) == 6
        assert aux == [r.to_dict() for r in sampled if r.lemma_id.startswith("prop5.aux")]

    @pytest.mark.parametrize("suite", ["ck", "prop4", "prop5", "equicont"])
    def test_settings_have_one_home(self, suite):
        # the command line owns the defaults; a library call must name them
        with pytest.raises(TypeError):
            run_suites([suite])

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_inconclusive_report_fails_the_run(self, cpus, tmp_path, capsys, monkeypatch):
        # a strict margin inside the trust band neither passes nor fails
        # its report, and the run does not count it as passed
        def thin(**_):
            worst = Worst()
            worst.add(INCONCLUSIVE_BAND / 2.0, lambda _: None)
            return [worst.report("thin", "one point")]

        monkeypatch.setitem(verification.SUITES, "lemma4", thin)
        use_cpus(monkeypatch, cpus)
        out = tmp_path / "rep.json"
        code = run(["verify", "--suite=lemma3,lemma4", "--out", str(out)])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("CHECKS FAILED")
        statuses = [r["status"] for r in json.loads(out.read_text())["reports"]]
        assert statuses == ["pass"] * 6 + ["inconclusive"]

    def test_unknown_suite(self, tmp_path, capsys):
        code = run(["verify", "--suite=nope", "--out", str(tmp_path / "r.json")])
        assert code == EXIT_USAGE
        assert "unknown suite 'nope'" in capsys.readouterr().err
        with pytest.raises(KeyError):  # the library call still raises
            run_suites(["nope"])


def use_cpus(monkeypatch, count: int) -> None:
    """Make the command see ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def assert_no_child() -> None:
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def children_of(pid: int) -> list[int]:
    """The processes whose parent is ``pid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except (FileNotFoundError, ProcessLookupError):  # it has ended
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry.name))
    return found


def gone_or_zombie(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


class TestVerifyProcesses:
    """The suites wait in one work queue, costliest first; with more than
    one usable CPU the verify process and one forked child per further
    CPU take them, on one CPU the verify process alone.  The report is
    the same."""

    @pytest.mark.parametrize("argv", [
        ["--suite=all", "--seed=0"],
        ["--suite=all", "--seed=1"],
        ["--suite=all", "--seed=2"],
        ["--suite=prop4,lemma4"],
        ["--suite=prop4,lemma4,prop4"],
    ])
    def test_pooled_and_one_cpu_reports_are_identical(self, argv, tmp_path, monkeypatch):
        outs = {}
        for cpus in (1, 2):
            with monkeypatch.context() as m:
                use_cpus(m, cpus)
                outs[cpus] = tmp_path / f"cpus{cpus}.json"
                assert main(["verify", *argv, "--out", str(outs[cpus])]) == 0
            manifest = json.loads((tmp_path / f"cpus{cpus}.json.manifest.json").read_text())
            assert manifest["workers"] == cpus
            assert_no_child()
        assert outs[1].read_bytes() == outs[2].read_bytes()

    @pytest.mark.parametrize("suite, ran", [
        ("lemma3,lemma4", ["lemma3", "lemma4"]),
        ("lemma4", ["lemma4"]),
        ("all", list(SUITES)),
    ])
    def test_manifest_times_each_suite_that_ran(self, suite, ran, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["verify", f"--suite={suite}", "--lambda-grid=4", "--pairs=1",
                     "--members=1", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "rep.json.manifest.json").read_text())
        walls = manifest["suite_wall_s"]
        assert sorted(walls) == sorted(ran)
        assert all(wall >= 0.0 for wall in walls.values())
        workers = min(len(os.sched_getaffinity(0)), len(ran))
        assert manifest["workers"] == workers
        assert sorted(manifest["suite_worker"]) == sorted(ran)
        assert set(manifest["suite_worker"].values()) <= set(range(workers))

    def test_one_cpu_starts_no_process(self, tmp_path, monkeypatch):
        use_cpus(monkeypatch, 1)

        def refuse(*_):
            raise AssertionError("a process was started")

        monkeypatch.setattr(os, "fork", refuse)
        out = tmp_path / "rep.json"
        assert main(["verify", "--suite=lemma3,lemma4,appendix", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "rep.json.manifest.json").read_text())
        assert manifest["workers"] == 1
        assert manifest["suite_worker"] == {"lemma3": 0, "lemma4": 0, "appendix": 0}

    def test_costliest_suite_runs_first(self, tmp_path, monkeypatch):
        use_cpus(monkeypatch, 1)
        taken = []

        def spy(name, **kwargs):
            taken.append(name)
            return real(name, **kwargs)

        real = cli._timed_suite
        monkeypatch.setattr(cli, "_timed_suite", spy)
        out = tmp_path / "rep.json"
        assert main(["verify", "--suite=all", "--lambda-grid=4", "--pairs=1",
                     "--members=1", "--out", str(out)]) == 0
        assert taken == list(verification.SUITES_BY_COST)
        assert taken[0] == "prop5"
        # the report keeps the order of the suites named
        order = [r["lemma_id"].split(".")[0] for r in json.loads(out.read_text())["reports"]]
        assert list(dict.fromkeys(order)) == list(SUITES)

    def test_cost_order_names_every_suite_once(self):
        assert sorted(verification.SUITES_BY_COST) == sorted(SUITES)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_failing_suite_raises_its_own_error(self, cpus, tmp_path, monkeypatch):
        def broken(**_):
            raise QuadratureError("injected failure")

        monkeypatch.setitem(verification.SUITES, "lemma4", broken)
        use_cpus(monkeypatch, cpus)
        out = tmp_path / "rep.json"
        with pytest.raises(QuadratureError, match="injected failure") as excinfo:
            main(["verify", "--suite=lemma3,lemma4,ck", "--lambda-grid=4", "--out", str(out)])
        assert excinfo.type is QuadratureError
        assert_no_child()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cpus, failing", [(1, "parent"), (2, "parent"), (2, "child")])
    def test_no_suite_starts_after_a_failure(self, cpus, failing, tmp_path, monkeypatch):
        # the suite fails in the process named; in the other it waits
        # until the failing process has drained the queue, so that it
        # cannot take every suite first
        log, drained = tmp_path / "started", tmp_path / "drained"
        here = os.getpid()

        def suite(**_):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            if (os.getpid() == here) == (failing == "parent"):
                raise QuadratureError("injected failure")
            deadline = time.monotonic() + 10.0
            while not drained.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
            return []

        def drain(queue):
            real_drain(queue)
            drained.write_text(str(os.getpid()))

        real_drain = cli._drain
        monkeypatch.setattr(cli, "_drain", drain)
        monkeypatch.setitem(verification.SUITES, "lemma4", suite)
        use_cpus(monkeypatch, cpus)
        out = tmp_path / "out" / "rep.json"
        with pytest.raises(QuadratureError, match="injected failure") as excinfo:
            main(["verify", "--suite=" + ",".join(["lemma4"] * 6), "--out", str(out)])
        assert excinfo.type is QuadratureError
        assert_no_child()
        assert (int(drained.read_text()) == here) == (failing == "parent")
        starts = log.read_text().split()
        assert len(starts) == len(set(starts)) <= cpus  # one suite per process at most
        assert not out.parent.exists()

    def test_a_child_that_dies_is_reported(self, tmp_path, monkeypatch):
        # the child dies without a result; the verify process waits for
        # that, so that it cannot take both suites first
        died = tmp_path / "died"
        here = os.getpid()

        def suite(**_):
            if os.getpid() != here:
                died.touch()
                os._exit(3)
            deadline = time.monotonic() + 10.0
            while not died.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
            return []

        monkeypatch.setitem(verification.SUITES, "lemma4", suite)
        use_cpus(monkeypatch, 2)
        out = tmp_path / "out" / "rep.json"
        with pytest.raises(RuntimeError, match=r"worker 1 sent no result \(exit status 3\)"):
            main(["verify", "--suite=lemma4,lemma4", "--out", str(out)])
        assert_no_child()
        assert not out.parent.exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_queue_longer_than_the_pipe_is_refused(self, cpus, tmp_path, monkeypatch, capsys):
        def refuse(*_, **__):
            raise AssertionError("a suite ran or a process was started")

        use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(cli, "_timed_suite", refuse)
        out = tmp_path / "rep.json"
        code = run(["verify", "--suite=" + ",".join(["lemma4"] * 40_000), "--out", str(out)])
        assert code == EXIT_USAGE
        assert "40000 suites are more than the work queue holds" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
    @pytest.mark.parametrize("suites", ["all", ",".join(["prop5"] * 80)], ids=["all", "long"])
    def test_killing_verify_ends_its_child(self, suites, tmp_path):
        src = str(Path(carlemanfp.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "carlemanfp.cli", "verify", f"--suite={suites}",
             "--out", str(tmp_path / "rep.json")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60.0
            while not (children := children_of(proc.pid)):
                assert proc.poll() is None, "verify ended before its child was seen"
                assert time.monotonic() < deadline, "verify forked no child"
                time.sleep(0.001)
        finally:
            proc.kill()
            proc.wait(timeout=60)
        deadline = time.monotonic() + 5.0
        while not all(map(gone_or_zombie, children)):
            assert time.monotonic() < deadline, f"child {children} outlived verify by 5 s"
            time.sleep(0.01)


class TestFigure2:
    def test_windows_and_containment(self, tmp_path):
        out = tmp_path / "fig2.csv"
        code = main(
            ["figure2", "--cutoff=1e4", "--nodes=300", "--out", str(out)]
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        rows = [l.split(",") for l in lines[1:]]
        windows = {r[0] for r in rows}
        assert windows == {"small", "medium", "large", "huge"}
        data = np.array([[float(x) for x in r[1:]] for r in rows])
        b, g, lo, up = data.T
        assert np.all(lo <= g + 1e-12)
        assert np.all(g <= up + 1e-12)
        first = rows[0]
        assert float(first[1]) == 0.0 and float(first[2]) == 1.0
        assert float(first[3]) == 1.0 and float(first[4]) == 1.0


class TestGab:
    def test_table_and_boundary_block(self, tmp_path):
        out = tmp_path / "gab.csv"
        code = main(
            [
                "gab",
                f"--lambda={LAM}",
                "--cutoff=1e4",
                "--nodes=300",
                "--grid=4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "a,b,tau,g_ab,symmetry_defect"
        data = np.loadtxt(lines[1:], delimiter=",")
        assert data.shape == (4 * 4 + 4, 5)
        interior = data[: 16]
        assert np.all(interior[:, 3] > 0.0)
        boundary = data[16:]
        assert np.all(boundary[:, 0] == 0.0)
        # the a->0 block's defect column holds the boundary deviation
        assert np.all(boundary[:, 4] < 0.05)


def per_cell_csv(rows) -> str:
    """The CSV writer formatting one cell at a time, as the reference."""
    return "".join(
        ",".join(cell if isinstance(cell, str) else "%.17g" % cell for cell in row) + "\n"
        for row in rows
    )


def test_csv_rows_match_the_per_cell_writer(small_solution, rng):
    cfg, res = small_solution
    f = res.grid_function
    lower, upper = envelope_curves(cfg.coupling, f.nodes)
    solve_rows = solution_rows(res, cfg.coupling)
    figure2_rows = [
        [label, b, g, lo, up]
        for label in ("small", "huge")
        for b, g, lo, up in zip(f.nodes, np.exp(f.values), lower, upper)
    ]
    table = rng.lognormal(sigma=30.0, size=(40, 5)) * rng.choice([-1.0, 1.0], (40, 5))
    gab_rows = [list(r) for r in table] + [
        [0.0, 3.0, -0.0, 5e-324, 1e300], [0.0, 0.1, 0.0, 1.0 / 3.0, 2.0**-1074]
    ]
    for rows in (solve_rows, figure2_rows, gab_rows):
        assert "".join(_csv_lines(rows)).encode() == per_cell_csv(rows).encode()
    # gab writes its table and its a -> 0 block as two arrays
    blocks = "".join(_csv_lines(table, np.array(gab_rows[-2:]), np.empty((0, 5))))
    assert blocks.encode() == per_cell_csv(gab_rows).encode()
