import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import carlemanfp

LAM = "-0.159154"


def test_public_names_resolve():
    missing = [name for name in carlemanfp.__all__ if not hasattr(carlemanfp, name)]
    assert not missing


def run_fresh(code: str, cwd: Path, roots=("scipy",)) -> list[str]:
    """Run ``code`` in a fresh interpreter on this source tree; returns
    the modules of the top-level packages ``roots`` loaded when it ends."""
    src = str(Path(carlemanfp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = code + (
        "\nimport json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r})))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestScipyStaysOffTheSolvePath:
    """Every command, and everything the benchmark worker imports, needs
    only numpy: no scipy module is loaded."""

    @pytest.mark.parametrize("code", [
        "import carlemanfp.cli, carlemanfp.verification",
        "from carlemanfp.cli import main\n"
        f"assert main(['solve', '--lambda={LAM}', '--cutoff=1e4', '--nodes=300',"
        " '--out', 'sol.csv']) == 0",
        "from carlemanfp.cli import main\n"
        f"assert main(['gab', '--lambda={LAM}', '--cutoff=1e4', '--nodes=300',"
        " '--grid=3', '--out', 'gab.csv']) == 0",
        "import json\n"
        "from carlemanfp.cli import main\n"
        "assert main(['verify', '--suite=all', '--out', 'rep.json']) == 0\n"
        "reports = json.load(open('rep.json'))['reports']\n"
        "assert reports and all(r['status'] == 'pass' for r in reports)",
    ], ids=["import", "solve", "gab", "verify"])
    def test_no_scipy_module_loaded(self, code, tmp_path):
        assert run_fresh(code, tmp_path) == []

    def test_no_module_imports_scipy(self):
        # also imports inside function bodies, which no fresh-interpreter
        # run reaches unless it calls that function
        package = Path(carlemanfp.__file__).resolve().parent
        offenders = []
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "scipy" for name in names):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


def test_cli_import_loads_no_process_pool(tmp_path):
    # verify forks its workers itself: no command, and no verify run on
    # any number of CPUs, pays for the process-pool modules
    pools = ("multiprocessing", "concurrent")
    assert run_fresh("import carlemanfp.cli", tmp_path, roots=pools) == []
    two_cpus = (
        "import json, os\n"
        "from carlemanfp.cli import main\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "assert main(['verify', '--suite=lemma3,lemma4', '--out', 'rep.json']) == 0\n"
        "assert json.load(open('rep.json.manifest.json'))['workers'] == 2"
    )
    assert run_fresh(two_cpus, tmp_path, roots=pools) == []


def test_no_nan_blind_guard():
    # `if np.any(x < lo): raise` lets NaN through, since every comparison
    # with NaN is false; a guard is written `if not np.all(<in range>)`,
    # or goes through carlemanfp.domain.checked
    package = Path(carlemanfp.__file__).resolve().parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.If):
                continue
            blind = any(
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "any"
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "np"
                and any(isinstance(arg, ast.Compare) for arg in call.args)
                for call in ast.walk(node.test)
            )
            raises = any(
                isinstance(sub, ast.Raise) for stmt in node.body for sub in ast.walk(stmt)
            )
            if blind and raises:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_one_worst_margin_rule():
    # every certificate scan folds its margins through report.Worst; a scan
    # that keeps its own running minimum (a name set to inf, an argmin or
    # argmax) can drop a NaN margin or certify a scan that sampled nothing
    package = Path(carlemanfp.__file__).resolve().parent

    def is_inf(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "inf"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("math", "np", "numpy")
        )

    def called(call):
        func = call.func
        return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)

    offenders = []
    for name in ("bounds.py", "verification.py"):
        path = package / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                value = node.value
                values = value.elts if isinstance(value, ast.Tuple) else [value]
                if any(is_inf(v) for v in values):
                    offenders.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.Call) and called(node) in (
                "argmin", "argmax", "nanargmin", "nanargmax"
            ):
                offenders.append(f"{name}:{node.lineno}")
            elif (
                isinstance(node, ast.Call)
                and name == "verification.py"
                and called(node) in ("make_report", "VerificationReport")
            ):
                # a report built outside Worst.report skips its rule
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


def test_scans_live_in_verification():
    # bounds holds the closed forms; every scan, with its grid and its
    # report, is a suite of verification
    path = Path(carlemanfp.__file__).resolve().parent / "bounds.py"
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            if "report" in {name.split(".")[-1] for name in names}:
                offenders.append(f"bounds.py:{node.lineno} imports report")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("geomspace", "linspace")
        ):
            offenders.append(f"bounds.py:{node.lineno} builds a grid")
    assert offenders == []


def test_suites_take_t_and_r_in_blocks():
    # the verify suites take T and R of their random members a block at a
    # time (verification._member_scan); a HilbertOfExp or an apply called in
    # the body of a loop, or of a comprehension, would go member by member
    path = Path(carlemanfp.__file__).resolve().parent / "verification.py"
    tree = ast.parse(path.read_text(), str(path))

    def per_member(node) -> bool:
        return isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "HilbertOfExp")
            or (isinstance(node.func, ast.Attribute)
                and node.func.attr in ("HilbertOfExp", "apply"))
        )

    offenders = set()
    for loop in ast.walk(tree):
        if isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
            bodies = loop.body + loop.orelse
        elif isinstance(loop, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            bodies = [loop.elt]
        elif isinstance(loop, ast.DictComp):
            bodies = [loop.key, loop.value]
        else:
            continue
        offenders |= {
            node.lineno for body in bodies for node in ast.walk(body) if per_member(node)
        }
    assert sorted(offenders) == []
