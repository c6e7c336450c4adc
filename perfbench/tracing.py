"""Per-layer spans for carlemanfp, recorded from outside the package.

``Tracer.install`` replaces every public entry point of the traced modules
(module-level functions, and the public methods and constructors of the
classes each module defines) by a wrapper that records a span.  The
wrapper goes in at every binding of the original: the defining module,
each module that imported the function by name (``composite_weights`` in
``operators``, ``solve`` in ``cli``, ...), and dicts of callables such as
``verification.SUITES``.  ``Tracer.uninstall`` puts the originals back, so
untraced operations run the unmodified package.

Every entry point charges its self time (its span minus its child spans)
to one metric of ``TIME_METRICS``; together with the unattributed time of
the operation's root span they add up to the operation's wall time.
Private helpers and the untraced modules (``coupling``, ``report``) are
charged to whichever entry point called them, so the JSON report writer
counts as CLI time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

PACKAGE = "carlemanfp"
MODULES = (
    "grids",
    "quadrature",
    "specfun",
    "hilbert",
    "operators",
    "solver",
    "bounds",
    "appendix",
    "verification",
    "gab",
    "cli",
)
# Modules whose bindings are rewritten even though their own callables are
# not traced: they re-export or hold traced functions.
BINDING_MODULES = MODULES + ("", "coupling", "report")

SUITES = ("lemma3", "lemma4", "ck", "prop4", "prop5", "equicont", "appendix")

# Entry points with a self-time metric of their own.  Any other entry
# point of module m is charged to "m.s" ("cli.self_s" for the CLI).
BUCKETS = {
    "operators.TOperator.rf_cache": "operators.rf_cache.s",
    "operators.TOperator.derivative": "operators.derivative.s",
    "hilbert.HilbertOfExp.__init__": "hilbert.build.s",
    "hilbert.HilbertOfExp.quotient": "hilbert.pv.s",
    "hilbert.HilbertOfExp.raw": "hilbert.pv.s",
    "hilbert.SampledPVTransform.__init__": "hilbert.sampled.s",
    "hilbert.SampledPVTransform.__post_init__": "hilbert.sampled.s",
    "hilbert.SampledPVTransform.at": "hilbert.sampled.s",
    "hilbert.SampledPVTransform.at_zero": "hilbert.sampled.s",
    "quadrature.interval_weights": "quadrature.weights.s",
    "specfun.hyp2f1_1mu": "specfun.hyp2f1_1mu.s",
    "specfun.zeta_lambda": "specfun.zeta_lambda.s",
    "grids.hermite_eval": "grids.hermite.s",
    "grids.random_klambda": "grids.random_member.s",
    "gab.TwoPointReconstruction.__init__": "gab.build.s",
    "gab.TwoPointReconstruction.table": "gab.table.s",
    "gab.TwoPointReconstruction.boundary_limit": "gab.boundary_limit.s",
    **{f"verification.suite_{s}": f"verification.{s}.s" for s in SUITES},
}

# Entry points whose calls are counted, per operation.
COUNTERS = {
    "operators.TOperator.__init__": "operators.builds",
    "operators.TOperator.apply": "operators.apply.calls",
    "hilbert.HilbertOfExp.__init__": "hilbert.build.calls",
    "hilbert.SampledPVTransform.__init__": "hilbert.sampled.builds",
    "quadrature.interval_weights": "quadrature.weights.calls",
    "quadrature.panel_points": "quadrature.panel.calls",
    "specfun.hyp2f1_1mu": "specfun.hyp2f1_1mu.calls",
    "specfun.zeta_lambda": "specfun.zeta_lambda.calls",
    "grids.hermite_eval": "grids.hermite.calls",
}

ROOT = "op"
UNATTRIBUTED = "trace.unattributed_s"
SOLVE = "solver.solve"


def _default_bucket(module: str) -> str:
    return "cli.self_s" if module == "cli" else f"{module}.s"


TIME_METRICS = tuple(
    sorted({_default_bucket(m) for m in MODULES} | set(BUCKETS.values()))
)
COUNT_METRICS = tuple(sorted(set(COUNTERS.values())))


def _module(name: str):
    return importlib.import_module(f"{PACKAGE}.{name}" if name else PACKAGE)


def entry_points():
    """Yield (key, owner, attribute, original) for every traced callable.

    ``owner`` is the module or class that defines it; ``original`` is the
    attribute as stored there (classmethod/staticmethod objects included).
    """
    for mname in MODULES:
        mod = _module(mname)
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                if issubclass(obj, BaseException):
                    continue
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr not in ("__init__", "__post_init__"):
                        continue
                    fn = getattr(member, "__func__", member)
                    if inspect.isfunction(fn):
                        yield f"{mname}.{name}.{attr}", obj, attr, member
            elif callable(obj):
                yield f"{mname}.{name}", mod, name, obj


class Tracer:
    """Records spans of the traced entry points during operations.

    Spans stay in memory as [key, parent index, start, end] rows until
    ``end_op`` folds them into per-operation totals.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- patching -----------------------------------------------------

    def _wrap(self, key: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([key, stack[-1], clock(), 0.0])
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[i][3] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original module-level callable) -> wrapper
        for key, owner, attr, member in entry_points():
            wrapped = self._wrap(key, getattr(member, "__func__", member))
            if inspect.isclass(owner):
                if isinstance(member, (classmethod, staticmethod)):
                    wrapped = type(member)(wrapped)
                setattr(owner, attr, wrapped)
                self._restore.append((owner, attr, member))
            else:
                wrappers[id(member)] = wrapped
        for mname in BINDING_MODULES:
            mod = _module(mname)
            for name, value in list(vars(mod).items()):
                if name.startswith("__"):
                    continue
                if id(value) in wrappers:
                    setattr(mod, name, wrappers[id(value)])
                    self._restore.append((mod, name, value))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            value[k] = wrappers[id(v)]
                            self._restore.append((value, k, v))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- operations ---------------------------------------------------

    def start_op(self, t0: float) -> None:
        self.spans.clear()
        self.spans.append([ROOT, -1, t0, 0.0])
        self._stack[:] = [0]

    def end_op(self, t1: float) -> dict:
        """Close the root span and fold the spans into one op's totals.

        Returns a dict with ``self`` (self time per metric, the root's own
        time under ``trace.unattributed_s``), ``counts`` and ``solve_s``
        (inclusive time of ``solver.solve``).
        """
        spans = self.spans
        spans[0][3] = t1
        child = [0.0] * len(spans)
        for _, parent, start, end in spans[1:]:
            child[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        solve_s = 0.0
        for i, (key, _, start, end) in enumerate(spans):
            if i == 0:
                bucket = UNATTRIBUTED
            else:
                bucket = BUCKETS.get(key) or _default_bucket(key.split(".", 1)[0])
            self_time[bucket] += (end - start) - child[i]
            if key in COUNTERS:
                counts[COUNTERS[key]] += 1
            if key == SOLVE:
                solve_s += end - start
        self._stack.clear()
        spans.clear()
        return {
            "self": dict(self_time),
            "counts": dict(counts),
            "solve_s": solve_s,
        }
