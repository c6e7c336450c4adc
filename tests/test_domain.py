"""Domain checks, walked over the public functions of ``bounds``,
``specfun``, ``appendix``, ``hilbert`` and ``grids`` and the functions of
``carlemanfp.__all__``, and, for empty points, over public methods that
take points.

Each float parameter is set in turn to NaN, +inf and -inf, the others
keeping a valid value from one table.  A NaN must raise ValueError: no
finite answer to it is right.  An infinity must raise ValueError or give
a finite value.  A parameter that takes an array of points also takes an
empty one, which gives an empty result.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carlemanfp
from carlemanfp import appendix, bounds, grids, hilbert, specfun
from carlemanfp.coupling import Coupling
from carlemanfp.domain import checked
from carlemanfp.gab import TwoPointReconstruction

NODES = grids.make_nodes(64, 1e2)
F = grids.log_envelope_function(NODES, -0.9)

# A valid value of each parameter the walked functions take, by name.  A
# float here is a parameter the walk varies; it takes an array of points
# if it has no annotation.
VALID = {
    "a": 0.5, "b": 0.5, "c": 1.0, "t": 0.5, "x": 0.5, "z": 0.5, "u": 1.0,
    "alpha": 2.0, "beta": 1.0, "mu": 0.5, "lambda_r": 0.25, "delta": 0.1,
    "coeff": 1.0, "p": -0.5, "x_end": 10.0, "lambda2": 1e2, "exponent": -0.5,
    "fractions": 0.5, "b_max": 10.0,
    "coupling": Coupling(-0.1), "n_nodes": 64, "f": F, "nodes": NODES,
    "values": F.values, "derivs": F.derivs, "slopes": F.interpolant.slopes,
}
NON_FINITE = [math.nan, math.inf, -math.inf]


def walked() -> dict:
    functions = {}
    for module in (bounds, specfun, appendix, hilbert, grids):
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__ == module.__name__):
                functions[f"{module.__name__.split('.')[-1]}.{name}"] = fn
    for name in carlemanfp.__all__:
        fn = getattr(carlemanfp, name)
        if inspect.isfunction(fn):
            functions.setdefault(f"{fn.__module__.split('.')[-1]}.{name}", fn)
    return functions


def varied(fn) -> list[tuple[str, bool]]:
    """The float parameters of fn, and whether each takes arrays."""
    return [
        (name, param.annotation is inspect.Parameter.empty)
        for name, param in inspect.signature(fn).parameters.items()
        if isinstance(VALID.get(name), float)
    ]


FUNCTIONS = {label: fn for label, fn in walked().items() if varied(fn)}
PARAMS = [(label, name, arrays) for label, fn in FUNCTIONS.items()
          for name, arrays in varied(fn)]
ARRAY_PARAMS = [(label, name) for label, name, arrays in PARAMS if arrays]


def call(label: str, **override):
    fn = FUNCTIONS[label]
    kwargs = {name: VALID[name] for name in inspect.signature(fn).parameters
              if name in VALID}
    return fn(**dict(kwargs, **override))


def finite(value) -> bool:
    if value is None:
        return True
    if isinstance(value, (tuple, list)):
        return all(finite(v) for v in value)
    if hasattr(value, "__dict__"):
        return all(finite(v) for v in vars(value).values())
    return bool(np.all(np.isfinite(value)))


def refused(label: str, bad: np.ndarray, **override) -> None:
    """A call with ``bad`` in it raises ValueError, or, if no entry of bad
    is NaN, gives a finite value."""
    try:
        out = call(label, **override)
    except ValueError:
        return
    assert not np.any(np.isnan(bad)), f"{label} accepted NaN and returned {out!r}"
    assert finite(out), f"{label} returned {out!r}"


def test_walk_covers_the_known_functions():
    for label in ("bounds.f_bound", "specfun.hyp2f1", "appendix.t0_closed",
                  "hilbert.hilbert_power_law", "solver.consistency_residual"):
        assert label in FUNCTIONS
    # the interpolant's checked entry points are methods of GridFunction
    for label in ("GridFunction.at", "GridFunction.derivative_at"):
        assert label in METHODS


@pytest.mark.parametrize("label", sorted(FUNCTIONS))
def test_valid_arguments_give_finite_values(label):
    # else every call below would raise for another parameter's sake
    assert finite(call(label))


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("label, name", [(label, name) for label, name, _ in PARAMS])
def test_non_finite_refused(label, name, bad):
    refused(label, np.array(bad), **{name: bad})


@pytest.mark.parametrize("label, name", ARRAY_PARAMS)
def test_empty_points_give_empty_result(label, name):
    assert np.asarray(call(label, **{name: np.empty(0)})).size == 0


def transform(tail_mode: str, members: int) -> hilbert.HilbertOfExp:
    f = F if members == 1 else [F] * members
    return hilbert.HilbertOfExp(f, grids.QuadratureConfig(tail_mode=tail_mode))


def reconstruction() -> TwoPointReconstruction:
    return TwoPointReconstruction(F, Coupling(-0.1))


TRANSFORMS = [(mode, members) for mode in (grids.POWER_LAW_EXTEND, grids.HARD_CUTOFF)
              for members in (1, 2)]
# Public methods that take an array of points, as calls at the points with
# valid other arguments: the transforms of exp f, of one member and of a
# block in both tail modes, and the objects built on them.
METHODS = {
    **{f"HilbertOfExp.quotient[{mode}-{m}]":
       lambda a, mode=mode, m=m: transform(mode, m).quotient(a) for mode, m in TRANSFORMS},
    **{f"HilbertOfExp.r[{mode}-{m}]":
       lambda a, mode=mode, m=m: transform(mode, m).r(a, 0.1) for mode, m in TRANSFORMS},
    "GridFunction.at": lambda x: F.at(x),
    "GridFunction.derivative_at": lambda x: F.derivative_at(x),
    "SampledPVTransform.at": lambda a: hilbert.SampledPVTransform(NODES).at(F.values, a),
    "TwoPointReconstruction.tau_at": lambda a: reconstruction().tau_at(a, 0.5),
    "TwoPointReconstruction.table[a]": lambda a: reconstruction().table(a, [0.5]),
    "TwoPointReconstruction.table[b]": lambda b: reconstruction().table([0.5], b),
    "TwoPointReconstruction.boundary_limits": lambda b: reconstruction().boundary_limits(b),
}


@pytest.mark.parametrize("label", sorted(METHODS))
def test_empty_points_give_empty_result_of_methods(label):
    assert np.asarray(METHODS[label](np.empty(0))).size == 0
    assert np.asarray(METHODS[label](np.array([0.5]))).size > 0


@pytest.mark.parametrize("label, name", ARRAY_PARAMS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_one_non_finite_point_refused(label, name, data):
    points = np.full(data.draw(st.integers(1, 6), label="size"), VALID[name])
    at = data.draw(st.integers(0, points.size - 1), label="at")
    points[at] = data.draw(st.sampled_from(NON_FINITE), label="bad")
    refused(label, points, **{name: points})


@pytest.mark.parametrize("x, lo, hi, ends, interval", [
    (math.nan, 0.0, math.inf, "[]", r"\[0, inf\), got nan"),
    (math.inf, 0.0, math.inf, "(]", r"\(0, inf\), got inf"),
    (2.0, -math.inf, 1.0, "[]", r"\(-inf, 1\], got 2"),
    ([0.5, 1.0], 0.0, 1.0, "[)", r"\[0, 1\), got 1"),
    ([0.5, math.nan, -1.0], 0.0, 1.0, "[]", r"\[0, 1\], got nan"),
    (-math.inf, -math.inf, math.inf, "[]", r"\(-inf, inf\), got -inf"),
])
def test_checked_names_the_first_offender(x, lo, hi, ends, interval):
    with pytest.raises(ValueError, match="a must lie in " + interval):
        checked(x, "a", lo, hi, ends)


def test_checked_keeps_float_arrays():
    x = np.linspace(0.0, 1.0, 5)
    out, scalar = checked(x, "x", 0.0, 1.0)
    assert out is x and not scalar
    out, scalar = checked(0.25, "x", 0.0, 1.0)
    assert out.shape == (1,) and scalar
