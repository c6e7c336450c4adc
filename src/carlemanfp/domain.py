"""The domain check of every argument the package is given.

A value is in its domain only if the comparisons say so: the test is
``not ok.all()`` over them, so NaN, for which every comparison is false,
always fails, and an infinite end of an interval is always open, so
+-inf fail too.
"""

from __future__ import annotations

import math

import numpy as np


def checked(x, name: str, lo: float = -math.inf, hi: float = math.inf, ends: str = "[]"):
    """x as a float array of at least one dimension (no copy of a float
    array), and whether x was a scalar.

    ValueError naming ``name`` unless every entry lies between lo and hi,
    each end closed or open as ``ends`` says: "[]", "[)", "(]" or "()".
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    lo_open = ends[0] == "(" or lo == -math.inf
    hi_open = ends[1] == ")" or hi == math.inf
    ok = arr > lo if lo_open else arr >= lo
    ok &= arr < hi if hi_open else arr <= hi
    if not ok.all():
        interval = f"{'(' if lo_open else '['}{lo:g}, {hi:g}{')' if hi_open else ']'}"
        raise ValueError(f"{name} must lie in {interval}, got {arr[~ok][0]:g}")
    return arr, scalar


def unwrap(out: np.ndarray, scalar: bool):
    """What a function returns for input ``checked`` found scalar or not:
    the one entry of out as a float, or out itself."""
    return float(out[0]) if scalar else out
