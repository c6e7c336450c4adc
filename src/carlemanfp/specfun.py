"""Special functions of the solve path and of the bound suite, in numpy
and ``math`` alone.

There is one Gauss hypergeometric function, ``hyp2f1``, for a, b > 0
with c - a - b in {0, 1}: the Gauss series below z = 1/2, the
logarithmic series of Abramowitz & Stegun 15.3.10/15.3.11 above it,
which keeps full relative accuracy arbitrarily close to z = 1.  The
power-law Hilbert transform identity uses its family 2F1(1, mu; 1+mu; z),
with one row per member of a block (arrays of b and c); the bound
formulas use scalar parameters.  The bound suite also needs one trigamma
(the series constant) and the dilogarithm (an auxiliary supremum).  Each
is a series summed to double precision; the test suite checks them
against mpmath.
"""

from __future__ import annotations

import math

import numpy as np

from .coupling import Coupling
from .domain import checked, unwrap

EULER_GAMMA = 0.57721566490153286061

_SERIES_SWITCH = 0.5     # Gauss series below, log-split series above
_SERIES_RTOL = 1e-17     # bound on the first term left out; every sum is >= 1

_DIGAMMA_ASYMPTOTIC = 10.0  # recurrence below, asymptotic series from here
# B_2n / (2n) for n = 1 .. 8, the coefficients of x^-2n in A&S 6.3.18; at
# x = 10 the first term left out is 3e-18.
_DIGAMMA_SERIES = [1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760,
                   1 / 12, -3617 / 8160]
# B_2n for n = 1 .. 8: the coefficients of x^-(2n+1) in the trigamma series
# (A&S 6.4.12), whose first term left out is 5.5e-18 at x = 10, and with
# 1/(2n+1)! those of u^(2n+1) in the dilogarithm's Bernoulli series, whose
# first term left out is 4e-19 of the value at |u| = log 2.
_BERNOULLI_EVEN = [1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730,
                   7 / 6, -3617 / 510]
_DILOG_SERIES = [1.0] + [b / math.factorial(2 * n + 1)
                         for n, b in enumerate(_BERNOULLI_EVEN, start=1)]

_EPS = float(np.finfo(float).eps)
_BALANCE_ULPS = 8        # c - a - b may miss its integer by this many ulps


def _horner(coeffs, x: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] x^k by Horner's rule; coefficients of shape (K, M)
    give one row of sums per column.  The coefficients of one column are
    added as floats, the ufuncs' fast scalar path; those of several as one
    column of M per step."""
    c = np.asarray(coeffs, dtype=float)
    several = c.ndim == 2 and c.shape[1] > 1
    steps = c.reshape(c.shape + (1,) * x.ndim) if several else c.ravel().tolist()
    out = np.empty(c.shape[1:] + x.shape)
    acc = out if several else out.reshape(x.shape)  # one column: x's shape
    acc[...] = steps[-1]
    for ck in steps[-2::-1]:
        acc *= x
        acc += ck
    return out


def _columns(rows: list[list[float]]) -> np.ndarray:
    """Coefficient lists as the columns of one array for ``_horner``, each
    padded with zeros at the top: a padded column starts its pass at
    0 x + c = c exactly, so it gets the bits of its own list alone."""
    out = np.zeros((max(map(len, rows)), len(rows)))
    for m, row in enumerate(rows):
        out[: len(row), m] = row
    return out


def digamma(x: float) -> float:
    """Digamma psi(x) for x > 0.

    The upward recurrence psi(x) = psi(x+1) - 1/x carries x to at least
    10, where the asymptotic series (Abramowitz & Stegun 6.3.18)
    log x - 1/(2x) - sum_n B_2n / (2n x^2n) is summed in Horner form.
    """
    checked(x, "x", 0.0, ends="()")
    return _digamma(x)


def _digamma(x: float) -> float:
    """``digamma`` of an x > 0 already checked."""
    shift = 0.0
    while x < _DIGAMMA_ASYMPTOTIC:
        shift += 1.0 / x
        x += 1.0
    t = 1.0 / (x * x)
    series = 0.0
    for c in reversed(_DIGAMMA_SERIES):
        series = series * t + c
    return math.log(x) - 0.5 / x - t * series - shift


def _gauss_series(a: float, rows: list[tuple], z: np.ndarray) -> np.ndarray:
    """sum_k (a)_k (b)_k / ((c)_k k!) z^k for 0 <= z <= 1/2, one row per
    (b, c, m) of ``rows``: polynomials in z with as many terms as the
    largest z needs, in one Horner pass."""
    z_max = float(z.max())
    coeff_rows = []
    for b, c, _ in rows:
        coeffs, coeff, zk = [1.0], 1.0, 1.0
        while True:
            k = len(coeffs)
            coeff *= (a + k - 1.0) * (b + k - 1.0) / ((c + k - 1.0) * k)
            zk *= z_max
            if coeff * zk < _SERIES_RTOL:
                break
            coeffs.append(coeff)
        coeff_rows.append(coeffs)
    return _horner(_columns(coeff_rows), z)


def _log_series(a: float, rows: list[tuple], w: np.ndarray) -> list[np.ndarray]:
    """2F1 at w = 1 - z for 0 < w < 1/2, one row per (b, c, m) of ``rows``:
    Gamma(c)/(Gamma(a) Gamma(b)) * (m/(ab) + (-w)^m S(w)) with
    S(w) = sum_n (a+m)_n (b+m)_n / (n! (n+m)!) (d_n - log w) w^n and
    d_n = psi(n+1) + psi(n+m+1) - psi(a+m+n) - psi(b+m+n).

    S is A(w) - log(w) B(w), two polynomials in w with as many terms as
    the largest w needs, so that each left-out term is below 1e-17 of a
    2F1 >= 1; the A and B of every row take one Horner pass.
    """
    w_max = float(w.max())
    log_w_max = abs(math.log(w_max))
    scales, a_rows, b_rows = [], [], []
    for b, c, m in rows:
        scale = math.gamma(c) / (math.gamma(a) * math.gamma(b))
        coeff = 1.0 / math.factorial(m)              # (a+m)_n (b+m)_n / (n! (n+m)!)
        psi_n = -EULER_GAMMA                         # psi(n+1)
        psi_nm = -EULER_GAMMA + m                    # psi(n+m+1), m in {0, 1}
        psi_a, psi_b = _digamma(a + m), _digamma(b + m)  # psi(a+m+n), psi(b+m+n)
        d = psi_n + psi_nm - psi_a - psi_b
        a_coeffs, b_coeffs, wn = [coeff * d], [coeff], w_max**m
        while True:
            n = len(b_coeffs)
            coeff *= (a + m + n - 1.0) * (b + m + n - 1.0) / (n * (n + m))
            psi_n += 1.0 / n
            psi_nm += 1.0 / (n + m)
            psi_a += 1.0 / (a + m + n - 1.0)
            psi_b += 1.0 / (b + m + n - 1.0)
            d = psi_n + psi_nm - psi_a - psi_b
            wn *= w_max
            if scale * coeff * (abs(d) + log_w_max) * wn < _SERIES_RTOL:
                break
            a_coeffs.append(coeff * d)
            b_coeffs.append(coeff)
        scales.append(scale)
        a_rows.append(a_coeffs)
        b_rows.append(b_coeffs)
    # a's and b's lists of a row are equally long
    a_w, b_w = np.split(_horner(_columns(a_rows + b_rows), w), 2)
    return [scale * (m / (a * b) + (-w) ** m * s)
            for (b, _, m), scale, s in zip(rows, scales, a_w - np.log(w) * b_w)]


def hyp2f1(a: float, b: float | np.ndarray, c: float | np.ndarray, z):
    """Gauss hypergeometric 2F1(a, b; c; z) for a, b > 0, c - a - b = m in
    {0, 1} and 0 <= z < 1: every parameter set the bound formulas and the
    power-law tail, 2F1(1, mu; 1+mu; z), use.

    Below z = 1/2 the Gauss series; above it the logarithmic series in
    w = 1 - z of Abramowitz & Stegun 15.3.10 (m = 0) and 15.3.11 (m = 1),
        2F1 = Gamma(c)/(Gamma(a) Gamma(b)) * (m/(ab) + (-w)^m S(w)),
    with S from ``_log_series``, which keeps full relative accuracy up to
    z = 1 - 1e-8.  Other parameter families raise ``ValueError``.  1-D
    arrays of b and c, of one length, give one row per (b, c) pair, each
    with the bits of its own call: the rows share the checks and one
    Horner pass per series.
    """
    pairs = np.array([b, c], dtype=float)
    checked(np.append(pairs, a), "a, b and c", 0.0, ends="()")
    rows = []
    for b, c in zip(*pairs.reshape(2, -1).tolist()):
        m = round(c - a - b)
        if not (m in (0, 1) and abs(c - a - b - m) <= _BALANCE_ULPS * _EPS * max(a, b, c)):
            raise ValueError(f"need c - a - b in {{0, 1}}, got a={a}, b={b}, c={c}")
        rows.append((b, c, m))
    z, scalar = checked(z, "z", 0.0, 1.0, "[)")
    gauss = z <= _SERIES_SWITCH
    out = np.empty((len(rows),) + z.shape)
    for part, series, at in ((gauss, _gauss_series, z), (~gauss, _log_series, 1.0 - z)):
        if np.any(part):
            for row, values in zip(out, series(a, rows, at[part])):
                row[part] = values  # row by row: a 1-D mask is numpy's fast path
    if pairs.ndim == 1:
        return unwrap(out[0], scalar)
    return out[:, 0] if scalar else out


def _dilog_series(x: np.ndarray) -> np.ndarray:
    """Li2(x) on [-1, 1/2] from the Bernoulli series in u = -log(1 - x)."""
    u = -np.log1p(-x)
    return u * _horner(_DILOG_SERIES, u * u) - 0.25 * u * u


def dilog(x):
    """Dilogarithm Li2(x) for x <= 1.

    The Bernoulli series on [-1, 1/2]; above it the reflection
    Li2(x) = pi^2/6 - log(x) log(1-x) - Li2(1-x), below it the inversion
    Li2(x) = -pi^2/6 - log(-x)^2/2 - Li2(1/x).
    """
    x, scalar = checked(x, "x", hi=1.0)
    out = np.full_like(x, math.pi**2 / 6.0)          # Li2(1)
    mid = (x >= -1.0) & (x <= 0.5)
    out[mid] = _dilog_series(x[mid])
    high = (x > 0.5) & (x < 1.0)
    y = x[high]
    out[high] = math.pi**2 / 6.0 - np.log(y) * np.log1p(-y) - _dilog_series(1.0 - y)
    low = x < -1.0
    y = x[low]
    out[low] = -math.pi**2 / 6.0 - 0.5 * np.log(-y) ** 2 - _dilog_series(1.0 / y)
    return unwrap(out, scalar)


def trigamma(x: float) -> float:
    """Trigamma psi'(x) for x > 0.

    The recurrence psi'(x) = psi'(x+1) + 1/x^2 carries x to at least 10,
    where the asymptotic series (Abramowitz & Stegun 6.4.12)
    1/x + 1/(2x^2) + sum_n B_2n / x^(2n+1) is summed in Horner form; the
    recurrence terms are then added from the smallest up.
    """
    checked(x, "x", 0.0, ends="()")
    shifts = max(0, math.ceil(_DIGAMMA_ASYMPTOTIC - x))
    y = x + shifts
    t = 1.0 / (y * y)
    series = 0.0
    for c in reversed(_BERNOULLI_EVEN):
        series = series * t + c
    out = 1.0 / y + 0.5 * t + t * series / y
    for k in reversed(range(shifts)):
        out += 1.0 / (x + k) ** 2
    return out


def zeta_lambda(coupling: Coupling) -> float:
    """Series constant (1/pi) * sum_k [1/(k+|lam|)^2 + 1/(k-lambda_r)^2].

    Summed in closed form, (psi'(1+|lam|) + psi'(1-lambda_r))/pi.
    Requires |lam| < 1/3 so that the second family of denominators
    stays away from zero.
    """
    al = coupling.abs_lambda
    lr = coupling.lambda_r
    if al >= 1.0 / 3.0:
        raise ValueError("series constant requires |lambda| < 1/3")
    return (trigamma(1.0 + al) + trigamma(1.0 - lr)) / math.pi
