"""Special functions of the solve path and of the bound suite.

The ``2F1(1, mu; 1+mu; z)`` family enters the power-law Hilbert transform
identity.  It is implemented natively, with the digamma value its
logarithmic rearrangement needs: it is needed in vectorised form
arbitrarily close to ``z = 1``, where that rearrangement keeps full
relative accuracy, and the solve and reconstruction paths import no
scipy.  The general Gauss hypergeometric, trigamma and dilogarithm serve
only the verify suites.  They are delegated to scipy.special (mature,
machine-precision implementations; the test suite cross-checks them
against independent brute-force series), which each imports when called.
"""

from __future__ import annotations

import math

import numpy as np

from .coupling import Coupling

EULER_GAMMA = 0.57721566490153286061

_SERIES_SWITCH = 0.5     # Gauss series below, log-split series above
_SERIES_RTOL = 1e-17     # bound on the first term left out; every sum is >= 1

_DIGAMMA_ASYMPTOTIC = 10.0  # recurrence below, asymptotic series from here
# B_2n / (2n) for n = 1 .. 8, the coefficients of x^-2n in A&S 6.3.18; at
# x = 10 the first term left out is 3e-18.
_DIGAMMA_SERIES = [1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760,
                   1 / 12, -3617 / 8160]


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _horner(coeffs: list[float], x: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] x^k by Horner's rule."""
    out = np.full_like(x, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        out *= x
        out += c
    return out


def digamma(x: float) -> float:
    """Digamma psi(x) for x > 0.

    The upward recurrence psi(x) = psi(x+1) - 1/x carries x to at least
    10, where the asymptotic series (Abramowitz & Stegun 6.3.18)
    log x - 1/(2x) - sum_n B_2n / (2n x^2n) is summed in Horner form.
    """
    if not x > 0.0:
        raise ValueError(f"digamma needs x > 0, got {x}")
    shift = 0.0
    while x < _DIGAMMA_ASYMPTOTIC:
        shift += 1.0 / x
        x += 1.0
    t = 1.0 / (x * x)
    series = 0.0
    for c in reversed(_DIGAMMA_SERIES):
        series = series * t + c
    return math.log(x) - 0.5 / x - t * series - shift


def _gauss_series_1mu(mu: float, z: np.ndarray) -> np.ndarray:
    """mu * sum_k z^k / (mu + k) for 0 <= z <= 1/2: a polynomial in z with
    as many terms as the largest z needs."""
    z_max = float(z.max())
    coeffs, zk = [1.0], 1.0
    while True:
        k = len(coeffs)
        zk *= z_max
        if mu / (mu + k) * zk < _SERIES_RTOL:
            return _horner(coeffs, z)
        coeffs.append(mu / (mu + k))


def _log_series_1mu(mu: float, z: np.ndarray) -> np.ndarray:
    """Rearrangement near z=1 splitting off the -log(1-z) divergence, for
    1/2 < z < 1.

    2F1(1,mu;1+mu;z) = mu * sum_n (mu)_n/n! * (psi(n+1) - psi(mu+n)
    - log(1-z)) * (1-z)^n, valid for the zero-balanced parameter set, is
    mu (A(w) - log(w) B(w)) with two polynomials in w = 1 - z, as many
    terms as the largest w needs.
    """
    w = 1.0 - z
    w_max = float(w.max())
    log_w_max = abs(math.log(w_max))
    coeff = 1.0                      # (mu)_n / n!
    psi_n = -EULER_GAMMA             # psi(1)
    psi_mun = digamma(mu)            # psi(mu)
    a, b, wn = [psi_n - psi_mun], [1.0], 1.0
    while True:
        n = len(b)
        coeff *= (mu + n - 1.0) / n
        psi_n += 1.0 / n
        psi_mun += 1.0 / (mu + n - 1.0)
        wn *= w_max
        if mu * (abs(psi_n - psi_mun) + log_w_max) * coeff * wn < _SERIES_RTOL:
            return mu * (_horner(a, w) - np.log(w) * _horner(b, w))
        a.append(coeff * (psi_n - psi_mun))
        b.append(coeff)


def hyp2f1_1mu(mu: float, z):
    """Gauss hypergeometric 2F1(1, mu; 1+mu; z) for 0 < mu, 0 <= z < 1.

    Equals ``mu * sum_k z^k/(mu+k)``; strictly increasing in z and >= 1.
    Relative accuracy is kept at ~1e-13 up to z = 1 - 1e-8 by switching
    to the logarithmic rearrangement for z > 0.5.
    """
    if not mu > 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    z, scalar = _as_float_array(z)
    if np.any(z < 0.0) or np.any(z >= 1.0):
        raise ValueError("argument must satisfy 0 <= z < 1")
    gauss = z <= _SERIES_SWITCH
    out = np.empty_like(z)
    if np.any(gauss):
        out[gauss] = _gauss_series_1mu(mu, z[gauss])
    if not np.all(gauss):
        out[~gauss] = _log_series_1mu(mu, z[~gauss])
    return float(out) if scalar else out


def hyp2f1(a: float, b: float, c: float, z):
    """Gauss hypergeometric 2F1(a, b; c; z) on z in [0, 1), c > b > 0."""
    if not (c > b > 0.0):
        raise ValueError(f"parameters must satisfy c > b > 0, got b={b}, c={c}")
    z, scalar = _as_float_array(z)
    if np.any(z < 0.0) or np.any(z >= 1.0):
        raise ValueError("argument must satisfy 0 <= z < 1")
    from scipy import special

    out = special.hyp2f1(a, b, c, z)
    return float(out) if scalar else out


def dilog(x):
    """Dilogarithm Li2(x) for x <= 1."""
    x, scalar = _as_float_array(x)
    if np.any(x > 1.0):
        raise ValueError("dilogarithm argument must be <= 1")
    from scipy import special

    out = special.spence(1.0 - x)
    return float(out) if scalar else out


def trigamma(x):
    """Trigamma psi'(x)."""
    x, scalar = _as_float_array(x)
    from scipy import special

    out = special.polygamma(1, x)
    return float(out) if scalar else out


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
