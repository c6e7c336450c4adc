"""Special functions behind the closed-form expressions of the bound suite.

The general Gauss hypergeometric, trigamma and dilogarithm are delegated
to scipy.special (mature, machine-precision implementations; the test
suite cross-checks them against independent brute-force series).  The
``2F1(1, mu; 1+mu; z)`` family, which enters the power-law Hilbert
transform identity, is implemented natively because it is needed in
vectorised form arbitrarily close to ``z = 1``, where a logarithmic
rearrangement keeps full relative accuracy.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .coupling import Coupling

EULER_GAMMA = 0.57721566490153286061

_SERIES_SWITCH = 0.8     # direct Gauss series below, log-split above
_SERIES_RTOL = 1e-17
_SERIES_MAX_TERMS = 2000


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _kahan_step(total, comp, term):
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def _gauss_series_1mu(mu: float, z: np.ndarray) -> np.ndarray:
    """mu * sum_k z^k / (mu + k), compensated summation."""
    total = np.ones_like(z)
    comp = np.zeros_like(z)
    zk = np.ones_like(z)
    for k in range(1, _SERIES_MAX_TERMS):
        zk = zk * z
        term = mu * zk / (mu + k)
        total, comp = _kahan_step(total, comp, term)
        if np.all(np.abs(term) <= _SERIES_RTOL * np.abs(total)):
            break
    else:
        raise RuntimeError("hypergeometric series did not converge")
    return total


def _log_series_1mu(mu: float, z: np.ndarray) -> np.ndarray:
    """Rearrangement near z=1 splitting off the -log(1-z) divergence.

    2F1(1,mu;1+mu;z) = mu * sum_n (mu)_n/n! * (psi(n+1) - psi(mu+n)
    - log(1-z)) * (1-z)^n, valid for the zero-balanced parameter set.
    """
    w = 1.0 - z
    logw = np.log(w)
    coeff = 1.0                      # (mu)_n / n!
    psi_n = -EULER_GAMMA             # psi(1)
    psi_mun = float(_sp.psi(mu))     # psi(mu)
    total = mu * (psi_n - psi_mun - logw)
    comp = np.zeros_like(z)
    wn = np.ones_like(z)
    for n in range(1, _SERIES_MAX_TERMS):
        coeff *= (mu + n - 1.0) / n
        psi_n += 1.0 / n
        psi_mun += 1.0 / (mu + n - 1.0)
        wn = wn * w
        term = mu * coeff * (psi_n - psi_mun - logw) * wn
        total, comp = _kahan_step(total, comp, term)
        if np.all(np.abs(term) <= _SERIES_RTOL * np.abs(total)):
            break
    else:
        raise RuntimeError("log-split hypergeometric series did not converge")
    return total


def hyp2f1_1mu(mu: float, z):
    """Gauss hypergeometric 2F1(1, mu; 1+mu; z) for 0 < mu, 0 <= z < 1.

    Equals ``mu * sum_k z^k/(mu+k)``; strictly increasing in z and >= 1.
    Relative accuracy is kept at ~1e-13 up to z = 1 - 1e-8 by switching
    to the logarithmic rearrangement for z > 0.8.
    """
    if not mu > 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    z, scalar = _as_float_array(z)
    if np.any(z < 0.0) or np.any(z >= 1.0):
        raise ValueError("argument must satisfy 0 <= z < 1")
    out = np.empty_like(z)
    near = z > _SERIES_SWITCH
    if np.any(~near):
        out[~near] = _gauss_series_1mu(mu, z[~near])
    if np.any(near):
        out[near] = _log_series_1mu(mu, z[near])
    return float(out) if scalar else out


def hyp2f1(a: float, b: float, c: float, z):
    """Gauss hypergeometric 2F1(a, b; c; z) on z in [0, 1), c > b > 0."""
    if not (c > b > 0.0):
        raise ValueError(f"parameters must satisfy c > b > 0, got b={b}, c={c}")
    z, scalar = _as_float_array(z)
    if np.any(z < 0.0) or np.any(z >= 1.0):
        raise ValueError("argument must satisfy 0 <= z < 1")
    out = _sp.hyp2f1(a, b, c, z)
    return float(out) if scalar else out


def dilog(x):
    """Dilogarithm Li2(x) for x <= 1."""
    x, scalar = _as_float_array(x)
    if np.any(x > 1.0):
        raise ValueError("dilogarithm argument must be <= 1")
    out = _sp.spence(1.0 - x)
    return float(out) if scalar else out


def trigamma(x):
    """Trigamma psi'(x)."""
    x, scalar = _as_float_array(x)
    out = _sp.polygamma(1, x)
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
