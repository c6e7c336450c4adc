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

_SERIES_SWITCH = 0.5     # direct Gauss series below, log-split above
_SERIES_RTOL = 1e-17
_SERIES_MAX_TERMS = 2000


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _compensated_series(first: np.ndarray, terms) -> np.ndarray:
    """first + sum_{k>=1} of the terms, per point, by compensated summation.

    The points come sorted from the slowest-converging down, and
    ``terms(k, live)`` returns the k-th terms of the first ``live`` of them.
    Each point stops once its term falls below ``_SERIES_RTOL`` of its
    sum, so the points still running are always a leading slice.
    """
    total = first.copy()
    comp = np.zeros_like(total)
    live = total.size
    for k in range(1, _SERIES_MAX_TERMS):
        if live == 0:
            return total
        term = terms(k, live)
        t_l, c_l = total[:live], comp[:live]
        y = term - c_l
        t = t_l + y
        c_l[...] = (t - t_l) - y
        t_l[...] = t
        running = np.abs(term) > _SERIES_RTOL * np.abs(t)
        last = live - 1 - int(running[::-1].argmax())
        live = last + 1 if running[last] else 0
    raise RuntimeError("hypergeometric series did not converge")


def _gauss_series_1mu(mu: float, z: np.ndarray) -> np.ndarray:
    """mu * sum_k z^k / (mu + k), for z sorted in decreasing order."""
    zk = np.ones_like(z)

    def terms(k, live):
        zk_l = zk[:live]
        zk_l *= z[:live]
        return zk_l * (mu / (mu + k))

    return _compensated_series(np.ones_like(z), terms)


def _log_series_1mu(mu: float, z: np.ndarray) -> np.ndarray:
    """Rearrangement near z=1 splitting off the -log(1-z) divergence, for
    z sorted in increasing order.

    2F1(1,mu;1+mu;z) = mu * sum_n (mu)_n/n! * (psi(n+1) - psi(mu+n)
    - log(1-z)) * (1-z)^n, valid for the zero-balanced parameter set.
    """
    w = 1.0 - z
    logw = np.log(w)
    wn = np.ones_like(z)
    coeff = 1.0                      # (mu)_n / n!
    psi_n = -EULER_GAMMA             # psi(1)
    psi_mun = float(_sp.psi(mu))     # psi(mu)
    first = mu * (psi_n - psi_mun - logw)

    def terms(n, live):
        nonlocal coeff, psi_n, psi_mun
        coeff *= (mu + n - 1.0) / n
        psi_n += 1.0 / n
        psi_mun += 1.0 / (mu + n - 1.0)
        wn_l = wn[:live]
        wn_l *= w[:live]
        return mu * coeff * ((psi_n - psi_mun) - logw[:live]) * wn_l

    return _compensated_series(first, terms)


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
    # sorted, so that each series sees its slowest-converging points first
    order = np.argsort(z.ravel(), kind="stable")
    zs = z.ravel()[order]
    split = int(np.searchsorted(zs, _SERIES_SWITCH, side="right"))
    out = np.empty_like(zs)
    if split:
        out[order[:split][::-1]] = _gauss_series_1mu(mu, zs[:split][::-1])
    if split < zs.size:
        out[order[split:]] = _log_series_1mu(mu, zs[split:])
    out = out.reshape(z.shape)
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
