"""Closed-form bound functions behind the certified inequalities.

Contents: the lower-bound correction F entering the sandwich on the
rescaled transform, its rescaled-family parent fhat, the piecewise
tangent minorant S, the explicit master expression that dominates the
derivative of the image under the fixed-point map, the printed tail
coefficients, the pointwise difference bounds for R, the norm-continuity
constant, and the two auxiliary functions whose suprema enter that
constant.  Each takes a scalar or an array of points, checked against its
domain by ``domain.checked``, and returns a float or an array to match.
The scans that sample them, and their grids, are the suites of
``verification``.
"""

from __future__ import annotations

import math

import numpy as np

from .coupling import Coupling
from .domain import checked, unwrap
from .specfun import dilog, hyp2f1, zeta_lambda

_E = math.e


# ---------------------------------------------------------------------------
# F, its derivatives, fhat family, tangent minorant
# ---------------------------------------------------------------------------

def f_bound(a):
    """Correction term of the lower sandwich bound on the rescaled transform.

    F(a) = (4+a)/(1+a)^{1/4} - 4
           + (1+a)^{-1/4} * (a/2 - 4a/(5(1+a)) * 2F1(1,5/4;9/4; 1/(1+a))).
    """
    a, scalar = checked(a, "a", 0.0)
    # At a = 0 the hypergeometric term is killed by its prefactor a but its
    # argument reaches the logarithmic point z = 1; F(0) = 0 exactly.
    pos = a > 0.0
    z = np.where(pos, 1.0 / (1.0 + a), 0.0)
    q = (1.0 + a) ** 0.25
    h = hyp2f1(1.0, 1.25, 2.25, z)
    out = np.where(pos, (4.0 + a) / q - 4.0 + (0.5 * a - 0.8 * a * z * h) / q, 0.0)
    return unwrap(out, scalar)


def f_bound_prime(a):
    """Closed-form derivative of ``f_bound`` (log-divergent at the origin)."""
    a, scalar = checked(a, "a", 0.0, ends="()")
    z = 1.0 / (1.0 + a)
    h1 = hyp2f1(2.0, 1.25, 3.25, z)
    h2 = hyp2f1(1.0, 1.25, 2.25, z)
    out = (1.0 + a) ** (-1.25) * (
        0.5 + 1.125 * a - (16.0 / 45.0) * z * h1 + 0.2 * a * z * h2
    )
    return unwrap(out, scalar)


def f_bound_second(a):
    """Closed-form second derivative of ``f_bound`` (diverges like 1/a at 0)."""
    a, scalar = checked(a, "a", 0.0, ends="()")
    z = 1.0 / (1.0 + a)
    h1 = hyp2f1(2.0, 1.25, 3.25, z)
    h2 = hyp2f1(2.0, 1.25, 4.25, z)
    h3 = hyp2f1(1.0, 1.25, 3.25, z)
    out = (1.0 + a) ** (-2.25) * (
        (16.0 - 9.0 * a) / 32.0
        + (8.0 - a) / 9.0 * z * h1
        + 32.0 / (117.0 * a) * z * h2
        - 5.0 * a / 36.0 * z * h3
    )
    return unwrap(out, scalar)


def fhat(lambda_r: float, a):
    """Rescaled-family correction; ``f_bound`` corresponds to lambda_r = 1/4.

    fhat(a) = (1 - 2 lr) a - a/((1+lr)(1+a)) * 2F1(1, 1+lr; 2+lr; 1/(1+a)).
    """
    checked(lambda_r, "lambda_r", 0.0, 0.5, "()")
    a, scalar = checked(a, "a", 0.0)
    pos = a > 0.0
    z = np.where(pos, 1.0 / (1.0 + a), 0.0)
    h = hyp2f1(1.0, 1.0 + lambda_r, 2.0 + lambda_r, z)
    out = np.where(pos, (1.0 - 2.0 * lambda_r) * a - a * z / (1.0 + lambda_r) * h, 0.0)
    return unwrap(out, scalar)


def fhat_prime(lambda_r: float, a):
    """Derivative of ``fhat`` in a (log-divergent at the origin)."""
    checked(lambda_r, "lambda_r", 0.0, 0.5, "()")
    a, scalar = checked(a, "a", 0.0, ends="()")
    z = 1.0 / (1.0 + a)
    h = hyp2f1(2.0, 1.0 + lambda_r, 3.0 + lambda_r, z)
    out = (1.0 - 2.0 * lambda_r) - z * z * h / ((1.0 + lambda_r) * (2.0 + lambda_r))
    return unwrap(out, scalar)


# F and F' at the tangent points of the minorant, and F at its constant
# piece.
_TANGENTS = {
    "F15": float(f_bound(0.2)),
    "Fp15": float(f_bound_prime(0.2)),
    "F32": float(f_bound(1.5)),
    "Fp32": float(f_bound_prime(1.5)),
    "F6": float(f_bound(6.0)),
}


def s_bound(a):
    """Piecewise tangent/constant minorant of ``f_bound``.

    Tangent at 1/5 up to a = 1/2, tangent at 3/2 on (1/2, 6), the
    constant F(6) beyond.  At the breakpoint a = 1/2 the two tangents
    disagree; the pointwise minimum is used there so that the minorant
    property cannot be lost to the jump.
    """
    a, scalar = checked(a, "a", 0.0)
    d = _TANGENTS
    t1 = d["F15"] + (a - 0.2) * d["Fp15"]
    t2 = d["F32"] + (a - 1.5) * d["Fp32"]
    out = np.where(a <= 0.5, t1, np.where(a < 6.0, t2, d["F6"]))
    out = np.where(a == 0.5, np.minimum(t1, t2), out)
    return unwrap(out, scalar)


# ---------------------------------------------------------------------------
# Master expression and printed coefficients
# ---------------------------------------------------------------------------

def upper_bound_master(b, coupling: Coupling):
    """Explicit upper bound on (Tf)'(b) + (1 - lambda_r)/(1+b) for members
    of the fixed-point domain.

    Assembled from the three tangent pieces of the minorant via the
    arctan antiderivative; nonpositivity of this expression is the
    computational content of the envelope-preservation argument.  The
    zero-coupling limit is identically 0.
    """
    b, scalar = checked(b, "b", 0.0)
    al = coupling.abs_lambda
    lr = coupling.lambda_r
    if al == 0.0:
        return unwrap(np.zeros_like(b), scalar)
    d = _TANGENTS
    pi = math.pi
    g = al * pi / math.tan(lr * pi)

    b1 = b + 1.0 + al * d["F15"] - (al / 5.0) * d["Fp15"]
    c1 = al * d["Fp15"] + g
    b2 = b + 1.0 + al * d["F32"] - 1.5 * al * d["Fp32"]
    c2 = al * d["Fp32"] + g
    b3 = b + 1.0 + al * d["F6"]
    c3 = g

    def piece(bb, cc, t):
        return np.arctan(al * pi * t / (bb + cc * t)) / (pi * bb)

    out = (
        piece(b1, c1, 0.5)
        - piece(b2, c2, 0.5)
        + piece(b2, c2, 6.0)
        - piece(b3, c3, 6.0)
        + lr / b3
        - lr / (b + 1.0)
    )
    return unwrap(out, scalar)


def c_coeffs_printed(coupling: Coupling) -> np.ndarray:
    """The five printed leading tail coefficients [c14, c15, c16, c17, c18].

    Each is manifestly nonpositive on the admissible coupling range,
    using lr*cot(lr*pi) >= 1/4 and lr >= |lambda|.
    """
    al = coupling.abs_lambda
    if al == 0.0:
        raise ValueError("printed coefficients are defined for negative coupling")
    lr = coupling.lambda_r
    ct = 1.0 / math.tan(lr * math.pi)
    lct = lr * ct  # lr*cot(lr*pi), >= 1/4 on the admissible range

    c18 = -3.53 * lr
    c17 = -29.01 * lr - 183.74 * lct - (20.25 * lr - 7.75 * al) / al
    c16 = (
        -101.11 * lr
        - 1318.89 * lct
        - 4264.94 * lct * ct
        - (54.78 * lr - 41.92 * al) / al**2
        - (156.99 * lr - 56.11 * al) / al
        - (994.28 * lr - 355.99 * al) / al * ct
    )
    c15 = (
        -426.99 * (lct - 0.25) / al**2
        - 191.62 * lr
        - 3914.61 * lct
        - 26296.4 * lct * ct
        - lct * ct * ct
        - 92.992 * lr / al**3
        - (399.76 * lr - 285.75 * al) / al**2
        - (2104.91 * lr - 1813.03 * al) / al**2 * ct
        - (514.93 * lr - 74.85 * al) / al
        - (6717.04 * lr - 2214.36 * al) / al * ct
        - (21721.1 * lr - 7195.88 * al) / al * ct**2
    )
    c14 = (
        -5405.0 * (lct - 0.25)
        - 2729.0 * (lct - 0.25) / lr**2
        - 679.6 * (lct - 0.25) / lr**3
        - 17313.0 * (lct - 0.25) / al**2 * ct
        - 207.1 * lr
        - 651.1 * lct
        - 64754.0 * lct * ct
        - 301494.0 * lct * ct**2
        - 517659.0 * lct * ct**3
        - 111.0 * lr / al**4
        - 636.239 * lr / al**3
        - 3350.0 * lr / al**3 * ct
        - (1229.0 * lr - 357.4 * al) / al**2
        - 914.9 * lr / al
        - (13307.0 * lr - 10573.0 * al) / al**2 * ct
        - (34542.0 * lr - 34358.0 * al) / al**2 * ct**2
        - (18691.0 * lr - 2338.0 * al) / al * ct
        - (125556.0 * lr - 37587.0 * al) / al * ct**2
        - (277886.0 * lr - 84001.0 * al) / al * ct**3
    )
    return np.array([c14, c15, c16, c17, c18])


# ---------------------------------------------------------------------------
# Pointwise difference bounds and the continuity constant
# ---------------------------------------------------------------------------

def delta_r_bounds(t, delta: float, coupling: Coupling) -> np.ndarray:
    """Three-component pointwise bound on |R f - R g| at distance delta.

    Returns an array of shape (3,) + shape(t).
    """
    t, scalar = checked(t, "t", 0.0)
    checked(delta, "delta", 0.0)
    al = coupling.abs_lambda
    lg = np.log1p(t)
    dr1 = delta * (1.0 + t) ** (1.0 - al) * lg
    if al == 0.0:
        dr2 = np.zeros_like(t)
        dr3 = np.zeros_like(t)
    else:
        dr2 = delta * al * math.pi * t * zeta_lambda(coupling)
        dr3 = delta * t * (np.expm1(al * lg) - al * lg) / (al * np.exp(al * lg))
    out = np.stack([dr1, dr2, dr3])
    return out[:, 0] if scalar else out


def hilbert_quotient_modulus(a, delta: float, coupling: Coupling):
    """Modulus bounding the variation of the exp-quotient transform
    between two domain members at norm distance delta."""
    al = coupling.abs_lambda
    if al == 0.0:
        raise ValueError("modulus is defined for negative coupling")
    a, scalar = checked(a, "a", 0.0)
    checked(delta, "delta", 0.0)
    lg = np.log1p(a)
    out = delta * (
        zeta_lambda(coupling)
        + (np.expm1(al * lg) - al * lg) / (al**2 * math.pi * np.exp(al * lg))
    )
    return unwrap(out, scalar)


def continuity_constant(coupling: Coupling) -> float:
    """Norm-continuity constant of the fixed-point map.

    Evaluates
        sin^2(lr*pi)/(|lam|*pi)^2 * (1-|lam|/5)^{-1}/cos(lr*pi)
        * (1 + (1+|lam|)/e + lam^2*pi*zeta),
    which is 1.36788 at zero coupling and 4.09942 at the range edge.
    The zero-coupling limit is taken through sin(x)/x -> 1.
    """
    al = coupling.abs_lambda
    lr = coupling.lambda_r
    x = lr * math.pi
    sin_ratio = math.sin(x) / x if x > 0.0 else 1.0
    term1 = sin_ratio**2 / (1.0 - 2.0 * al) ** 2
    term2 = 1.0 / ((1.0 - al / 5.0) * math.cos(x))
    term3 = 1.0 + (1.0 + al) / _E + al**2 * math.pi * zeta_lambda(coupling)
    return term1 * term2 * term3


# ---------------------------------------------------------------------------
# Auxiliary suprema entering the continuity proof
# ---------------------------------------------------------------------------

def c_aux(x, coupling: Coupling):
    """First auxiliary function; its sup is bounded by (1+|lam|)/e.

    Removable singularity at x = 1 is not special-cased; keep a small
    exclusion band around 1 when scanning.
    """
    al = coupling.abs_lambda
    if al == 0.0:
        raise ValueError("defined for negative coupling")
    x, scalar = checked(x, "x", 0.0, ends="()")
    xm = x**al
    term1 = (-(al**2) + al * (1.0 - 2.0 * al) * (x - 1.0)) / (xm * (x - 1.0))
    term2 = (x**2 - (1.0 - al) * x) / (x - 1.0) ** 2 * (al * np.log(x)) / xm
    return unwrap(term1 + term2, scalar)


def c_tilde_aux(alpha, coupling: Coupling):
    """Second auxiliary function; its sup is bounded by 1 + |lam|/4 and
    its limit at infinity is 1.

    The branch written for alpha > 1 continues analytically through the
    dilogarithm to 0 < alpha < 1; alpha = 1 is a removable point, keep
    an exclusion band when scanning.
    """
    al = coupling.abs_lambda
    if al == 0.0:
        raise ValueError("defined for negative coupling")
    alpha, scalar = checked(alpha, "alpha", 0.0, ends="()")
    lg = al * np.log(alpha)
    big_l = np.exp(lg)  # alpha^{|lam|}
    li = dilog(1.0 - 1.0 / alpha)
    corr = 1.0 + 2.0 * al**2 * li / lg**2
    inv = 1.0 / big_l

    brace_a = (1.0 - inv - lg * inv) * corr + (
        -8.0 * al**2 * (1.0 - inv) / lg**2
        + 2.0 * al * (1.0 - (1.0 - 4.0 * al) * inv) / lg
        - 2.0 * al * (1.0 - 2.0 * al) * inv
    )
    brace_b = (
        4.0 * al**2 * (1.0 - inv) / lg**2
        - 2.0 * al * (1.0 - (1.0 - 2.0 * al) * inv) / lg
        + 2.0 * al * (1.0 - al) * inv
    ) + (
        2.0 * al * (1.0 - inv) / lg
        - 1.0
        + (1.0 - 2.0 * al) * inv
        + lg * (1.0 - al) * inv
    ) * corr

    ratio = alpha / (alpha - 1.0)          # overflow-safe for huge alpha
    out = ratio**2 * brace_a + ratio / (alpha - 1.0) * brace_b
    return unwrap(out, scalar)
