"""Real-argument special functions: Gamma, reciprocal Gamma, and the
confluent hypergeometric functions M = 1F1(a, b, x) and Tricomi's
U(a, b, x).

Gamma and its reciprocal are a self-contained Lanczos evaluation.  1F1 is
scipy's ``hyp1f1``; U is its terminating series when that exists, else
scipy's ``hyperu`` up to ``X_SWITCH`` and the large-argument expansion
(DLMF 13.7.3) beyond it.  Both take a scalar or an array ``x``.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "GammaPoleError",
    "X_SWITCH",
    "gamma",
    "reciprocal_gamma",
    "reciprocal_gamma_array",
    "kummer_1f1",
    "tricomi_u",
]

# hyperu/asymptotic crossover for U.  At x = 30 the optimally truncated
# expansion is good to about 1e-12 relative, and hyperu's error there stays
# below 1e-10 of the peak of x^{|j|} e^{-x/2} U (verify's tricomi_u_switch).
X_SWITCH = 30.0

# Lanczos coefficients, g = 7, n = 9 (the standard double-precision set).
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


class GammaPoleError(ValueError):
    """Gamma evaluated at a nonpositive integer (or a series parameter
    that sits on such a pole)."""


def _is_nonpositive_integer(z: float) -> bool:
    return z <= 0.0 and z == math.floor(z)


def _sinpi(z: float) -> float:
    # sin(pi*z) with the argument reduced to [-1/2, 1/2] first, so the
    # reflection formula keeps full precision near the gamma poles.
    n = round(z)
    r = z - n
    s = math.sin(math.pi * r)
    return -s if n % 2 else s


def _lanczos_positive(z: float) -> float:
    # Valid for z >= 0.5.
    w = z - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (w + 0.5) * math.exp(-t) * acc


def gamma(z: float) -> float:
    """Gamma(z) for real z, via Lanczos with reflection for z < 1/2.

    Raises GammaPoleError at z = 0, -1, -2, ...
    """
    if math.isnan(z) or math.isinf(z):
        raise ValueError(f"gamma requires a finite argument, got {z}")
    if _is_nonpositive_integer(z):
        raise GammaPoleError(f"gamma has a pole at z = {z}")
    if z < 0.5:
        return math.pi / (_sinpi(z) * _lanczos_positive(1.0 - z))
    return _lanczos_positive(z)


def reciprocal_gamma(z: float) -> float:
    """1/Gamma(z).  Entire: returns exactly 0.0 at z = 0, -1, -2, ..."""
    if math.isnan(z) or math.isinf(z):
        raise ValueError(f"reciprocal_gamma requires a finite argument, got {z}")
    if _is_nonpositive_integer(z):
        return 0.0
    if z < 0.5:
        return _sinpi(z) * _lanczos_positive(1.0 - z) / math.pi
    return 1.0 / _lanczos_positive(z)


def _lanczos_positive_array(z: np.ndarray) -> np.ndarray:
    w = z - 1.0
    acc = np.full_like(w, _LANCZOS[0])
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (w + 0.5) * np.exp(-t) * acc


def reciprocal_gamma_array(z: np.ndarray) -> np.ndarray:
    """Vectorized ``reciprocal_gamma`` for bulk root scans."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    neg = z < 0.5
    if np.any(~neg):
        out[~neg] = 1.0 / _lanczos_positive_array(z[~neg])
    if np.any(neg):
        zn = z[neg]
        n = np.round(zn)
        sinpi = np.sin(np.pi * (zn - n)) * np.where(np.mod(n, 2.0) != 0.0, -1.0, 1.0)
        out[neg] = sinpi * _lanczos_positive_array(1.0 - zn) / np.pi
    poles = (z <= 0.0) & (z == np.floor(z))
    if np.any(poles):
        out[poles] = 0.0
    return out


def _asymptotic_alg_sum(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """sum_s (a)_s (a-b+1)_s / (s! (-x)^s), elementwise, truncated at its
    smallest term but never before term ceil(-a): for a near a nonpositive
    integer the leading terms are O(1) and may grow before they decay."""
    term = np.ones_like(x)
    total = np.ones_like(x)
    live = np.ones(x.shape, dtype=bool)
    first_stop = math.ceil(-a)
    s = 0
    while np.any(live):
        nxt = term * ((a + s) * (a - b + 1.0 + s) / (s + 1.0)) / -x
        if s >= first_stop:
            live &= np.abs(nxt) < np.abs(term)
        total = np.where(live, total + nxt, total)
        live &= np.abs(nxt) > sys.float_info.epsilon * np.abs(total)
        term = nxt
        s += 1
    return total


def _terminating_order(a: float, b: float) -> int | None:
    """n when a or a - b + 1 is the nonpositive integer -n up to the
    rounding of a and b (the smaller n if both are), else None."""
    tol = 4.0 * sys.float_info.epsilon * max(1.0, abs(a), abs(b))
    orders = [-round(p) for p in (a, a - b + 1.0) if round(p) <= 0 and abs(p - round(p)) <= tol]
    return min(orders, default=None)


def kummer_1f1(a: float, b: float, x):
    """Confluent hypergeometric function 1F1(a, b, x) for real arguments:
    scipy's ``hyp1f1``, a polynomial when ``a`` is a nonpositive integer.

    Raises GammaPoleError for a nonpositive integer ``b``.
    """
    if _is_nonpositive_integer(b):
        raise GammaPoleError(f"1F1 undefined for nonpositive integer b = {b}")
    # Deferred: scipy.special costs ~0.05 s to import, and the closed-form
    # spectra never need it.
    from scipy import special

    xs = np.asarray(x, dtype=float)
    # hyp1f1 returns inf or nan next to zero on the negative side (scipy
    # 1.17.1: 1F1(-0.125, 1.375, x) for -6e-165 < x < 0), where the series
    # is 1 + a x / b to double precision.
    linear = np.abs(xs) * (abs(a) + 1.0) <= sys.float_info.epsilon * abs(b)
    out = np.where(linear, 1.0 + a * xs / b, special.hyp1f1(a, b, xs))
    return out if out.ndim else float(out)


def tricomi_u(a: float, b: float, x):
    """Tricomi's confluent hypergeometric function U(a, b, x) for x > 0.

    When a or a-b+1 is the nonpositive integer -n, U is x^{-a} times the
    n + 1 terms of sum_s (a)_s (a-b+1)_s / (s! (-x)^s) (DLMF 13.2.7-8), all
    summed at every x.  Otherwise it is scipy's ``hyperu`` for x <= X_SWITCH
    and beyond it the large-x expansion of the same sum (DLMF 13.7.3).
    hyperu alone fails at large x when a lies within rounding of a pole: at
    a = -1 + 1e-15, b = 1.6 and x = 55-70 it is off by up to 7e5 times the
    value.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(xs > 0.0):
        raise ValueError("U(a, b, x) requires x > 0")
    order = _terminating_order(a, b)
    if order is not None:
        term = np.ones_like(xs)
        total = np.ones_like(xs)
        for s in range(order):
            term = term * ((a + s) * (a - b + 1.0 + s) / (s + 1.0)) / -xs
            total = total + term
        out = xs ** (-a) * total
        return out if out.ndim else float(out)
    from scipy import special

    out = np.empty_like(xs)
    small = xs <= X_SWITCH
    out[small] = special.hyperu(a, b, xs[small])
    large = xs[~small]
    out[~small] = large ** (-a) * _asymptotic_alg_sum(a, b, large)
    return out if out.ndim else float(out)
