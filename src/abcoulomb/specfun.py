"""Real-argument special functions: Gamma, reciprocal Gamma, and the
confluent hypergeometric functions M = 1F1(a, b, x) and Tricomi's
U(a, b, x).

Gamma is the standard library's ``math.gamma`` and its reciprocal is
1/math.gamma, both behind the pole and range guards below; the array
reciprocal is scipy's ``rgamma``.

1F1 and U take a scalar or an array ``x``, and on an array they cost a
fixed number of numpy and scipy calls, not one per element:

- 1F1(-m, c, x) and every U that terminates (a or a - b + 1 a nonpositive
  integer, DLMF 13.2.7 and 13.2.40) are a Laguerre polynomial, summed by
  its three-term recurrence: m array steps.
- Any other 1F1 is scipy's ``hyp1f1``.
- Any other U is scipy's ``hyperu`` up to ``X_SWITCH``, called at every x
  only when that is cheaper than calling it at the Chebyshev points of
  panels in ln x and summing the interpolants (Clenshaw), a non-finite
  sample filled by the recurrence in a, and beyond
  ``X_SWITCH`` the large-argument expansion (DLMF 13.7.3) by Horner's rule,
  to one order fixed at the smallest x.
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


class GammaPoleError(ValueError):
    """Gamma evaluated at a nonpositive integer (or a series parameter
    that sits on such a pole)."""


def _is_nonpositive_integer(z: float) -> bool:
    return z <= 0.0 and z == math.floor(z)


def gamma(z: float) -> float:
    """Gamma(z) for real z: ``math.gamma``.

    Raises GammaPoleError at z = 0, -1, -2, ...
    """
    if not math.isfinite(z):
        raise ValueError(f"gamma requires a finite argument, got {z}")
    if _is_nonpositive_integer(z):
        raise GammaPoleError(f"gamma has a pole at z = {z}")
    return math.gamma(z)


def reciprocal_gamma(z: float) -> float:
    """1/Gamma(z) as 1/math.gamma(z).  Entire: returns exactly 0.0 at
    z = 0, -1, -2, ... and where Gamma overflows (z > 171.6).  Raises
    OverflowError where 1/Gamma itself overflows (z < -171)."""
    # Guarded by the exceptions and one check on the result, so the common
    # finite argument pays for nothing but the division.
    try:
        inverse = 1.0 / math.gamma(z)
    except ValueError:  # a pole, or z = -inf
        if z == -math.inf:
            raise ValueError(f"reciprocal_gamma requires a finite argument, got {z}") from None
        return 0.0
    except OverflowError:  # z > 171.6, or |z| < 5.6e-309 where 1/Gamma(z) = z
        return z if abs(z) < 1.0 else 0.0
    except ZeroDivisionError:  # Gamma(z) underflows to zero
        raise OverflowError(f"1/Gamma({z}) is beyond the float range") from None
    if inverse == 0.0 or not math.isfinite(inverse):  # z = +inf or nan, or 1/Gamma overflows
        if math.isinf(inverse):
            raise OverflowError(f"1/Gamma({z}) is beyond the float range")
        raise ValueError(f"reciprocal_gamma requires a finite argument, got {z}")
    return inverse


def reciprocal_gamma_array(z: np.ndarray) -> np.ndarray:
    """Vectorized ``reciprocal_gamma``: scipy's ``rgamma``, which gives
    +-inf where ``reciprocal_gamma`` raises OverflowError."""
    from scipy import special  # deferred, as in kummer_1f1

    return special.rgamma(np.asarray(z, dtype=float))


def _asymptotic_alg_sum(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """sum_s (a)_s (a-b+1)_s / (s! (-x)^s) by Horner in -1/x, to one order
    for the whole array: the order at which the terms at the smallest x
    reach their smallest, or drop below rounding of the sum, but never
    before term ceil(-a), since for a near a nonpositive integer the leading
    terms are O(1) and may grow before they decay.  The terms fall faster at
    every larger x, so the order suits them too."""
    y0 = -1.0 / float(np.min(x))
    first_stop = math.ceil(-a)
    ratios = []
    term = total = 1.0
    while True:
        s = len(ratios)
        ratio = (a + s) * (a - b + 1.0 + s) / (s + 1.0)
        nxt = term * ratio * y0
        if s >= first_stop and abs(nxt) >= abs(term):
            break
        ratios.append(ratio)
        total += nxt
        if abs(nxt) <= sys.float_info.epsilon * abs(total):
            break
        term = nxt
    y = -1.0 / x
    acc = np.ones_like(x)
    for ratio in reversed(ratios):
        acc *= y
        acc *= ratio
        acc += 1.0
    return acc


def _snap_to_pole(z: float, tol: float) -> float:
    """The nonpositive integer within ``tol`` of z, else z itself."""
    n = round(z)
    return float(n) if n <= 0 and abs(z - n) <= tol else z


def _terminating_form(a: float, b: float) -> tuple[int, float, float] | None:
    """(m, c, p) with U(a, b, x) = x^p (-1)^m (c)_m 1F1(-m, c, x) when a or
    a - b + 1 is the nonpositive integer -m up to the rounding of a and b,
    else None: c = b, p = 0 for a = -m (DLMF 13.2.7), and c = 2 - b,
    p = 1 - b for a - b + 1 = -m (DLMF 13.2.40).  The smaller m wins, which
    keeps c + k off zero for k < m."""
    tol = 4.0 * sys.float_info.epsilon * max(1.0, abs(a), abs(b))
    forms = []
    for z, c, p in ((a, b, 0.0), (a - b + 1.0, 2.0 - b, 1.0 - b)):
        z = _snap_to_pole(z, tol)
        if _is_nonpositive_integer(z):
            forms.append((-int(z), c, p))
    return min(forms, default=None)


def _laguerre(m: int, c: float, x: np.ndarray) -> np.ndarray:
    """1F1(-m, c, x), a Laguerre polynomial up to normalisation (DLMF
    13.6.19), by its three-term recurrence in m (DLMF 13.3.1):
    (c + k) M_{k+1} = (2k + c - x) M_k - k M_{k-1}, from M_0 = 1."""
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    for k in range(m):
        nxt = (2.0 * k + c) - x
        nxt *= cur
        nxt -= k * prev
        nxt /= c + k
        prev, cur = cur, nxt
    return cur


def kummer_1f1(a: float, b: float, x):
    """Confluent hypergeometric function 1F1(a, b, x) for real arguments:
    for a nonpositive integer ``a`` the polynomial by its Laguerre
    recurrence, else scipy's ``hyp1f1``.

    Raises GammaPoleError for a nonpositive integer ``b``.
    """
    if _is_nonpositive_integer(b):
        raise GammaPoleError(f"1F1 undefined for nonpositive integer b = {b}")
    xs = np.asarray(x, dtype=float)
    if _is_nonpositive_integer(a):
        out = _laguerre(-int(a), b, xs)
        return out if out.ndim else float(out)
    # Deferred: scipy.special costs ~0.05 s to import, and the closed-form
    # spectra never need it.
    from scipy import special

    # hyp1f1 returns inf or nan next to zero on the negative side (scipy
    # 1.17.1: 1F1(-0.125, 1.375, x) for -6e-165 < x < 0), where the series
    # is 1 + a x / b to double precision.
    linear = np.abs(xs) * (abs(a) + 1.0) <= sys.float_info.epsilon * abs(b)
    out = np.where(linear, 1.0 + a * xs / b, special.hyp1f1(a, b, xs))
    return out if out.ndim else float(out)


# U below X_SWITCH on many samples: Chebyshev interpolants in s = ln x on
# panels of at most _PANEL_WIDTH, through _PANEL_NODES Chebyshev points
# each.  U(a, b, e^s) is analytic in |Im s| < pi, so each interpolant
# converges geometrically.  A panel's interpolant is kept only where its
# last two coefficients are within _PANEL_TAIL of its largest, well above
# the rounding of hyperu (about 1e-15).  Elsewhere U oscillates too fast
# for the panel (finite-lambda roots from about the fifth on), or hyperu is
# noisy (near b = 1 it is 1e-4 off relative at a = 0.95, b = 1.006,
# x = 17) or not finite, and the panel's samples call hyperu directly, so
# that no noisy point is spread over a panel.  On the finite-lambda
# profiles of roots 1-12 the result agrees with hyperu at the samples to
# 2e-14 of the peak of x^{|j|} e^{-x/2} U.
_PANEL_WIDTH = 0.5
_PANEL_NODES = 14
_PANEL_TAIL = 1e-12
_PANEL_ANGLES = np.pi * (np.arange(_PANEL_NODES) + 0.5) / _PANEL_NODES
_PANEL_POINTS = np.cos(_PANEL_ANGLES)
# values at the points -> Chebyshev coefficients (a DCT-II)
_PANEL_DCT = np.cos(np.outer(_PANEL_ANGLES, np.arange(_PANEL_NODES))) * (2.0 / _PANEL_NODES)
_PANEL_DCT[:, 0] *= 0.5


def _hyperu_panels(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """scipy's ``hyperu`` at x, called at every x or, when that takes more
    calls, at the Chebyshev points of the panels that cover ln x and summed
    by Clenshaw's recurrence.  A panel whose last two coefficients exceed
    _PANEL_TAIL of its largest (a point where hyperu is noisy or not
    finite) has hyperu called at its own samples instead."""
    from scipy import special

    if x.size <= _PANEL_NODES:
        return special.hyperu(a, b, x)
    s = np.log(x)
    lo, hi = float(np.min(s)), float(np.max(s))
    panels = max(1, math.ceil((hi - lo) / _PANEL_WIDTH))
    if panels * _PANEL_NODES >= x.size:
        return special.hyperu(a, b, x)
    width = (hi - lo) / panels or _PANEL_WIDTH
    centres = lo + width * (np.arange(panels) + 0.5)
    points = np.exp(centres[:, None] + 0.5 * width * _PANEL_POINTS)
    coef = special.hyperu(a, b, points) @ _PANEL_DCT
    magnitude = np.abs(coef)
    # written so that a nan coefficient fails the test too
    converged = np.max(magnitude[:, -2:], axis=1) <= _PANEL_TAIL * np.max(magnitude, axis=1)
    panel = np.minimum(((s - lo) / width).astype(np.intp), panels - 1)
    t = (s - centres[panel]) * (2.0 / width)
    # the samples' coefficients, one row per Chebyshev degree
    coef = coef.T.take(panel, axis=1)
    t2 = 2.0 * t
    b1 = np.zeros_like(t)
    b2 = np.zeros_like(t)
    for row in coef[:0:-1]:
        b0 = t2 * b1
        b0 += row
        b0 -= b2
        b1, b2 = b0, b1
    out = coef[0] + t * b1 - b2
    if not converged.all():
        direct = ~converged[panel]
        out[direct] = special.hyperu(a, b, x[direct])
    return out


def tricomi_u(a: float, b: float, x):
    """Tricomi's confluent hypergeometric function U(a, b, x) for x > 0.

    When a or a-b+1 is the nonpositive integer -m, U is a power of x times a
    degree-m Laguerre polynomial (DLMF 13.2.7, 13.2.40), summed at every x by
    the recurrence of ``kummer_1f1``.  Otherwise it is scipy's ``hyperu`` for
    x <= X_SWITCH, called directly or through Chebyshev panels in ln x when
    those take fewer calls, and beyond X_SWITCH the large-x expansion
    (DLMF 13.7.3) by Horner's rule.  hyperu alone fails at large x when a
    lies within rounding of a pole: at a = -1 + 1e-15, b = 1.6 and
    x = 55-70 it is off by up to 7e5 times the value.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(xs > 0.0):
        raise ValueError("U(a, b, x) requires x > 0")
    form = _terminating_form(a, b)
    if form is not None:
        m, c, p = form
        out = math.prod(-c - k for k in range(m)) * _laguerre(m, c, xs)
        if p:
            out *= xs**p
        return out if out.ndim else float(out)
    out = np.empty_like(xs)
    small = xs <= X_SWITCH
    out[small] = _hyperu_panels(a, b, xs[small])
    # hyperu is not finite at a few x once a <~ -6 (a = -8.49, b = 1.6,
    # x = 8.89): one step of the recurrence in a (DLMF 13.3.7) from a + 1, a + 2
    bad = small & ~np.isfinite(out)
    if bad.any():
        from scipy import special

        xb = xs[bad]
        out[bad] = ((2.0 * a + 2.0 + xb - b) * special.hyperu(a + 1.0, b, xb)
                    - (a + 1.0) * (a - b + 2.0) * special.hyperu(a + 2.0, b, xb))
    large = xs[~small]
    if large.size:
        out[~small] = large ** (-a) * _asymptotic_alg_sum(a, b, large)
    return out if out.ndim else float(out)
