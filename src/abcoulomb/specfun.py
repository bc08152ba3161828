"""Real-argument special functions: Gamma, reciprocal Gamma, and the
confluent hypergeometric functions M = 1F1(a, b, x) and Tricomi's
U(a, b, x), each on the one path the radial profiles reach.

Gamma is the standard library's ``math.gamma`` and its reciprocal is
1/math.gamma, both behind the pole and range guards below; the array
reciprocal is scipy's ``rgamma``.

1F1 and U take a scalar or an array ``x``, and on an array they cost a
fixed number of numpy calls, not one per element:

- 1F1(-m, c, x), the terminating piece of a ladder state, is a Laguerre
  polynomial (DLMF 13.6.19), summed by its three-term recurrence: m array
  steps.  Any other a is refused.
- U calls no scipy function.  From a start x_s that depends on (a, b)
  alone, where the large-argument expansion (DLMF 13.7.3) keeps its
  digits, U is that expansion by Horner's rule; below x_s it is Kummer's
  equation integrated inward from the expansion's U and U' at x_s by
  Taylor steps, the direction in which U dominates the other solution.
  A nonpositive integer a is refused: there U is a multiple of the
  polynomial 1F1 of the same a.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "GammaPoleError",
    "gamma",
    "reciprocal_gamma",
    "reciprocal_gamma_array",
    "kummer_1f1",
    "tricomi_u",
]

# Read only by the benchmark's tracer, which counts the profile samples
# beyond it; U's large-x expansion starts at an x that depends on (a, b).
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


def _asymptotic_ratios(a: float, b: float, x0: float) -> tuple[list[float], float, bool]:
    """Ratios of the successive terms of sum_s (a)_s (a-b+1)_s / (s! (-x)^s)
    up to one order for every x >= x0: the order at which the terms at x0
    reach their smallest, or drop below rounding of the sum, but never
    before term ceil(-a), since for a near a nonpositive integer the leading
    terms are O(1) and may grow before they decay.  The terms fall faster at
    every larger x, so the order suits them too.  Also the sum at x0, and
    whether it keeps its digits there: its terms drop below its rounding,
    and none exceeds 16 times the sum."""
    y0 = -1.0 / x0
    first_stop = math.ceil(-a)
    ratios = []
    term = total = largest = 1.0
    while True:
        s = len(ratios)
        ratio = (a + s) * (a - b + 1.0 + s) / (s + 1.0)
        nxt = term * ratio * y0
        if s >= first_stop and abs(nxt) >= abs(term):
            return ratios, total, False
        ratios.append(ratio)
        total += nxt
        largest = max(largest, abs(nxt))
        if abs(nxt) <= sys.float_info.epsilon * abs(total):
            return ratios, total, largest <= 16.0 * abs(total)
        term = nxt


def _asymptotic_alg_sum(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """sum_s (a)_s (a-b+1)_s / (s! (-x)^s) by Horner in -1/x, to the order
    of ``_asymptotic_ratios`` at the smallest x."""
    ratios = _asymptotic_ratios(a, b, float(np.min(x)))[0]
    y = -1.0 / x
    acc = np.ones_like(x)
    for ratio in reversed(ratios):
        acc *= y
        acc *= ratio
        acc += 1.0
    return acc


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
    """The terminating confluent hypergeometric function 1F1(-m, b, x) for
    real arguments, by the Laguerre recurrence of ``_laguerre``.

    Raises GammaPoleError for a nonpositive integer ``b``, and ValueError
    for an ``a`` that is not a nonpositive integer: no profile needs that
    1F1, which grows like e^x.
    """
    if _is_nonpositive_integer(b):
        raise GammaPoleError(f"1F1 undefined for nonpositive integer b = {b}")
    if not _is_nonpositive_integer(a):
        raise ValueError(f"kummer_1f1 sums only the terminating 1F1(-m, b, x), got a = {a}")
    out = _laguerre(-int(a), b, np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def _expansion_start(a: float, b: float) -> tuple[float, float, float, int]:
    """(x_s, u, x u', e) with (U, x U') = (u, x u') 2^e at the first
    x_s = 30 * 1.5^k at which the large-x expansions of U(a, b, x) and of
    U(a + 1, b + 1, x), whose -a times is U' (DLMF 13.3.22), both keep
    their digits.  At x = 30 the expansion converges but may cancel: at
    b = 1.6 its largest term is 1.1e9 times its sum at a = -20.3 and 6.4e12
    times at a = -28.7, where x_s is 228 and 513."""
    x = 30.0
    while True:
        _, sum_u, clean_u = _asymptotic_ratios(a, b, x)
        _, sum_du, clean_du = _asymptotic_ratios(a + 1.0, b + 1.0, x)
        if clean_u and clean_du:
            # x^{-a} = m^{-a} 2^{ek} 2^{e(-a-k)}, x = m 2^e: beyond floats from a ~ -80
            (m, e), k = math.frexp(x), math.floor(-a)
            power, shift = math.frexp(m ** (-a) * 2.0 ** (e * (-a - k)))
            return x, power * sum_u, -a * power * sum_du, e * k + shift
        x *= 1.5


# Terms of the Taylor series about each point of the march: a step is at
# most 1 - e^{-0.15} = 0.14 of the way to the singular point x = 0.
_TAYLOR_TERMS = 24


def _kummer_march(a: float, b: float, start: tuple, x: np.ndarray) -> np.ndarray:
    """U(a, b, x) at 0 < x < x_s: Kummer's equation x U'' + (b - x) U' - a U
    = 0 integrated inward from ``start`` = (x_s, u, x u', e).  Inward, the
    other solution e^x x^{a-b} decays past the turning point, and at the
    origin U is the x^{1-b} (or log x) solution, so rounding does not grow.
    A step is at most 4 in x, where the other solution changes by e^4, and
    at most min(0.15, 1/(|b/2 - a| + 1)) in ln x, about a radian of U's
    oscillation; the steps depend on (a, b) alone.  A sample is the Taylor
    series about the step point x_k above it in s = (x - x_k)/x_k, whose
    coefficients d_n = x_k^n U^(n)(x_k)/n! obey Kummer's equation as
    (n+1)(n+2) d_{n+2} = (n+a) x_k d_n - (n+1)(n+b-x_k) d_{n+1}, on the
    scale 2^e that (U, x U') carries at x_k."""
    x_start, u, xu, exponent = start
    shrink = math.exp(-min(0.15, 1.0 / (abs(0.5 * b - a) + 1.0)))
    lo = float(np.min(x))
    points = [x_start]
    while points[-1] > lo:
        points.append(max(points[-1] - 4.0, points[-1] * shrink))
    points = np.array(points)
    # d_n about every point of the two solutions with (U, x U') = (1, 0)
    # and (0, 1) there, one row per power
    n = np.arange(_TAYLOR_TERMS - 2.0)[:, None]
    up = (n + a) / ((n + 1.0) * (n + 2.0)) * points
    down = (n + b - points) / (n + 2.0)
    d = np.zeros((_TAYLOR_TERMS, 2, points.size))
    d[0, 0] = d[1, 1] = 1.0
    for k in range(_TAYLOR_TERMS - 2):
        np.multiply(up[k], d[k], out=d[k + 2])
        d[k + 2] -= down[k] * d[k + 1]
    # (U, x U') of both at the next point, s = x_{k+1}/x_k - 1: the steps'
    # transfer matrices, chained from x_s
    ratio = points[1:] / points[:-1]
    powers = np.empty((_TAYLOR_TERMS, ratio.size))
    powers[0] = 1.0
    powers[1:] = ratio - 1.0
    np.cumprod(powers, axis=0, out=powers)
    step = d[:, :, :-1]
    value = (step * powers[:, None]).sum(axis=0)
    weights = np.arange(1.0, _TAYLOR_TERMS)[:, None] * powers[:-1]
    slope = (step[1:] * weights[:, None]).sum(axis=0) * ratio
    us, xus, exponents = [u], [xu], [exponent]
    for m00, m01, m10, m11 in zip(*value.tolist(), *slope.tolist()):
        u, xu = m00 * u + m01 * xu, m10 * u + m11 * xu
        # rescaled only outside |(u, x u')| = 2^{+-256}: d_n reach 2^207 at x_s = 5 839
        if not 2.0**-512 < u * u + xu * xu < 2.0**512:
            shift = math.frexp(abs(u) + abs(xu))[1]
            u, xu, exponent = math.ldexp(u, -shift), math.ldexp(xu, -shift), exponent + shift
        us.append(u)
        xus.append(xu)
        exponents.append(exponent)
    coef = d[:, 0] * np.array(us) + d[:, 1] * np.array(xus)
    # the point at or above each sample, and the sample's offset from it
    k = points.size - 1 - np.searchsorted(points[::-1], x)
    s = x / points[k] - 1.0
    out = coef[-1].take(k)
    for row in coef[-2::-1]:
        out *= s
        out += row.take(k)
    return np.ldexp(out, np.array(exponents, dtype=np.int32).take(k))  # int32: 4x int64's speed


def tricomi_u(a: float, b: float, x):
    """Tricomi's confluent hypergeometric function U(a, b, x) for x > 0: the
    large-x expansion (DLMF 13.7.3) by Horner's rule from the x_s of
    ``_expansion_start`` on, and ``_kummer_march`` below, which holds U at
    x_s as a mantissa and a binary exponent, so U is finite wherever it is
    a float.  Where a - b + 1 is the nonpositive integer -m the expansion
    terminates (DLMF 13.2.40).

    Raises ValueError for a nonpositive integer ``a``: U(-m, b, x) is
    (-1)^m (b)_m 1F1(-m, b, x) (DLMF 13.2.7), which ``kummer_1f1`` sums.
    That polynomial is recessive at the origin, so the march inward, which
    follows the x^{1-b} solution there, loses it as b grows; for the same
    reason an a within rounding of a nonpositive integer with b > 2 loses
    relative digits (1.7e-9 at a = -3 + 1e-15, b = 3.5).
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(xs > 0.0):
        raise ValueError("U(a, b, x) requires x > 0")
    if _is_nonpositive_integer(a):
        raise ValueError(f"tricomi_u does not take a nonpositive integer a = {a}; "
                         "U(-m, b, x) is a multiple of kummer_1f1(-m, b, x)")
    out = np.empty_like(xs)
    start = _expansion_start(a, b)
    far = xs >= start[0]
    if far.any():
        out[far] = xs[far] ** (-a) * _asymptotic_alg_sum(a, b, xs[far])
    if not far.all():
        out[~far] = _kummer_march(a, b, start, xs[~far])
    return out if out.ndim else float(out)
