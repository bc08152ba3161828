"""Bound states of a general self-adjoint extension.

For a finite extension parameter ``lambda`` the boundary condition fixes
the irregular/regular coefficient ratio b_m/a_m = lambda*(2 kappa)**(2|j|),
and normalizability kills the growing part of the large-x asymptotics.
The bound states are the zeros of F = Gamma(b)/Gamma(a) + lambda (2 kappa)^(2|j|)
Gamma(b')/Gamma(a') in t = q/kappa, q = m_e eta/hbar^2.  By the reflection
formula (DLMF 5.5.3) F times pi/(Gamma(1/2 - |j| + t) Gamma(1 + 2|j|)) > 0 is

    G(t) = cos(pi(t - |j|)) + lambda W(t) cos(pi(t + |j|)),
    W(t) = (2q/t)^(2|j|) Gamma(1/2 + |j| + t)/Gamma(1/2 - |j| + t)
           * Gamma(1 - 2|j|)/Gamma(1 + 2|j|) > 0,

which has no poles and no gamma ceiling; ``secular_function`` and
``solve_secular`` evaluate one kernel of it.  lambda is a plain float in
(-inf, +inf]: ``math.inf`` is the purely irregular extension, G/(lambda W)
= cos(pi(t + |j|)), and NaN and -inf raise ValueError.  The zeros of
lambda = 0 and inf are the ladders t = n - 1/2 +- |j|, and those of every
finite lambda interlace with them, so each is solved to adjacent floats on
its own interval by inverse quadratic interpolation safeguarded by
bisection.  Each ``SecularRoot`` carries its t, from which ``abcoulomb
spectrum --lambda`` and ``scan --lambda`` take its energy.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from .model import FloatRangeError, PhysicalParams, SectorError, _is_normal, is_singular_sector
from .specfun import gamma, reciprocal_gamma

__all__ = [
    "KummerParams",
    "SolutionCoefficients",
    "SecularRoot",
    "RootSearchError",
    "secular_function",
    "solve_secular",
    "normalizable_coefficients",
]


class RootSearchError(RuntimeError):
    """A secular root bracket could not be located or refined."""


def _check_lambda(lam: float) -> None:
    """Refuse a lambda outside (-inf, +inf]: NaN and -inf."""
    if math.isnan(lam):
        raise ValueError("extension parameter cannot be NaN")
    if lam == -math.inf:
        raise ValueError("extension parameter lies in (-inf, +inf]")


def _require_extension_sector(lam: float, j: float) -> None:
    """lambda must lie in (-inf, +inf], and every lambda needs |j| < 1/2,
    where both origin behaviors are square integrable; a finite nonzero
    one also needs b' != b in floats, i.e. j != 0, where the irregular
    solution is log r."""
    _check_lambda(lam)
    if not is_singular_sector(j):
        raise SectorError(f"lambda = {lam} requires |j| < 1/2, got |j| = {abs(j)}")
    if lam not in (0.0, math.inf) and 1.0 - 2.0 * abs(j) == 1.0 + 2.0 * abs(j):
        raise SectorError(
            f"finite nonzero lambda is undefined at j = {j}: at j = 0 the "
            "irregular solution is log r"
        )


def _check_kappa(kappa: float) -> None:
    """Refuse a kappa that is not positive, and with FloatRangeError one that
    is not a normal float: at a subnormal kappa t = q/kappa keeps too few
    digits for a ladder's integer, or is inf, and at kappa = inf it is 0."""
    if not (kappa > 0.0):
        raise ValueError(f"kappa must be positive, got {kappa}")
    if not _is_normal(kappa):
        raise FloatRangeError(f"kappa = {kappa!r} is beyond the float range")


def _snap_to_pole(z: float, tol: float) -> float:
    """The nearest nonpositive integer if it lies within ``tol`` of z, else
    z itself; a tol of 1/2 or more (t >= 5.6e14) can reach 0 from a
    positive integer z."""
    n = min(round(z), 0)
    return float(n) if abs(z - n) <= tol else z


@dataclass(frozen=True)
class KummerParams:
    """Hypergeometric parametrization of the radial solution at fixed kappa:

        a  = 1/2 + |j| - q/kappa      b  = 1 + 2|j|
        a' = 1/2 - |j| - q/kappa      b' = 1 - 2|j|
    """

    a: float
    b: float
    a_prime: float
    b_prime: float
    kappa: float

    def __post_init__(self) -> None:
        if not (self.kappa > 0.0):
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.b < 1.0:
            raise ValueError(f"b = 1 + 2|j| must be >= 1, got {self.b}")
        shared = (self.a - self.b) - (self.a_prime - self.b_prime)
        # a - b + |j| == a' - b' - |j| up to rounding and for_state's snaps of
        # a and a', each up to 4 eps max(1, t) with t <= 1.5 max(1, |a'|)
        scale = max(1.0, abs(self.a), abs(self.a_prime))
        if abs(shared + (self.b - self.b_prime) / 2.0) > 16.0 * sys.float_info.epsilon * scale:
            raise ValueError("inconsistent Kummer parameters")

    @property
    def abs_j(self) -> float:
        return (self.b - 1.0) / 2.0

    @classmethod
    def for_state(cls, kappa: float, j: float, params: PhysicalParams) -> "KummerParams":
        """The parameters at kappa, with an a or a' that lies within
        4 eps max(1, t) of a nonpositive integer put exactly on it.

        A closed-form ladder kappa leaves a (or a') within 1.4 eps max(1, t)
        of 1 - n; on the integer its 1/Gamma is exactly zero, so a ladder
        state carries no residue of the growing solution.  A kappa that is
        not a positive normal float is refused (``_check_kappa``).
        """
        _check_kappa(kappa)
        aj = abs(j)
        t = params.q / kappa
        tol = 4.0 * sys.float_info.epsilon * max(1.0, t)
        return cls(
            a=_snap_to_pole(0.5 + aj - t, tol),
            b=1.0 + 2.0 * aj,
            a_prime=_snap_to_pole(0.5 - aj - t, tol),
            b_prime=1.0 - 2.0 * aj,
            kappa=kappa,
        )


@dataclass(frozen=True)
class SolutionCoefficients:
    """Coefficients of the regular (a_m) and irregular (b_m) pieces."""

    a_m: float
    b_m: float

    def __post_init__(self) -> None:
        if self.a_m == 0.0 and self.b_m == 0.0:
            raise ValueError("trivial solution: a_m and b_m are both zero")


@dataclass(frozen=True)
class SecularRoot:
    """A root's t = q/kappa (0 at q = 0), kappa and normalized residual."""

    t: float
    kappa: float
    residual: float


def _reflection_kernel(lam: float, aj: float, log_two_q: float):
    """The kernel of G for one (lambda, |j|), with ln(2q) = ``log_two_q``, as
    a function of t and ln t, and L(t, ln t) = ln(|lambda| W).

    The kernel is G/max(1, |lambda| W), A c + B c' with c = cos(pi(t - |j|)),
    c' = cos(pi(t + |j|)), A = 1, B = lambda W up to |lambda| W = 1 and
    A = 1/(|lambda| W), B = sign(lambda) beyond: G's sign and roots, within
    [-2, 2], a deep lambda < 0 ground state's weight included.  It is taken as
    (A + B) c - B (c - c') where A = 1 and (A + B) c' + A (c - c') beyond,
    A + B being 2 + expm1(-|L|) or +-expm1(-|L|): with t = k + r, k the
    nearest integer, c and c' are (-1)^k sin(pi(1/2 - |j| +- r)) and c - c'
    is (-1)^k 2 sin(pi r) sin(pi|j|), each to its own rounding.  So nothing
    cancels at lambda = -1 and |j| -> 0, and a root by a ladder point, where
    the small weight's cosine vanishes, is found to the float, as with the
    Gamma-ratio F.  L = -inf at lambda = 0 and +inf at lambda = inf give
    c and c'.  ln W's Gamma ratio takes
    the psi series (DLMF 5.15.1, psi^(2k) = -(2k)! zeta(2k + 1, .)) to |j|^5
    where |j| < 1e-3, whose lgamma difference would cancel, and past t = 170,
    where that difference rounds like t ln t; the next term is 2e-17 at most.
    """
    def psi_series(x: float, eps: float) -> float:  # ln(Gamma(x + eps)/Gamma(x - eps))
        from scipy import special  # deferred, as in specfun

        e2 = eps * eps
        zetas = special.zeta(3.0, x) / 3.0 + e2 * special.zeta(5.0, x) / 5.0
        return float(2.0 * eps * (special.digamma(x) - e2 * zetas))

    two_aj, half_plus, half_minus, pi = 2.0 * aj, 0.5 + aj, 0.5 - aj, math.pi
    two_sin_j = 2.0 * math.sin(pi * aj)
    series_from = -math.inf if aj < 1e-3 else 170.0  # the t beyond which ln W is a series
    # L but for its terms in t: ln|lambda| + ln(Gamma(b')/Gamma(b)) + 2|j| ln(2q)
    log_c = (-psi_series(1.0, two_aj) if series_from < 0.0
             else math.log(gamma(1.0 - two_aj) * reciprocal_gamma(1.0 + two_aj)))
    log_scale = (math.log(abs(lam)) if lam else -math.inf) + log_c + two_aj * log_two_q
    sin, log, lgamma, expm1 = math.sin, math.log, math.lgamma, math.expm1

    def log_ratio(t: float, log_t: float) -> float:
        if t > series_from:
            return log_scale - two_aj * log_t + psi_series(0.5 + t, aj)
        return log_scale - two_aj * log_t + (lgamma(half_plus + t) - lgamma(half_minus + t))

    def kernel(t: float, log_t: float | None = None) -> float:
        k = round(t)
        r = t - k
        if log_t is None:
            log_t = log(t)
        if t > series_from:
            ell = log_ratio(t, log_t)
        else:  # log_ratio inlined, on locals bound once: the hot path
            ell = log_scale - two_aj * log_t + (lgamma(half_plus + t) - lgamma(half_minus + t))
        m = expm1(-ell if ell > 0.0 else ell)  # the smaller of A and |B| is 1 + m
        # A + B = 2 + m, or -m and m for lambda < 0 below and beyond |lambda| W = 1
        a_plus_b = 2.0 + m if lam >= 0.0 else (m if ell > 0.0 else -m)
        x = half_minus - r if ell > 0.0 else half_minus + r  # c or c' is sin(pi x)
        # sin(pi x) on [-1/2, 1], from 1 - x (exact) beyond 1/2
        value = a_plus_b * sin(pi * (1.0 - x) if x > 0.5 else pi * x)
        # A (c - c') beyond |lambda| W = 1, and -B (c - c') below
        weighted_diff = (1.0 + m) * two_sin_j * sin(pi * r)
        value += -weighted_diff if ell <= 0.0 and lam >= 0.0 else weighted_diff
        return -value if k & 1 else value

    return kernel, log_ratio


def secular_function(kappa: float, lam: float, j: float, params: PhysicalParams) -> float:
    """G/max(1, |lambda| W) at t = q/kappa (``_reflection_kernel``): a
    positive multiple of F, whose zeros in kappa are the bound states, in
    [-2, 2] at every normal kappa.  A kappa that is not a positive normal
    float is refused (``_check_kappa``), and with FloatRangeError one whose
    t overflows."""
    _check_kappa(kappa)
    _require_extension_sector(lam, j)
    t = params.q / kappa
    if t == math.inf:
        raise FloatRangeError(f"t = q/kappa at kappa = {kappa!r} is beyond the float range")
    # ln(2 kappa) stands in for ln(2q) - ln t
    kernel, _ = _reflection_kernel(lam, abs(j), math.log(2.0) + math.log(kappa))
    return kernel(t, 0.0)


def normalizable_coefficients(kp: KummerParams) -> SolutionCoefficients:
    """Coefficients that cancel the growing large-x part by construction:
    a_m = Gamma(b')/Gamma(a'), b_m = -Gamma(b)/Gamma(a); on the parameters of
    ``KummerParams.for_state`` a ladder state has an exactly zero coefficient.
    A state whose 2|j| is below the rounding of a and a' (a == a', where
    both solutions are one function, or both on a ladder, where both
    coefficients vanish) is the j = 0 limit, refused with SectorError."""
    a_m = gamma(kp.b_prime) * reciprocal_gamma(kp.a_prime)
    b_m = -gamma(kp.b) * reciprocal_gamma(kp.a)
    if kp.a == kp.a_prime or a_m == b_m == 0.0:
        raise SectorError(f"a and a' round to {kp.a!r} and {kp.a_prime!r}: the state is the "
                          "j = 0 limit, where the irregular solution is log r")
    return SolutionCoefficients(a_m=a_m, b_m=b_m)


def _bracketed_root(f, lo: float, hi: float, f_lo: float, f_hi: float) -> tuple[float, float]:
    """A zero of f on [lo, hi], whose end values differ in sign, and f there.

    Returns on an exact zero, or once the bracket is two adjacent floats,
    with their midpoint rounded as bisection rounds it; on a function with
    one sign change at float level that is the float bisection returns.
    Steps interpolate inverse-quadratically where Chandrupatla's test
    (Adv. Eng. Softw. 28, 145 (1997)) admits it and by secant otherwise,
    and stay at least one float inside the bracket, so that a converged
    estimate closes the bracket across the root.  Interpolation runs while
    fewer than 2(k + 1) evaluations have been made, k being the number of
    times the bracket has halved; beyond that a step bisects, so no
    function takes more than twice the evaluations bisection needs to
    close the bracket.  A bracket still open after 400 evaluations (at
    least 199 halvings) raises rather than return a wide bracket's midpoint.
    Signs are compared, not products, which underflow at tiny lambda.
    """
    if f_lo == 0.0:
        return lo, f_lo
    if f_hi == 0.0:
        return hi, f_hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise RootSearchError(f"root not bracketed on [{lo}, {hi}]")
    # a is the newest point, b the bracket end across the root from it, and
    # c the point last replaced by a
    a, f_a, b, f_b = hi, f_hi, lo, f_lo
    c = f_c = None
    evaluations, halvings, next_width = 0, 0, 0.5 * (hi - lo)
    while True:
        lo, hi = (a, b) if a < b else (b, a)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid, f_a if mid == a else f_b
        while hi - lo <= next_width:
            halvings += 1
            next_width *= 0.5
        if evaluations == 400:
            raise RootSearchError(f"no adjacent-float bracket on [{lo}, {hi}] in 400 evaluations")
        x = mid
        if evaluations < 2 * (halvings + 1):
            s = f_a / (f_a - f_b)  # secant, as a fraction of the way from a to b
            if c is not None:
                xi, phi = (a - b) / (c - b), (f_a - f_b) / (f_c - f_b)
                if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
                    # inverse quadratic through a, b and c, where it is monotone
                    s = (f_a / (f_b - f_a)) * (f_c / (f_b - f_c)) + (
                        (c - a) / (b - a) * (f_a / (f_c - f_a)) * (f_b / (f_c - f_b))
                    )
            x = a + s * (b - a)
            if not lo < x < hi:
                x = math.nextafter(lo, hi) if x <= lo else math.nextafter(hi, lo) if x >= hi else mid
        f_x = f(x)
        evaluations += 1
        if f_x == 0.0:
            return x, f_x
        if (f_x < 0.0) == (f_a < 0.0):
            c, f_c = a, f_a
        else:
            c, f_c, b, f_b = b, f_b, a, f_a
        a, f_a = x, f_x


def _normalized_residual(f, t_root: float, value: float) -> float:
    """|f(t)| scaled by the local derivative and the size of t, i.e. the
    Newton-step length relative to t; ``value`` is f at the root, and the
    slope is a forward difference from it."""
    if value == 0.0:
        return 0.0
    h = min(1e-6 * max(1.0, abs(t_root)), 0.5 * abs(t_root))
    slope = (f(t_root + h) - value) / h
    scale = abs(slope) * max(1.0, abs(t_root))
    if scale == 0.0:
        return abs(value)
    return abs(value) / scale


def solve_secular(lam: float, j: float, params: PhysicalParams, count: int) -> list[SecularRoot]:
    """The first ``count`` secular roots, ordered from the ground state
    (largest kappa / smallest t) upward.

    lambda = 0 and lambda = inf return the ladders t = n - 1/2 +- |j|,
    all positive in |j| < 1/2, with residual 0.0.  Otherwise root n is
    solved to adjacent floats by ``_bracketed_root`` on the kernel of G, on
    its interlacing interval in t = q/kappa: for lambda > 0
    [n - 1/2 - |j|, n - 1/2 + |j|]; for lambda < 0 [n - 3/2 + |j|,
    n - 1/2 - |j|], and (0, 1/2 - |j|) in log t for n = 1, whose kappa
    beyond the float range raises RootSearchError.  On the interval ends
    one term of G survives, taken in closed form.  With no Coulomb
    attraction only lambda < 0 has a root, where |lambda| W = 1.
    """
    if not isinstance(count, numbers.Integral) or isinstance(count, bool) or count < 1:
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
    _require_extension_sector(lam, j)
    aj, q = abs(j), params.q
    if q == 0.0:  # t = 0 at every kappa, and L is 2|j| ln(2 kappa) plus L at 2 kappa = 1
        if lam >= 0.0:
            return []
        _, log_ratio = _reflection_kernel(lam, aj, 0.0)
        log_two_kappa = -log_ratio(0.0, 0.0) / (2.0 * aj)
        top = math.log(sys.float_info.max)
        kappa = 0.5 * math.exp(log_two_kappa) if log_two_kappa < top else math.inf
        if not _is_normal(kappa):  # at a huge or a subnormal |lambda|
            raise RootSearchError(f"lambda={lam}, j={j}: root kappa beyond float range")

        def f(k: float) -> float:
            return secular_function(k, lam, j, params)

        return [SecularRoot(t=0.0, kappa=kappa, residual=_normalized_residual(f, kappa, f(kappa)))]
    if lam in (0.0, math.inf):
        shift = aj if lam == 0.0 else -aj
        return [SecularRoot(t=t, kappa=q / t, residual=0.0)
                for t in (n - 0.5 + shift for n in range(1, count + 1))]
    kernel, log_ratio = _reflection_kernel(lam, aj, math.log(2.0) + math.log(q))
    sin_2j = math.sin(2.0 * math.pi * (0.5 - aj))

    def end(n: int, regular: bool) -> tuple[float, float]:
        # a = 1 - n at t = n - 1/2 + |j|, where B (-1)^n sin(2 pi|j|) survives,
        # and a' = 1 - n at t = n - 1/2 - |j|, where A (-1)^(n+1) sin(2 pi|j|)
        t = n - 0.5 + (aj if regular else -aj)
        ell = log_ratio(t, math.log(t))
        term = math.copysign(math.exp(min(ell, 0.0)), lam) if regular else -math.exp(-max(ell, 0.0))
        return t, (-term if n & 1 else term) * sin_2j

    roots = []
    if lam > 0.0:
        brackets = [(end(n, False), end(n, True)) for n in range(1, count + 1)]
    else:
        # Root 1 can sit at kappa ~ 1e50 and beyond, so it is solved in
        # log t, down to the least t whose kappa = q/t is a normal float
        t_floor = max(sys.float_info.min, q / sys.float_info.max)
        t_hi, f_hi = end(1, False)
        try:
            t = math.exp(_bracketed_root(lambda s: kernel(math.exp(s), s), math.log(t_floor),
                                         math.log(t_hi), kernel(t_floor), f_hi)[0])
        except RootSearchError:  # no sign change above t_floor
            t = 0.0
        if not (t and _is_normal(q / t)):
            raise RootSearchError(f"lambda={lam}, j={j}: ground state beyond float range")
        residual = _normalized_residual(kernel, t, kernel(t))
        roots.append(SecularRoot(t=t, kappa=q / t, residual=residual))
        brackets = [(end(n - 1, True), end(n, False)) for n in range(2, count + 1)]
    for (lo, f_lo), (hi, f_hi) in brackets:
        t, value = _bracketed_root(kernel, lo, hi, f_lo, f_hi)
        roots.append(SecularRoot(t=t, kappa=q / t, residual=_normalized_residual(kernel, t, value)))
    return roots
