"""Bound states of a general self-adjoint extension.

For a finite extension parameter ``lambda`` the boundary condition fixes
the irregular/regular coefficient ratio b_m/a_m = lambda*(2 kappa)**(2|j|),
and normalizability kills the growing part of the large-x asymptotics.
Combining the two gives the pole-safe secular function

    F(kappa) = Gamma(b)/Gamma(a) + lambda*(2 kappa)**(2|j|) * Gamma(b')/Gamma(a')

whose zeros are the bound states.  lambda is a plain float in
(-inf, +inf]: ``math.inf`` is the purely irregular extension, with
G(kappa) = Gamma(b')/Gamma(a') alone, and NaN and -inf raise ValueError.
The gamma reciprocals are entire, so F is smooth.  Roots are searched in t = m_e*eta'/kappa, where the
lambda = 0 and lambda = inf limits sit at the closed-form ladders
t = n - 1/2 +- |j|.  The roots of every finite lambda interlace with those
ladders, so each is solved to adjacent floats on its own known interval,
directly in t with Gamma(b) and Gamma(b') computed once per solve, by
inverse quadratic interpolation safeguarded by bisection.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .model import PhysicalParams, SectorError, is_singular_sector
from .specfun import _snap_to_pole, gamma, reciprocal_gamma

__all__ = [
    "KummerParams",
    "SolutionCoefficients",
    "SecularRoot",
    "RootSearchError",
    "secular_function",
    "solve_secular",
    "normalizable_coefficients",
    "energy_from_kappa",
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


@dataclass(frozen=True)
class KummerParams:
    """Hypergeometric parametrization of the radial solution at fixed kappa:

        a  = 1/2 + |j| - m_e eta'/kappa      b  = 1 + 2|j|
        a' = 1/2 - |j| - m_e eta'/kappa      b' = 1 - 2|j|
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
        # a - b + |j| == a' - b' - |j| up to rounding
        if abs(shared + (self.b - self.b_prime) / 2.0) > 1e-9:
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
        state carries no residue of the growing solution.
        """
        if not (kappa > 0.0):
            raise ValueError(f"kappa must be positive, got {kappa}")
        aj = abs(j)
        t = params.m_e * params.eta_prime / kappa
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
    kappa: float
    residual: float


def _secular_terms(lam: float, aj: float):
    """The terms c_reg/Gamma(a) and c_irr (2 kappa)^p/Gamma(a') of F for one
    (lambda, |j|): c_reg = Gamma(1 + 2|j|), c_irr = lambda Gamma(1 - 2|j|)
    and p = 2|j|, but c_irr = 0 at lambda = 0, and c_reg = 0, c_irr =
    Gamma(1 - 2|j|), p = 0 at lambda = inf.  A term with a zero constant is
    0.0 without a gamma call; on a ladder the other term alone is F."""
    infinite = math.isinf(lam)
    c_reg = 0.0 if infinite else gamma(1.0 + 2.0 * aj)
    c_irr = 0.0 if lam == 0.0 else (1.0 if infinite else lam) * gamma(1.0 - 2.0 * aj)
    power = 0.0 if infinite else 2.0 * aj

    def regular(a: float) -> float:
        return c_reg * reciprocal_gamma(a) if c_reg else 0.0

    def irregular(a_prime: float, two_kappa: float) -> float:
        return c_irr * two_kappa**power * reciprocal_gamma(a_prime) if c_irr else 0.0

    return regular, irregular


def secular_function(kappa: float, lam: float, j: float, params: PhysicalParams) -> float:
    """Pole-safe secular function whose zeros in kappa are bound states.

    Finite lambda:  Gamma(b)/Gamma(a) + lambda*(2k)**(2|j|)*Gamma(b')/Gamma(a')
    lambda = inf:   Gamma(b')/Gamma(a')
    written with reciprocal gammas so both terms stay finite everywhere.
    """
    if not (kappa > 0.0):
        raise ValueError(f"kappa must be positive, got {kappa}")
    _require_extension_sector(lam, j)
    aj = abs(j)
    t = params.m_e * params.eta_prime / kappa
    regular, irregular = _secular_terms(lam, aj)
    return regular(0.5 + aj - t) + irregular(0.5 - aj - t, 2.0 * kappa)


def normalizable_coefficients(kp: KummerParams) -> SolutionCoefficients:
    """Coefficients that cancel the growing large-x part by construction:
    a_m = Gamma(b')/Gamma(a'), b_m = -Gamma(b)/Gamma(a); on the parameters of
    ``KummerParams.for_state`` a ladder state has an exactly zero coefficient,
    and a state whose 2|j| is below the rounding of a and a' has two: it is
    the j = 0 limit, refused with SectorError."""
    a_m = gamma(kp.b_prime) * reciprocal_gamma(kp.a_prime)
    b_m = -gamma(kp.b) * reciprocal_gamma(kp.a)
    if a_m == b_m == 0.0:
        raise SectorError(f"a and a' round to the same integer {kp.a!r}: the state is the "
                          "j = 0 limit, where the irregular solution is log r")
    return SolutionCoefficients(a_m=a_m, b_m=b_m)


def energy_from_kappa(
    kappa: float, j: float, s: int, params: PhysicalParams
) -> float:
    """Energy of a bound state with inverse decay length kappa:

        E = -hbar^2 kappa^2 / (2 m_e) - hbar*Omega*(j + s/2)
    """
    coulomb = -(params.hbar**2) * kappa * kappa / (2.0 * params.m_e)
    return coulomb - params.hbar * params.omega * (j + s / 2.0)


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
    Newton-step length relative to t; this is meaningful for every lambda,
    including the single-term lambda = 0 and lambda = inf functions.
    ``value`` is f at the root, exactly 0 on a ladder, whose neighbours
    past root 171 need 1/Gamma beyond the float range; the slope is a
    forward difference from it."""
    if value == 0.0:
        return 0.0
    h = min(1e-6 * max(1.0, abs(t_root)), 0.5 * abs(t_root))
    slope = (f(t_root + h) - value) / h
    scale = abs(slope) * max(1.0, abs(t_root))
    if scale == 0.0:
        return abs(value)
    return abs(value) / scale


def _solve_zero_coupling(lam: float, j: float, regular, irregular) -> list[SecularRoot]:
    # eta' = 0: t = m_e*eta'/kappa degenerates to 0.  The secular function
    # becomes c1 + lambda*(2 kappa)**(2|j|)*c2 with constants c1, c2 > 0:
    # no roots unless lambda < 0, where exactly one survives in closed form.
    aj = abs(j)
    if lam >= 0.0:
        return []
    c1 = gamma(1.0 + 2.0 * aj) * reciprocal_gamma(0.5 + aj)
    c2 = gamma(1.0 - 2.0 * aj) * reciprocal_gamma(0.5 - aj)
    log_two_kappa = math.log(-c1 / (lam * c2)) / (2.0 * aj)
    if log_two_kappa > math.log(0.5 * sys.float_info.max):
        raise RootSearchError(f"lambda={lam}, j={j}: root beyond float range")
    kappa = 0.5 * math.exp(log_two_kappa)
    f_regular = regular(0.5 + aj)

    def f(k: float) -> float:
        return f_regular + irregular(0.5 - aj, 2.0 * k)

    return [SecularRoot(kappa=kappa, residual=_normalized_residual(f, kappa, f(kappa)))]


def solve_secular(lam: float, j: float, params: PhysicalParams, count: int) -> list[SecularRoot]:
    """The first ``count`` secular roots, ordered from the ground state
    (largest kappa / smallest t) upward.

    lambda = 0 and lambda = inf return the ladders t = n - 1/2 +- |j|,
    all positive in |j| < 1/2.  Otherwise root n is solved to adjacent
    floats by ``_bracketed_root`` on its interlacing interval in
    t = m_e*eta'/kappa: for lambda > 0 [n - 1/2 - |j|, n - 1/2 + |j|]; for
    lambda < 0 [n - 3/2 + |j|, n - 1/2 - |j|], and (0, 1/2 - |j|) in log t
    for n = 1, whose kappa beyond the float range raises RootSearchError.
    Each interval ends on the ladders, where one term of F vanishes: F is
    the other term there.  With no Coulomb attraction fewer roots
    (possibly none) are returned.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    _require_extension_sector(lam, j)
    aj = abs(j)
    regular, irregular = _secular_terms(lam, aj)
    q = params.m_e * params.eta_prime
    if q == 0.0:
        return _solve_zero_coupling(lam, j, regular, irregular)
    half_plus, half_minus, two_q = 0.5 + aj, 0.5 - aj, 2.0 * q

    def f(t: float) -> float:
        return regular(half_plus - t) + irregular(half_minus - t, two_q / t)

    def root_at(t: float, value: float) -> SecularRoot:
        return SecularRoot(kappa=q / t, residual=_normalized_residual(f, t, value))

    def regular_ladder(n: int) -> tuple[float, float]:
        # t = n - 1/2 + |j|, where a = 1 - n
        t = n - 0.5 + aj
        return t, irregular(half_minus - t, two_q / t)

    def irregular_ladder(n: int) -> tuple[float, float]:
        # t = n - 1/2 - |j|, where a' = 1 - n
        t = n - 0.5 - aj
        return t, regular(half_plus - t)

    if lam in (0.0, math.inf):
        # each root's one term vanishes there
        ladder = irregular_ladder if math.isinf(lam) else regular_ladder
        return [root_at(*ladder(n)) for n in range(1, count + 1)]

    roots = []
    if lam > 0.0:
        brackets = [(irregular_ladder(n), regular_ladder(n)) for n in range(1, count + 1)]
    else:
        # Root 1 can sit at kappa ~ 1e50 and beyond, so it is solved in
        # log t; kappa <= float max / 4 keeps 2 kappa finite.
        t_floor = max(sys.float_info.min, 4.0 * q / sys.float_info.max)

        def weighted(t: float, value: float) -> float:
            # (2 kappa)^(-2|j|) F has the sign of F and stays bounded as
            # t -> 0, where F grows like t^(-2|j|) over hundreds of decades
            return value * (t / two_q) ** (2.0 * aj)

        def g(s: float) -> float:
            t = math.exp(s)
            return weighted(t, f(t))

        t_hi, f_hi = irregular_ladder(1)
        try:
            s, _ = _bracketed_root(
                g, math.log(t_floor), math.log(t_hi),
                weighted(t_floor, f(t_floor)), weighted(t_hi, f_hi),
            )
        except RootSearchError:
            raise RootSearchError(
                f"lambda={lam}, j={j}: ground state beyond float range"
            ) from None
        t = math.exp(s)
        roots.append(root_at(t, f(t)))
        brackets = [(regular_ladder(n - 1), irregular_ladder(n)) for n in range(2, count + 1)]
    for (lo, f_lo), (hi, f_hi) in brackets:
        roots.append(root_at(*_bracketed_root(f, lo, hi, f_lo, f_hi)))
    return roots
