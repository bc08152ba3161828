"""Bound states of a general self-adjoint extension.

For a finite extension parameter ``lambda`` the boundary condition fixes
the irregular/regular coefficient ratio b_m/a_m = lambda*(2 kappa)**(2|j|),
and normalizability kills the growing part of the large-x asymptotics.
Combining the two gives the pole-safe secular function

    F(kappa) = Gamma(b)/Gamma(a) + lambda*(2 kappa)**(2|j|) * Gamma(b')/Gamma(a')

whose zeros are the bound states; ``lambda = inf`` dispatches to
G(kappa) = Gamma(b')/Gamma(a') alone.  The gamma reciprocals are entire,
so F is smooth.  Roots are searched in t = m_e*eta'/kappa, where the
lambda = 0 and lambda = inf limits sit at the closed-form ladders
t = n - 1/2 +- |j|.  The roots of every finite lambda interlace with those
ladders, so each is bisected on its own known interval, directly in t with
Gamma(b) and Gamma(b') computed once per solve.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .model import PhysicalParams, SectorError, is_singular_sector
from .specfun import _snap_to_pole, gamma, reciprocal_gamma

__all__ = [
    "ExtensionParam",
    "INFINITE_EXTENSION",
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


@dataclass(frozen=True)
class ExtensionParam:
    """Self-adjoint extension parameter in (-inf, +inf], with +inf the
    distinguished 'irregular only' sentinel."""

    value: float

    def __post_init__(self) -> None:
        if math.isnan(self.value):
            raise ValueError("extension parameter cannot be NaN")
        if self.value == -math.inf:
            raise ValueError("extension parameter lies in (-inf, +inf]")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)


INFINITE_EXTENSION = ExtensionParam(math.inf)


def _as_extension(lam: ExtensionParam | float) -> ExtensionParam:
    return lam if isinstance(lam, ExtensionParam) else ExtensionParam(float(lam))


def _require_extension_sector(lam: ExtensionParam, j: float) -> None:
    """Every lambda needs |j| < 1/2, where both origin behaviors are square
    integrable; a finite nonzero one also needs b' != b in floats, i.e.
    j != 0, where the irregular solution is log r."""
    if not is_singular_sector(j):
        raise SectorError(f"lambda = {lam.value} requires |j| < 1/2, got |j| = {abs(j)}")
    if not lam.is_infinite and lam.value != 0.0 and 1.0 - 2.0 * abs(j) == 1.0 + 2.0 * abs(j):
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


def _secular_terms(lam: ExtensionParam, aj: float):
    """F of one (lambda, |j|) as a function of a = 1/2 + |j| - t,
    a' = 1/2 - |j| - t and 2 kappa, with its constant gammas computed once.
    An a or a' passed as an exact nonpositive integer makes its term 0;
    lambda = 0 and lambda = inf keep only their one term."""
    if lam.is_infinite:
        g_irregular = gamma(1.0 - 2.0 * aj)
        return lambda a, a_prime, two_kappa: g_irregular * reciprocal_gamma(a_prime)
    g_regular = gamma(1.0 + 2.0 * aj)
    if lam.value == 0.0:
        return lambda a, a_prime, two_kappa: g_regular * reciprocal_gamma(a)
    weight, power = lam.value * gamma(1.0 - 2.0 * aj), 2.0 * aj

    def terms(a: float, a_prime: float, two_kappa: float) -> float:
        irregular = weight * two_kappa**power * reciprocal_gamma(a_prime)
        return g_regular * reciprocal_gamma(a) + irregular

    return terms


def secular_function(
    kappa: float, lam: ExtensionParam | float, j: float, params: PhysicalParams
) -> float:
    """Pole-safe secular function whose zeros in kappa are bound states.

    Finite lambda:  Gamma(b)/Gamma(a) + lambda*(2k)**(2|j|)*Gamma(b')/Gamma(a')
    lambda = inf:   Gamma(b')/Gamma(a')
    written with reciprocal gammas so both terms stay finite everywhere.
    """
    lam = _as_extension(lam)
    if not (kappa > 0.0):
        raise ValueError(f"kappa must be positive, got {kappa}")
    _require_extension_sector(lam, j)
    aj = abs(j)
    t = params.m_e * params.eta_prime / kappa
    return _secular_terms(lam, aj)(0.5 + aj - t, 0.5 - aj - t, 2.0 * kappa)


def normalizable_coefficients(kp: KummerParams) -> SolutionCoefficients:
    """Coefficients that cancel the growing large-x part by construction:
    a_m = Gamma(b')/Gamma(a'), b_m = -Gamma(b)/Gamma(a); on the parameters of
    ``KummerParams.for_state`` a ladder state has an exactly zero coefficient."""
    return SolutionCoefficients(
        a_m=gamma(kp.b_prime) * reciprocal_gamma(kp.a_prime),
        b_m=-gamma(kp.b) * reciprocal_gamma(kp.a),
    )


def energy_from_kappa(
    kappa: float, j: float, s: int, params: PhysicalParams
) -> float:
    """Energy of a bound state with inverse decay length kappa:

        E = -hbar^2 kappa^2 / (2 m_e) - hbar*Omega*(j + s/2)
    """
    coulomb = -(params.hbar**2) * kappa * kappa / (2.0 * params.m_e)
    return coulomb - params.hbar * params.omega * (j + s / 2.0)


def _bisect_root(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Bisection to floating-point resolution; endpoints must straddle zero.
    Signs are compared, not products, which underflow at tiny lambda."""
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    lo_negative = f_lo < 0.0
    if lo_negative == (f_hi < 0.0):
        raise RootSearchError(f"root not bracketed on [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == lo_negative:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _normalized_residual(f, t_root: float, value: float) -> float:
    """|f(t)| scaled by the local derivative and the size of t, i.e. the
    Newton-step length relative to t; this is meaningful for every lambda,
    including the single-term lambda = 0 and lambda = inf functions.
    ``value`` is f at the root, exactly 0 on a ladder, whose neighbours
    past root 171 need 1/Gamma beyond the float range."""
    if value == 0.0:
        return 0.0
    h = min(1e-6 * max(1.0, abs(t_root)), 0.5 * abs(t_root))
    slope = (f(t_root + h) - f(t_root - h)) / (2.0 * h)
    scale = abs(slope) * max(1.0, abs(t_root))
    if scale == 0.0:
        return abs(value)
    return abs(value) / scale


def _solve_zero_coupling(lam: ExtensionParam, j: float, terms) -> list[SecularRoot]:
    # eta' = 0: t = m_e*eta'/kappa degenerates to 0.  The secular function
    # becomes c1 + lambda*(2 kappa)**(2|j|)*c2 with constants c1, c2 > 0:
    # no roots unless lambda < 0, where exactly one survives in closed form.
    aj = abs(j)
    if lam.is_infinite or lam.value >= 0.0:
        return []
    c1 = gamma(1.0 + 2.0 * aj) * reciprocal_gamma(0.5 + aj)
    c2 = gamma(1.0 - 2.0 * aj) * reciprocal_gamma(0.5 - aj)
    log_two_kappa = math.log(-c1 / (lam.value * c2)) / (2.0 * aj)
    if log_two_kappa > math.log(0.5 * sys.float_info.max):
        raise RootSearchError(f"lambda={lam.value}, j={j}: root beyond float range")
    kappa = 0.5 * math.exp(log_two_kappa)

    def f(k: float) -> float:
        return terms(0.5 + aj, 0.5 - aj, 2.0 * k)

    return [SecularRoot(kappa=kappa, residual=_normalized_residual(f, kappa, f(kappa)))]


def solve_secular(
    lam: ExtensionParam | float,
    j: float,
    params: PhysicalParams,
    count: int,
) -> list[SecularRoot]:
    """The first ``count`` secular roots, ordered from the ground state
    (largest kappa / smallest t) upward.

    lambda = 0 and lambda = inf return the ladders t = n - 1/2 +- |j|,
    all positive in |j| < 1/2.  Otherwise root n is bisected to float resolution
    on its interlacing interval in t = m_e*eta'/kappa: for lambda > 0
    [n - 1/2 - |j|, n - 1/2 + |j|]; for lambda < 0 [n - 3/2 + |j|,
    n - 1/2 - |j|], and (0, 1/2 - |j|) in log t for n = 1, whose kappa
    beyond the float range raises RootSearchError.  Each interval ends on
    the ladders, where one term of F vanishes: it is evaluated there as
    exactly 0.  With no Coulomb attraction fewer roots (possibly none) are
    returned.
    """
    lam = _as_extension(lam)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    _require_extension_sector(lam, j)
    aj = abs(j)
    terms = _secular_terms(lam, aj)
    q = params.m_e * params.eta_prime
    if q == 0.0:
        return _solve_zero_coupling(lam, j, terms)
    half_plus, half_minus, two_q = 0.5 + aj, 0.5 - aj, 2.0 * q

    def f(t: float) -> float:
        return terms(half_plus - t, half_minus - t, two_q / t)

    def root_at(t: float, value: float | None = None) -> SecularRoot:
        value = f(t) if value is None else value
        return SecularRoot(kappa=q / t, residual=_normalized_residual(f, t, value))

    def regular_ladder(n: int) -> tuple[float, float]:
        # t = n - 1/2 + |j|, where a = 1 - n
        t = n - 0.5 + aj
        return t, terms(1.0 - n, half_minus - t, two_q / t)

    def irregular_ladder(n: int) -> tuple[float, float]:
        # t = n - 1/2 - |j|, where a' = 1 - n
        t = n - 0.5 - aj
        return t, terms(half_plus - t, 1.0 - n, two_q / t)

    if lam.is_infinite or lam.value == 0.0:
        # each root's one term is evaluated at its exact a or a' = 1 - n
        ladder = irregular_ladder if lam.is_infinite else regular_ladder
        return [root_at(*ladder(n)) for n in range(1, count + 1)]

    roots = []
    if lam.value > 0.0:
        brackets = [(irregular_ladder(n), regular_ladder(n)) for n in range(1, count + 1)]
    else:
        # Root 1 can sit at kappa ~ 1e50 and beyond, so it is bisected in
        # log t; kappa <= float max / 4 keeps 2 kappa finite.
        t_floor = max(sys.float_info.min, 4.0 * q / sys.float_info.max)

        def g(s: float) -> float:
            return f(math.exp(s))

        t_hi, f_hi = irregular_ladder(1)
        try:
            s = _bisect_root(g, math.log(t_floor), math.log(t_hi), f(t_floor), f_hi)
        except RootSearchError:
            raise RootSearchError(
                f"lambda={lam.value}, j={j}: ground state beyond float range"
            ) from None
        roots.append(root_at(math.exp(s)))
        brackets = [(regular_ladder(n - 1), irregular_ladder(n)) for n in range(2, count + 1)]
    for (lo, f_lo), (hi, f_hi) in brackets:
        roots.append(root_at(_bisect_root(f, lo, hi, f_lo, f_hi)))
    return roots
