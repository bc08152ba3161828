"""Radial solution assembly, small-r expansion, boundary values, and
profile normalization / node counting.

The solution at fixed kappa is

    F(x) = a_m x^{|j|} e^{-x/2} 1F1(a, b, x) + b_m x^{-|j|} e^{-x/2} 1F1(a', b', x)

with x = 2 kappa r.  For x beyond the series window the two pieces are
recombined analytically: their e^x parts share one asymptotic series, so
the growing contribution carries the single coefficient
a_m Gamma(b)/Gamma(a) + b_m Gamma(b')/Gamma(a') and cancellation between
huge pieces never happens at sample points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PhysicalParams, SectorError
from .secular import ExtensionParam, KummerParams, SolutionCoefficients, _as_extension
from .specfun import (
    X_SWITCH,
    _DEFAULT_ACCURACY,
    _asymptotic_alg_sum,
    _asymptotic_exp_sum,
    SeriesError,
    gamma,
    kummer_1f1,
    reciprocal_gamma,
)

__all__ = [
    "ResolutionError",
    "RadialProfile",
    "BoundaryValues",
    "radial_solution",
    "small_r_expansion",
    "boundary_values",
    "boundary_closure_residual",
    "build_profile",
    "normalize_and_count_nodes",
]

SMALL_R_X_MAX = 0.1


class ResolutionError(ValueError):
    """Profile sampling too coarse to resolve a sign change."""


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Sampled radial solution on a strictly increasing grid."""

    r: np.ndarray
    values: np.ndarray
    kappa: float
    coeffs: SolutionCoefficients
    j: float

    def __post_init__(self) -> None:
        if self.r.ndim != 1 or self.r.shape != self.values.shape:
            raise ValueError("r and values must be matching 1-d arrays")
        if not np.all(np.diff(self.r) > 0.0):
            raise ValueError("sample radii must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("profile contains non-finite values")

    @property
    def samples(self) -> list[tuple[float, float]]:
        return list(zip(self.r.tolist(), self.values.tolist()))


@dataclass(frozen=True)
class BoundaryValues:
    """f0 multiplies the r^{-|j|} origin behavior, f1 the r^{|j|} one."""

    f0: float
    f1: float


def _check_x_consistency(r: float, kp: KummerParams) -> float:
    x = 2.0 * kp.kappa * r
    if kp.x != 0.0 and abs(kp.x - x) > 1e-9 * max(1.0, abs(x)):
        raise ValueError(f"KummerParams.x = {kp.x} inconsistent with 2*kappa*r = {x}")
    return x


def _growth_reciprocal_gamma(z: float) -> float:
    # A hypergeometric index within rounding distance of a gamma pole is a
    # terminating (bound-state) piece whose kappa carries float error; the
    # residue would otherwise re-inject e^x growth far down the tail.
    nearest = round(z)
    if nearest <= 0.0 and abs(z - nearest) < 1e-8:
        return 0.0
    return reciprocal_gamma(z)


def _radial_large_x(x: float, coeffs: SolutionCoefficients, kp: KummerParams) -> float:
    # Both pieces share the same growing and decaying asymptotic series:
    # {b-a, 1-a} = {b'-a', 1-a'} and {a, a-b+1} = {a', a'-b'+1} as sets,
    # so only the cancellation-prone coefficients need combining.
    t = kp.l_plus - kp.abs_j
    growth_a = coeffs.a_m * gamma(kp.b) * _growth_reciprocal_gamma(kp.a)
    growth_b = coeffs.b_m * gamma(kp.b_prime) * _growth_reciprocal_gamma(kp.a_prime)
    growth_coeff = growth_a + growth_b
    # A growth coefficient at rounding level relative to its parts is
    # root-refinement residue on a normalizable state, not physics; keep
    # it only when the cancellation is genuine.
    if abs(growth_coeff) <= 1e-8 * (abs(growth_a) + abs(growth_b)):
        growth_coeff = 0.0
    decay_coeff = coeffs.a_m * gamma(kp.b) * reciprocal_gamma(kp.b - kp.a) * math.cos(
        math.pi * kp.a
    ) + coeffs.b_m * gamma(kp.b_prime) * reciprocal_gamma(
        kp.b_prime - kp.a_prime
    ) * math.cos(math.pi * kp.a_prime)
    value = 0.0
    if growth_coeff != 0.0:
        s1, _ = _asymptotic_exp_sum(kp.a, kp.b, x, _DEFAULT_ACCURACY)
        value += growth_coeff * math.exp(0.5 * x) * x ** (-0.5 - t) * s1
    if decay_coeff != 0.0:
        s2, _ = _asymptotic_alg_sum(kp.a, kp.b, x, _DEFAULT_ACCURACY)
        value += decay_coeff * math.exp(-0.5 * x) * x ** (t - 0.5) * s2
    return value


def radial_solution(r: float, coeffs: SolutionCoefficients, kp: KummerParams) -> float:
    """Evaluate the radial solution at radius r > 0.

    ``kp.x == 0`` means the parametrization is not pinned to a radius;
    otherwise it must agree with 2*kappa*r.
    """
    if not (r > 0.0):
        raise ValueError(f"radius must be positive, got {r}")
    x = _check_x_consistency(r, kp)
    aj = kp.abs_j
    if x > X_SWITCH:
        return _radial_large_x(x, coeffs, kp)
    value = 0.0
    if coeffs.a_m != 0.0:
        value += coeffs.a_m * x**aj * math.exp(-0.5 * x) * kummer_1f1(kp.a, kp.b, x)
    if coeffs.b_m != 0.0:
        value += (
            coeffs.b_m
            * x ** (-aj)
            * math.exp(-0.5 * x)
            * kummer_1f1(kp.a_prime, kp.b_prime, x)
        )
    return value


def small_r_expansion(r: float, coeffs: SolutionCoefficients, kp: KummerParams) -> float:
    """Quadratic-order product expansion of the radial solution near the
    origin; valid for x = 2 kappa r <= 0.1."""
    x = _check_x_consistency(r, kp)
    if x > SMALL_R_X_MAX:
        raise ValueError(f"small-r expansion requires x <= {SMALL_R_X_MAX}, got x = {x}")
    aj = kp.abs_j
    shared = x * x - 4.0 * x + 8.0
    value = 0.0
    if coeffs.a_m != 0.0:
        a, b = kp.a, kp.b
        quad = (a * a + a) * x * x + 2.0 * (a * x + b) * (b + 1.0)
        value += coeffs.a_m * shared * x**aj * quad / (16.0 * b * (b + 1.0))
    if coeffs.b_m != 0.0:
        if aj >= 0.5:
            raise SectorError(f"irregular piece requires |j| < 1/2, got |j| = {aj}")
        ap, bp = kp.a_prime, kp.b_prime
        quad = (ap * ap + ap) * x * x + 2.0 * (ap * x + bp) * (bp + 1.0)
        value += coeffs.b_m * shared * x ** (-aj) * quad / (16.0 * bp * (bp + 1.0))
    return value


def boundary_values(coeffs: SolutionCoefficients, kp: KummerParams) -> BoundaryValues:
    """Origin boundary coefficients of the solution:

        f0 = b_m (2 kappa)^{-|j|}   (irregular, r^{-|j|} part)
        f1 = a_m (2 kappa)^{+|j|}   (regular, r^{+|j|} part)

    The subleading terms of the small-r expansion carry positive powers
    of r and drop out of the limits for |j| < 1/2.
    """
    aj = kp.abs_j
    if aj >= 0.5:
        raise SectorError(f"boundary values require |j| < 1/2, got |j| = {aj}")
    two_kappa = 2.0 * kp.kappa
    return BoundaryValues(
        f0=coeffs.b_m * two_kappa ** (-aj),
        f1=coeffs.a_m * two_kappa**aj,
    )


def boundary_closure_residual(
    coeffs: SolutionCoefficients, kp: KummerParams, lam: ExtensionParam | float
) -> float:
    """Relative residual of the origin boundary condition f0 = lambda * f1
    linking the irregular and regular coefficients.  Zero (to root-finding
    accuracy) exactly when kappa is a bound state of the extension."""
    lam = _as_extension(lam)
    if lam.is_infinite:
        raise ValueError("closure residual is defined for finite lambda")
    bv = boundary_values(coeffs, kp)
    lhs = bv.f0
    rhs = lam.value * bv.f1
    scale = max(abs(lhs), abs(rhs))
    if scale == 0.0:
        return 0.0
    return abs(lhs - rhs) / scale


def _series_1f1_array(a: float, b: float, x: np.ndarray, max_terms: int = 400) -> np.ndarray:
    # Vectorized 1F1 power series; terminates exactly for nonpositive
    # integer a, otherwise runs until every element has converged.
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(max_terms):
        term = term * (a + k) * x / ((b + k) * (k + 1.0))
        if not np.any(term):
            return total
        total += term
        if np.all(np.abs(term) <= 1e-15 * np.abs(total)):
            return total
    raise SeriesError(f"vectorized 1F1 did not converge at (a={a}, b={b})")


def _radial_values_array(
    x: np.ndarray, coeffs: SolutionCoefficients, kp: KummerParams
) -> np.ndarray:
    values = np.zeros_like(x)
    small = x <= X_SWITCH
    if np.any(small):
        xs = x[small]
        acc = np.zeros_like(xs)
        damp = np.exp(-0.5 * xs)
        aj = kp.abs_j
        if coeffs.a_m != 0.0:
            acc += coeffs.a_m * xs**aj * damp * _series_1f1_array(kp.a, kp.b, xs)
        if coeffs.b_m != 0.0:
            acc += (
                coeffs.b_m
                * xs ** (-aj)
                * damp
                * _series_1f1_array(kp.a_prime, kp.b_prime, xs)
            )
        values[small] = acc
    for i in np.nonzero(~small)[0]:
        values[i] = _radial_large_x(float(x[i]), coeffs, kp)
    return values


def _origin_node(coeffs: SolutionCoefficients, kp: KummerParams) -> float:
    """Zero of the origin behavior f1 r^{|j|} + f0 r^{-|j|}, or inf."""
    # On a ladder (a or a' on a gamma pole) one coefficient is rounding
    # residue whose sign is noise, so ladder states get no origin node.
    on_ladder = 0.0 in (_growth_reciprocal_gamma(kp.a), _growth_reciprocal_gamma(kp.a_prime))
    if on_ladder or kp.abs_j == 0.0 or coeffs.a_m == 0.0:
        return math.inf
    f0_over_f1 = coeffs.b_m / coeffs.a_m * (2.0 * kp.kappa) ** (-2.0 * kp.abs_j)
    if f0_over_f1 >= 0.0:
        return math.inf
    return math.exp(math.log(-f0_over_f1) / (2.0 * kp.abs_j))


def build_profile(
    coeffs: SolutionCoefficients,
    kappa: float,
    j: float,
    params: PhysicalParams,
    r_min: float | None = None,
    r_max: float | None = None,
    points: int = 4000,
) -> RadialProfile:
    """Sample the radial solution on a geometric mesh.

    The geometric grading resolves the r^{-|j|} origin behavior and the
    defaults cover (1e-4/kappa, 35/kappa), enough for normalization and
    node counting; for lambda < 0 it starts at or below r0/100, where r0 =
    (-f0/f1)^{1/(2|j|)} is the node of the origin behavior.
    """
    if points < 16:
        raise ValueError(f"points must be >= 16, got {points}")
    kp = KummerParams.for_state(kappa, j, params)
    r_lo = min(1e-4 / kappa, 0.01 * _origin_node(coeffs, kp)) if r_min is None else r_min
    r_hi = 35.0 / kappa if r_max is None else r_max
    if not (0.0 < r_lo < r_hi):
        raise ValueError(f"need 0 < r_min < r_max, got ({r_lo}, {r_hi})")
    r = np.geomspace(r_lo, r_hi, points)
    values = _radial_values_array(2.0 * kappa * r, coeffs, kp)
    return RadialProfile(r=r, values=values, kappa=kappa, coeffs=coeffs, j=j)


def _count_nodes(profile: RadialProfile) -> int:
    values = profile.values
    noise_floor = 1e-13 * float(np.max(np.abs(values)))
    # Tangential touches dip to the noise floor without flipping sign, so
    # only samples above the floor participate in the sign sequence.
    significant = [i for i, v in enumerate(values) if abs(v) > noise_floor]
    nodes = 0
    n = len(values)
    for prev, cur in zip(significant[:-1], significant[1:]):
        if values[prev] * values[cur] >= 0.0:
            continue
        window = values[max(0, prev - 25) : min(n, cur + 26)]
        local_scale = float(np.max(np.abs(window)))
        if abs(values[cur] - values[prev]) > 0.10 * local_scale:
            raise ResolutionError(
                f"sign change near r = {profile.r[prev]} jumps by more than "
                f"10% of the local amplitude; refine the mesh"
            )
        nodes += 1
    return nodes


def normalize_and_count_nodes(profile: RadialProfile) -> tuple[float, int]:
    """L2 norm sqrt(integral |F|^2 r dr) over the sampled range, by
    trapezoidal quadrature on the graded mesh, plus the count of strict
    sign changes.

    The profile must reach down to 1e-4/kappa and out to 30/kappa so the
    integrable r^{1-2|j|} origin behavior and the exponential tail are
    both captured.
    """
    kappa = profile.kappa
    if profile.r[0] > 1e-4 / kappa * (1.0 + 1e-9):
        raise ValueError(f"profile must start at or below 1e-4/kappa = {1e-4 / kappa}")
    if profile.r[-1] < 30.0 / kappa * (1.0 - 1e-9):
        raise ValueError(f"profile must extend to at least 30/kappa = {30.0 / kappa}")
    integrand = profile.values * profile.values * profile.r
    norm_sq = float(np.trapezoid(integrand, profile.r))
    return math.sqrt(norm_sq), _count_nodes(profile)
