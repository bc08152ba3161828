"""Radial solution assembly, small-r expansion, boundary values, and
profile normalization / node counting.

The solution at fixed kappa is F = a_m R + b_m I with

    R = x^{|j|} e^{-x/2} 1F1(a, b, x),   I = x^{-|j|} e^{-x/2} 1F1(a', b', x)

and x = 2 kappa r.  Both pieces grow like e^{x/2}.  The combination
(a_m^N, b_m^N) of ``normalizable_coefficients`` is exactly -2|j| N with
N = x^{|j|} e^{-x/2} U(a, b, x) (DLMF 13.2.42), so F is sampled as

    F = beta R - 2|j| alpha N,   alpha = b_m / b_m^N,   beta = a_m - alpha a_m^N

and beta is exactly 0 for a bound state: no growing piece is cancelled
numerically.  On the regular ladder b_m^N is exactly 0 (see
``KummerParams.for_state``), R terminates, and F is sampled as
a_m R + b_m I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PhysicalParams, SectorError
from .secular import (
    ExtensionParam,
    KummerParams,
    SolutionCoefficients,
    _as_extension,
    normalizable_coefficients,
)
from .specfun import gamma, kummer_1f1, reciprocal_gamma, tricomi_u

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

    def __post_init__(self) -> None:
        if self.r.ndim != 1 or self.r.shape != self.values.shape:
            raise ValueError("r and values must be matching 1-d arrays")
        if not np.all(np.diff(self.r) > 0.0):
            raise ValueError("sample radii must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("profile contains non-finite values")


@dataclass(frozen=True)
class BoundaryValues:
    """f0 multiplies the r^{-|j|} origin behavior, f1 the r^{|j|} one."""

    f0: float
    f1: float


def _radial_values(x: np.ndarray, coeffs: SolutionCoefficients, kp: KummerParams) -> np.ndarray:
    """a_m R + b_m I at every x, sampled as beta R - 2|j| alpha N."""
    aj = kp.abs_j
    # b_m^N on its own: a_m^N needs Gamma(b'), which has poles at integer
    # 2|j|, and is only read when alpha != 0; Gamma(b) overflows for
    # |j| > 85, so it is formed only off the regular ladder
    rg_a = reciprocal_gamma(kp.a)
    b_norm = -gamma(kp.b) * rg_a if rg_a else 0.0
    alpha = coeffs.b_m / b_norm if b_norm else 0.0
    beta = coeffs.a_m - alpha * normalizable_coefficients(kp).a_m if alpha else coeffs.a_m
    regular = np.zeros_like(x)
    if beta:
        regular += beta * kummer_1f1(kp.a, kp.b, x)
    if alpha and aj:
        regular -= 2.0 * aj * alpha * tricomi_u(kp.a, kp.b, x)
    values = regular * x**aj
    if coeffs.b_m and not b_norm:
        # on the regular ladder I has no N to be folded into
        values += coeffs.b_m * x ** (-aj) * kummer_1f1(kp.a_prime, kp.b_prime, x)
    return values * np.exp(-0.5 * x)


def radial_solution(r: float, coeffs: SolutionCoefficients, kp: KummerParams) -> float:
    """Evaluate the radial solution at radius r > 0."""
    if not (r > 0.0):
        raise ValueError(f"radius must be positive, got {r}")
    x = 2.0 * kp.kappa * r
    return float(_radial_values(np.array([x]), coeffs, kp)[0])


def small_r_expansion(r: float, coeffs: SolutionCoefficients, kp: KummerParams) -> float:
    """Quadratic-order product expansion of the radial solution near the
    origin; valid for x = 2 kappa r <= 0.1."""
    x = 2.0 * kp.kappa * r
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


def _origin_node(coeffs: SolutionCoefficients, kp: KummerParams) -> float:
    """Zero of the origin behavior f1 r^{|j|} + f0 r^{-|j|}, or inf."""
    if kp.abs_j == 0.0 or coeffs.a_m == 0.0 or coeffs.b_m == 0.0:
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
    with np.errstate(over="ignore", invalid="ignore"):  # x^{|j|} at huge |j|, refused below
        values = _radial_values(2.0 * kappa * r, coeffs, kp)
    if not np.all(np.isfinite(values)):
        raise OverflowError(f"the profile at j = {j} is beyond the float range")
    return RadialProfile(r=r, values=values, kappa=kappa)


def _count_nodes(r: np.ndarray, values: np.ndarray) -> int:
    noise_floor = 1e-13 * float(np.max(np.abs(values)))
    # Tangential touches dip to the noise floor without flipping sign, so
    # only samples above the floor participate in the sign sequence.
    significant = np.flatnonzero(np.abs(values) > noise_floor)
    kept = values[significant]
    flips = np.flatnonzero(kept[:-1] * kept[1:] < 0.0)
    n = len(values)
    for prev, cur in zip(significant[flips].tolist(), significant[flips + 1].tolist()):
        window = values[max(0, prev - 25) : min(n, cur + 26)]
        local_scale = float(np.max(np.abs(window)))
        if abs(values[cur] - values[prev]) > 0.10 * local_scale:
            raise ResolutionError(
                f"sign change near r = {r[prev]} jumps by more than "
                f"10% of the local amplitude; refine the mesh"
            )
    return len(flips)


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
    # on the scale of the peak: the raw values reach 1e169 and beyond at
    # large |j|, where their squares and neighbour products overflow
    peak = float(np.max(np.abs(profile.values)))
    scaled = profile.values / peak if peak > 0.0 else profile.values
    norm_sq = float(np.trapezoid(scaled * scaled * profile.r, profile.r))
    return peak * math.sqrt(norm_sq), _count_nodes(profile.r, scaled)
