"""Radial solution assembly, the origin boundary-closure residual, and
profile normalization / node counting.

A profile is the bound state at kappa.  The solution at fixed kappa is
F = a_m R + b_m I with

    R = x^{|j|} e^{-x/2} 1F1(a, b, x),   I = x^{-|j|} e^{-x/2} 1F1(a', b', x)

and x = 2 kappa r.  Both pieces grow like e^{x/2} unless their 1F1
terminates.  On either ladder a or a' is exactly a nonpositive integer
(see ``KummerParams.for_state``), its 1F1 is a multiple of
L_{n-1}^{(+-2|j|)}(x) (DLMF 13.6.19), and F is sampled as a_m R + b_m I
with a zero coefficient on any piece that does not terminate.  Elsewhere
the one normalizable solution is N = x^{|j|} e^{-x/2} U(a, b, x) (DLMF
13.2.42), and the pair (a_m^N, b_m^N) of ``normalizable_coefficients`` is
exactly -2|j| N; F is sampled as -2|j| alpha N, alpha = b_m / b_m^N, and
the pair must be alpha (a_m^N, b_m^N) exactly.  No growing piece is
cancelled numerically, and any other pair is refused.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import PhysicalParams, SectorError
from .secular import KummerParams, SolutionCoefficients, _check_lambda, normalizable_coefficients
from .specfun import _is_nonpositive_integer, kummer_1f1, tricomi_u

__all__ = [
    "ResolutionError",
    "TruncationError",
    "RadialProfile",
    "boundary_closure_residual",
    "build_profile",
    "normalize_and_count_nodes",
]


class ResolutionError(ValueError):
    """Profile sampling too coarse to resolve a sign change."""


class TruncationError(ValueError):
    """Profile cut off before its tail has decayed."""


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Sampled radial solution on a strictly increasing grid; ``origin_norm``
    is the L2 norm of F on (0, r[0]), inf where it diverges."""

    r: np.ndarray
    values: np.ndarray
    kappa: float
    origin_norm: float

    def __post_init__(self) -> None:
        if self.r.ndim != 1 or self.r.shape != self.values.shape:
            raise ValueError("r and values must be matching 1-d arrays")
        if not np.all(np.diff(self.r) > 0.0):
            raise ValueError("sample radii must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("profile contains non-finite values")
        if not self.origin_norm >= 0.0:
            raise ValueError(f"origin_norm must be >= 0, got {self.origin_norm}")


def _state_terms(coeffs: SolutionCoefficients, kp: KummerParams) -> list[tuple]:
    """The terms (c, f, a, b, p) of F = sum c f(a, b, x) x^p e^{-x/2} for the
    bound state at kappa that ``coeffs`` give: on a ladder each nonzero
    coefficient's terminating piece, elsewhere -2|j| alpha N.  A pair that
    is not the state raises ValueError."""
    aj = kp.abs_j
    if _is_nonpositive_integer(kp.a) or _is_nonpositive_integer(kp.a_prime):
        terms = [(c, kummer_1f1, a, b, p) for c, a, b, p in (
            (coeffs.a_m, kp.a, kp.b, aj), (coeffs.b_m, kp.a_prime, kp.b_prime, -aj)) if c]
        if all(_is_nonpositive_integer(a) for _, _, a, _, _ in terms):
            return terms
    elif coeffs.b_m:  # only then: a_m^N needs Gamma(b'), which has poles at integer 2|j|
        normalizable = normalizable_coefficients(kp)
        alpha = coeffs.b_m / normalizable.b_m
        if coeffs.a_m == alpha * normalizable.a_m:
            return [(-2.0 * aj * alpha, tricomi_u, kp.a, kp.b, aj)]
    raise ValueError(
        f"(a_m, b_m) = ({coeffs.a_m!r}, {coeffs.b_m!r}) is not the bound state at kappa = "
        f"{kp.kappa!r}: pass normalizable_coefficients(KummerParams.for_state(kappa, j, params))"
    )


def _radial_values(x: np.ndarray, terms: list[tuple]) -> np.ndarray:
    """The sum of ``_state_terms``' terms at every x."""
    # x^{+-|j|} e^{-x/2} as one exponential: at large |j| the power alone
    # overflows past the peak x = 2|j| of the product
    log_x = np.log(x)
    pieces = [c * f(a, b, x) * np.exp(p * log_x - 0.5 * x) for c, f, a, b, p in terms]
    return sum(pieces[1:], pieces[0])  # a lone piece as it is, -0.0 and all


def _origin_pieces(coeffs: SolutionCoefficients, kp: KummerParams, x: float) -> tuple[float, float]:
    """b_m x^{-|j|} and a_m x^{|j|}, 0 for a zero coefficient: at x = 2 kappa the
    f0 and f1 of F ~ f1 r^{|j|} + f0 r^{-|j|}, at x = 2 kappa r its two terms."""
    aj = kp.abs_j
    f0 = coeffs.b_m * x ** (-aj) if coeffs.b_m else 0.0
    return f0, (coeffs.a_m * x**aj if coeffs.a_m else 0.0)


def boundary_closure_residual(
    coeffs: SolutionCoefficients, kp: KummerParams, lam: float
) -> float:
    """Relative residual of the origin boundary condition f0 = lambda * f1
    linking the origin coefficients of the solution,

        f0 = b_m (2 kappa)^{-|j|}   (irregular, r^{-|j|} part)
        f1 = a_m (2 kappa)^{+|j|}   (regular, r^{+|j|} part);

    the subleading terms of its small-r expansion carry positive powers of
    r and drop out of the limits for |j| < 1/2.  Zero (to root-finding
    accuracy) exactly when kappa is a bound state of the extension."""
    _check_lambda(lam)
    if math.isinf(lam):
        raise ValueError("closure residual is defined for finite lambda")
    aj = kp.abs_j
    if aj >= 0.5:
        raise SectorError(f"the boundary closure requires |j| < 1/2, got |j| = {aj}")
    f0, f1 = _origin_pieces(coeffs, kp, 2.0 * kp.kappa)
    scale = max(abs(f0), abs(lam * f1))
    if scale == 0.0:
        return 0.0
    return abs(f0 - lam * f1) / scale


def _origin_node(coeffs: SolutionCoefficients, kp: KummerParams) -> float:
    """Zero of the origin behavior f1 r^{|j|} + f0 r^{-|j|}, or inf."""
    if kp.abs_j == 0.0 or coeffs.a_m == 0.0 or coeffs.b_m == 0.0:
        return math.inf
    f0_over_f1 = coeffs.b_m / coeffs.a_m * (2.0 * kp.kappa) ** (-2.0 * kp.abs_j)
    if f0_over_f1 >= 0.0:
        return math.inf
    log_r0 = math.log(-f0_over_f1) / (2.0 * kp.abs_j)
    # beyond the float range at small |j|, and then far outside any mesh
    return math.exp(log_r0) if log_r0 < 709.0 else math.inf


def _origin_norm(coeffs: SolutionCoefficients, kp: KummerParams, r0: float) -> float:
    """The L2 norm of F on (0, r0), from F ~ f1 r^{|j|} (1 + c r) + f0 r^{-|j|} (1 + c' r),
    c = 2 kappa (a/b - 1/2), c' = 2 kappa (a'/b' - 1/2); inf where the r^{-|j|}
    piece is not square integrable (|j| >= 1)."""
    aj, two_kappa = kp.abs_j, 2.0 * kp.kappa
    if coeffs.b_m and aj >= 1.0:
        return math.inf
    v, u = _origin_pieces(coeffs, kp, two_kappa * r0)  # each the size of F(r0)
    scale = max(abs(u), abs(v)) or 1.0
    u, v, c = u / scale, v / scale, two_kappa * (kp.a / kp.b - 0.5)
    square = u * u * (1.0 / (2.0 + 2.0 * aj) + 2.0 * r0 * c / (3.0 + 2.0 * aj))
    if v:  # only then: b' = 0 at |j| = 1/2, and 2 - 2|j| = 0 at |j| = 1
        c_prime = two_kappa * (kp.a_prime / kp.b_prime - 0.5)
        square += v * (u * (1.0 + 2.0 * r0 * (c + c_prime) / 3.0)
                       + v * (1.0 / (2.0 - 2.0 * aj) + 2.0 * r0 * c_prime / (3.0 - 2.0 * aj)))
    return scale * r0 * math.sqrt(square)


def build_profile(
    coeffs: SolutionCoefficients,
    kappa: float,
    j: float,
    params: PhysicalParams,
    points: int = 4000,
) -> RadialProfile:
    """Sample the bound state at kappa on a geometric mesh.

    ``coeffs`` must be that state: on a ladder, nonzero only on pieces that
    terminate (the ladder's own piece, or ``normalizable_coefficients``);
    elsewhere ``normalizable_coefficients(KummerParams.for_state(kappa, j,
    params))`` or a multiple of it.  Any other pair raises ValueError.

    The geometric grading resolves the r^{-|j|} origin behavior.  The mesh
    starts at 1e-4/kappa, or for lambda < 0 at or below r0/100, where
    r0 = (-f0/f1)^{1/(2|j|)} is the node of the origin behavior.  It ends
    at x = 2 kappa r = max(70, 10 t), t = q/kappa, where the
    large-x envelope x^{t - 1/2} e^{-x/2} of a bound state, which peaks at
    x = 2t - 1, is below 3e-8 of its largest value past x = 1 for every t.
    A range that no float can hold raises ValueError (an origin node that
    underflows to 0) or OverflowError (an end beyond the float range).
    """
    if not isinstance(points, numbers.Integral) or isinstance(points, bool) or points < 16:
        raise ValueError(f"points must be an integer >= 16, got {points!r}")
    kp = KummerParams.for_state(kappa, j, params)
    terms = _state_terms(coeffs, kp)
    r_lo = min(1e-4 / kappa, 0.01 * _origin_node(coeffs, kp))
    t = params.q / kappa
    r_hi = max(35.0, 5.0 * t) / kappa
    if not (0.0 < r_lo < r_hi):
        raise ValueError(f"need 0 < r_min < r_max, got ({r_lo}, {r_hi})")
    if math.isinf(r_hi):
        raise OverflowError(f"the profile at j = {j} is beyond the float range")
    # evenly spaced in ln r, in a sixth of np.geomspace's time; exact ends
    r = np.exp(np.linspace(math.log(r_lo), math.log(r_hi), points))
    r[0], r[-1] = r_lo, r_hi
    with np.errstate(over="ignore", invalid="ignore"):  # x^{|j|} at huge |j|, refused below
        values = _radial_values(2.0 * kappa * r, terms)
    if not np.all(np.isfinite(values)):
        raise OverflowError(f"the profile at j = {j} is beyond the float range")
    return RadialProfile(r, values, kappa, _origin_norm(coeffs, kp, r_lo))


def _count_nodes(r: np.ndarray, values: np.ndarray, peak: float) -> int:
    """Strict sign changes of ``values``, whose largest |value| is ``peak``."""
    noise_floor = 1e-13 * peak
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
    """L2 norm sqrt(integral |F|^2 r dr) over (0, r_max): the samples'
    |F|^2 r^2 by the trapezoid rule in ln r, plus ``profile.origin_norm``
    below them (ValueError where that is inf); and the count of strict sign
    changes.  The profile must extend to 30/kappa, and its last sample must
    be within 1e-6 of its peak, or TruncationError is raised.
    """
    kappa = profile.kappa
    if math.isinf(profile.origin_norm):
        raise ValueError("F ~ f0 r^{-|j|} with f0 != 0 at |j| >= 1 has no finite norm")
    if profile.r[-1] < 30.0 / kappa * (1.0 - 1e-9):
        raise ValueError(f"profile must extend to at least 30/kappa = {30.0 / kappa}")
    # on the scale of the peak: the raw values reach 1e169 and beyond at
    # large |j|, where their squares and neighbour products overflow
    peak = float(np.max(np.abs(profile.values)))
    if abs(profile.values[-1]) > 1e-6 * peak:
        raise TruncationError(
            f"the profile ends at r = {profile.r[-1]} with {abs(profile.values[-1]) / peak:.3g} "
            "of its peak; extend r_max"
        )
    scaled = profile.values / peak if peak > 0.0 else profile.values
    sampled = float(np.trapezoid(np.square(scaled * profile.r), np.log(profile.r)))
    norm = math.hypot(peak * math.sqrt(sampled), profile.origin_norm)
    if math.isinf(norm):
        raise OverflowError(f"the norm of the profile is beyond the float range (peak {peak})")
    # the scaled peak is exactly 1: x / peak <= 1 for |x| <= peak
    return norm, _count_nodes(profile.r, scaled, 1.0 if peak > 0.0 else 0.0)
