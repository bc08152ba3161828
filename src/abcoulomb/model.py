"""Physical parameters and quantum-number bookkeeping.

Covers the flux decomposition phi = N + beta, the effective angular
momentum j = m + phi, and the |j| < 1/2 sector in which the package
parametrizes the boundary conditions at the origin by lambda.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

__all__ = [
    "REGULAR",
    "IRREGULAR",
    "SectorError",
    "FloatRangeError",
    "PhysicalParams",
    "FluxConfig",
    "QuantumState",
    "decompose_flux",
    "effective_j",
    "is_singular_sector",
    "admissible_m",
]

REGULAR = "regular"
IRREGULAR = "irregular"
_BRANCHES = (REGULAR, IRREGULAR)


class SectorError(ValueError):
    """An irregular-solution operation was requested outside |j| < 1/2."""


class FloatRangeError(ValueError):
    """A Coulomb scale, or a kappa, that no normal float holds."""


def _is_normal(x: float) -> bool:
    """True iff x is a positive, normal, finite float."""
    return sys.float_info.min <= x <= sys.float_info.max


@dataclass(frozen=True)
class PhysicalParams:
    """Masses, hbar, Coulomb strength and rotation frequency.

    Defaults are atomic units (hbar = m_e = eta = 1) with no rotation.
    ``eta`` is the Coulomb strength in energy*length; ``omega`` the signed
    rotation frequency about the z axis.

    Every layer takes its Coulomb scale from ``q`` and ``energy_unit``, so
    the parameters are refused here, with FloatRangeError, where no float
    holds that scale: hbar*hbar not a normal float, an energy unit whose
    squares overflow, or q = m_e eta / hbar^2 not a normal float at eta > 0.
    An energy unit that overflows to inf is kept: ``closed_form_energy`` then
    returns -inf levels, and an inf kappa where q / t overflows
    (``m_e = 1e300, eta = 1e10, hbar = 10``); ``spectrum`` and ``scan``
    refuse those rows.
    """

    m_e: float = 1.0
    hbar: float = 1.0
    eta: float = 1.0
    omega: float = 0.0

    def __post_init__(self) -> None:
        for name in ("m_e", "hbar", "eta", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.m_e <= 0.0:
            raise ValueError(f"m_e must be positive, got {self.m_e}")
        if self.hbar <= 0.0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if self.eta < 0.0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")
        if not _is_normal(self.hbar * self.hbar):
            raise FloatRangeError(f"hbar^2 at hbar = {self.hbar!r} is beyond the float range")
        try:
            self.energy_unit
        except OverflowError:  # eta**2 or hbar**2
            raise FloatRangeError(
                f"the energy unit m_e eta^2 / (2 hbar^2) at eta = {self.eta!r}, "
                f"hbar = {self.hbar!r} is beyond the float range") from None
        if self.eta > 0.0 and not _is_normal(self.q):
            raise FloatRangeError(
                f"the Coulomb scale q = m_e eta / hbar^2 = {self.q!r} is beyond the float range")

    @property
    def q(self) -> float:
        """Inverse Coulomb length m_e eta / hbar^2: kappa = q / t.

        Formed as m_e (eta / hbar^2) wherever eta / hbar^2 is not below the
        normal range.  Below it that ratio loses digits, so there the three
        factors are split into mantissa and power of two, the mantissas
        combined in the same order, and the power put back once (q < 4
        there, so nothing overflows)."""
        ratio = self.eta / (self.hbar * self.hbar)
        if ratio >= sys.float_info.min:
            return self.m_e * ratio
        (m_e, m_exp), (eta, eta_exp), (hbar, hbar_exp) = map(
            math.frexp, (self.m_e, self.eta, self.hbar))
        return math.ldexp(m_e * (eta / (hbar * hbar)), m_exp + eta_exp - 2 * hbar_exp)

    @property
    def energy_unit(self) -> float:
        """m_e eta^2 / (2 hbar^2): the Coulomb term of a level is -energy_unit / t^2.

        Formed in that order wherever eta^2 and m_e eta^2 are normal floats,
        and as q eta / 2 where either underflows or m_e eta^2 overflows: there
        the first order loses the unit (at eta = 1e-200, m_e = 1e300 it rounds
        to 0, not 5e-101), while q is a normal float at eta > 0."""
        eta_squared = self.eta**2
        if _is_normal(eta_squared) and _is_normal(self.m_e * eta_squared):
            return self.m_e * eta_squared / (2.0 * self.hbar**2)
        return 0.5 * self.q * self.eta


@dataclass(frozen=True)
class FluxConfig:
    """Dimensionless AB flux phi = Phi/Phi_0 split as phi = N + beta."""

    phi: float
    n_integer: int
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.beta < 1.0):
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        if abs(self.n_integer + self.beta - self.phi) > 1e-12 * max(1.0, abs(self.phi)):
            raise ValueError(
                f"inconsistent decomposition: {self.n_integer} + {self.beta} != {self.phi}"
            )


def decompose_flux(phi: float) -> FluxConfig:
    """Split phi into integer part N = floor(phi) and beta = phi - N.

    Floor keeps beta in [0, 1) for either sign of the flux, e.g.
    phi = -0.3 -> (N = -1, beta = 0.7).
    """
    if not math.isfinite(phi):
        raise ValueError(f"flux must be finite, got {phi}")
    n = math.floor(phi)
    beta = phi - n
    if beta >= 1.0:  # phi a hair below an integer can round beta up to 1.0
        n += 1
        beta = 0.0
    return FluxConfig(phi=phi, n_integer=n, beta=beta)


@dataclass(frozen=True)
class QuantumState:
    """One bound level: principal index n, angular momentum m, spin
    projection s = +-1, and which origin behavior the level belongs to."""

    n: int
    m: int
    s: int
    branch: str = REGULAR

    def __post_init__(self) -> None:
        if not (isinstance(self.n, numbers.Integral) and isinstance(self.m, numbers.Integral)):
            raise ValueError(f"n and m must be integers, got n = {self.n!r}, m = {self.m!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.s not in (1, -1):
            raise ValueError(f"s must be +1 or -1, got {self.s}")
        if self.branch not in _BRANCHES:
            raise ValueError(f"branch must be one of {_BRANCHES}, got {self.branch!r}")


def effective_j(m: int, phi: float) -> float:
    """Effective angular momentum j = m + phi of the radial operator."""
    return m + phi


def is_singular_sector(j: float) -> bool:
    """True iff |j| < 1/2, where the package's lambda convention, and with
    it the irregular branch, is defined: Gamma(1 - 2|j|) has a pole at
    |j| = 1/2.  The radial operator is limit-circle at the origin for all
    |j| < 1 (Weyl's criterion for -u'' + (j^2 - 1/4) u / r^2), but at
    1/2 <= |j| < 1 only the regular ladder is given, and every lambda is
    refused with SectorError, until a convention without that pole is chosen."""
    return abs(j) < 0.5


def admissible_m(phi: float) -> list[int]:
    """Integers m with -1/2 - phi < m < 1/2 - phi (open interval).

    The interval has width one, so the list holds at most one integer; it
    is empty exactly when an endpoint is itself an integer (beta = 1/2).
    """
    if not math.isfinite(phi):
        raise ValueError(f"flux must be finite, got {phi}")
    lo = -0.5 - phi
    hi = 0.5 - phi
    return [m for m in range(math.floor(lo), math.ceil(hi) + 1) if lo < m < hi]
