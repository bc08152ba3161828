"""Physical parameters and quantum-number bookkeeping.

Covers the flux decomposition phi = N + beta, the effective angular
momentum j = m + phi, and the |j| < 1/2 sector in which the package
parametrizes the boundary conditions at the origin by lambda.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = [
    "REGULAR",
    "IRREGULAR",
    "SectorError",
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


@dataclass(frozen=True)
class PhysicalParams:
    """Masses, hbar, Coulomb strength and rotation frequency.

    Defaults are atomic units (hbar = m_e = eta = 1) with no rotation.
    ``eta`` is the Coulomb strength in energy*length; ``omega`` the signed
    rotation frequency about the z axis.
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

    @property
    def eta_prime(self) -> float:
        """Coulomb strength rescaled by hbar**2."""
        return self.eta / (self.hbar * self.hbar)


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
