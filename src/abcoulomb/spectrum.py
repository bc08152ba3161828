"""Closed-form bound-state energies of the regular and irregular
extensions, the kappa <-> energy conversion, and degeneracy detection.

``closed_form_energy`` is the one closed-form entry point; it reads the
origin branch (regular, lambda = 0, or irregular, lambda = inf) off
``QuantumState.branch``.

The energy of a level splits into a Coulomb part depending only on
(n, |j|) and a rotation shift -hbar*Omega*(j + s/2).  The two parts are
kept separate on ``SpectralResult`` (and the shift further splits via
``rotation_parts``) so that the affine structure in Omega and the spin
splitting can be checked exactly, without float-rounding slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    REGULAR,
    FluxConfig,
    PhysicalParams,
    QuantumState,
    SectorError,
    is_singular_sector,
)

__all__ = [
    "ExistenceError",
    "SpectralResult",
    "DegeneracyGroup",
    "rotation_parts",
    "closed_form_energy",
    "kappa_of_energy",
    "detect_degeneracies",
]


class ExistenceError(ValueError):
    """The bound-state condition kappa**2 > 0 fails (scattering regime)."""


@dataclass(frozen=True)
class SpectralResult:
    """One bound level: total energy, inverse decay length kappa, and the
    Coulomb/rotation split of the energy."""

    energy: float
    kappa: float
    exists: bool
    coulomb_energy: float
    rotation_energy: float


@dataclass(frozen=True)
class DegeneracyGroup:
    energy: float
    members: frozenset[QuantumState]


def rotation_parts(params: PhysicalParams, j: float, s: int) -> tuple[float, float]:
    """The two pieces of the rotation shift -hbar*Omega*(j + s/2).

    Returns ``(orbit, spin)`` with ``orbit = -(hbar*Omega*j)`` and
    ``spin = -s*(hbar*Omega/2)``; each is a single rounding of its factors,
    and the spin piece flips sign exactly under s -> -s.
    """
    hw = params.hbar * params.omega
    return -(hw * j), -s * (hw / 2.0)


def _energy_terms(params: PhysicalParams, omega, t, j, s):
    """(coulomb, rotation) at t = q/kappa, on floats or broadcasting
    arrays (``omega`` too): the package's one energy formula, -m_e eta^2 / (2 hbar^2
    t^2) - hbar Omega (j + s/2), its shift summed as ``rotation_parts`` sums it and
    its scale read from ``params.energy_unit``; kappa is q/t, formed by the caller."""
    coulomb = -params.energy_unit / (t * t)
    hw = params.hbar * omega
    rotation = -(hw * j) + -s * (hw / 2.0)
    return coulomb, rotation


def closed_form_energy(
    state: QuantumState, params: PhysicalParams, flux: FluxConfig
) -> SpectralResult:
    """Energy of the level of ``state.branch``:

        E = -m_e eta^2 / (2 hbar^2 (n - 1/2 +- |j|)^2) - hbar Omega (j + s/2)

    with j = m + phi, + on the regular branch (extension parameter zero)
    and - on the irregular one (infinite extension parameter), which is
    only defined in the singular sector |j| < 1/2 and raises SectorError
    outside it.  The associated kappa is q / (n - 1/2 +- |j|).
    """
    j = state.m + flux.phi
    regular = state.branch == REGULAR
    if not (regular or is_singular_sector(j)):
        raise SectorError(
            f"irregular branch requires |j| < 1/2, got j = {j} "
            f"(m = {state.m}, phi = {flux.phi})"
        )
    t = state.n - 0.5 + (abs(j) if regular else -abs(j))
    coulomb, rotation = _energy_terms(params, params.omega, t, j, state.s)
    kappa = params.q / t
    return SpectralResult(
        energy=coulomb + rotation,
        kappa=kappa,
        exists=kappa > 0.0,
        coulomb_energy=coulomb,
        rotation_energy=rotation,
    )


def kappa_of_energy(
    energy: float, state: QuantumState, params: PhysicalParams, flux: FluxConfig
) -> float:
    """Inverse decay length kappa = sqrt(-[2 m_e E / hbar^2 + (2 m_e Omega/hbar)(j + s/2)]).

    Raises ExistenceError when the bracketed quantity is nonnegative
    (oscillatory regime, no bound state), and ValueError on an energy that
    is not finite.
    """
    if not math.isfinite(energy):
        raise ValueError(f"energy must be finite, got {energy}")
    j = state.m + flux.phi
    bracket = (2.0 * params.m_e * energy / params.hbar**2) + (
        2.0 * params.m_e * params.omega / params.hbar
    ) * (j + state.s / 2.0)
    if bracket >= 0.0:
        raise ExistenceError(
            f"no bound state: 2 m_e E/hbar^2 + 2 m_e Omega (j + s/2)/hbar = {bracket} >= 0"
        )
    return math.sqrt(-bracket)


def detect_degeneracies(
    states: list[QuantumState],
    params: PhysicalParams,
    flux: FluxConfig,
    tol: float = 1e-12,
) -> list[DegeneracyGroup]:
    """Partition states into groups of equal closed-form energy.

    Greedy clustering on the sorted energies; a state joins a group when
    its energy lies within ``tol`` of the group's first (smallest) member,
    which keeps all pairs within ``tol``.  Singleton groups are dropped.
    """
    if not tol > 0.0:  # NaN too
        raise ValueError(f"tol must be positive, got {tol}")
    evaluated = [(closed_form_energy(s, params, flux).energy, s) for s in states]
    evaluated.sort(key=lambda pair: pair[0])
    groups: list[DegeneracyGroup] = []
    i = 0
    while i < len(evaluated):
        anchor_energy = evaluated[i][0]
        members = [evaluated[i][1]]
        k = i + 1
        while k < len(evaluated) and evaluated[k][0] - anchor_energy <= tol:
            members.append(evaluated[k][1])
            k += 1
        if len(members) > 1:
            groups.append(DegeneracyGroup(energy=anchor_energy, members=frozenset(members)))
        i = k
    return groups
