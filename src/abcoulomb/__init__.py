"""Spectral solver for a spin-1/2 charged particle with Aharonov-Bohm
flux, an attractive Coulomb potential, and frame rotation: closed-form
bound-state energies for the regular/irregular origin behaviors, a
secular-equation solver for general self-adjoint extensions, radial
wavefunctions, and an independent finite-difference cross-check."""

from .model import (
    IRREGULAR,
    REGULAR,
    FloatRangeError,
    FluxConfig,
    PhysicalParams,
    QuantumState,
    SectorError,
    admissible_m,
    decompose_flux,
    effective_j,
    is_singular_sector,
)
from .secular import (
    KummerParams,
    SecularRoot,
    SolutionCoefficients,
    normalizable_coefficients,
    secular_function,
    solve_secular,
)
from .spectrum import (
    DegeneracyGroup,
    ExistenceError,
    SpectralResult,
    closed_form_energy,
    detect_degeneracies,
    kappa_of_energy,
    rotation_parts,
)

__version__ = "0.1.0"
