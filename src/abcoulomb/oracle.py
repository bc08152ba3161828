"""Independent finite-difference eigensolver for the radial operator

    H0 = -(1/r) d/dr (r d/dr) + j^2/r^2 - 2 m_e eta'/r

used to cross-check the closed-form and secular spectra.

On a logarithmic grid (y = ln r, unknown F itself) the operator
becomes -F_yy + (j^2 - 2 m_e eta' e^y) F = eps e^{2y} F: a generalized
symmetric-definite problem A F = eps M F with tridiagonal A and diagonal
mass M = r^2 carrying the r dr measure.  The inner boundary eliminates
the ghost point through the regular origin behavior
r^{|j|} (1 - 2 m_e eta' r / (2|j| + 1)); the outer boundary is Dirichlet.
Bound eigenvalues eps = -kappa^2 are extracted by shift-invert Lanczos
with the shift below the Coulomb ground level, and two grids are
Richardson-combined to cancel the O(h^2) discretization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import eigsh

from .model import PhysicalParams

__all__ = [
    "GridConvergenceError",
    "RadialGrid",
    "OracleEigenvalue",
    "TridiagonalOperator",
    "DEFAULT_GRID",
    "discretize_h0",
    "bound_eigenvalues",
    "oracle_regular_spectrum",
]

# Two-grid sanity bound: beyond this relative disagreement the scheme is
# not in its asymptotic regime and extrapolation is meaningless.
TWO_GRID_AGREEMENT = 0.05


class GridConvergenceError(RuntimeError):
    """Two-grid eigenvalues disagree too much to trust extrapolation."""


@dataclass(frozen=True)
class RadialGrid:
    """Logarithmically spaced nodes from r_min to r_max."""

    r_min: float = 1e-5
    r_max: float = 200.0
    points: int = 4000

    def __post_init__(self) -> None:
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError(f"need 0 < r_min < r_max, got ({self.r_min}, {self.r_max})")
        if self.points < 100:
            raise ValueError(f"points must be >= 100, got {self.points}")

    def nodes(self) -> np.ndarray:
        return np.geomspace(self.r_min, self.r_max, self.points)

    def refined(self) -> "RadialGrid":
        """Same endpoints, half the mesh step."""
        return replace(self, points=2 * self.points - 1)


DEFAULT_GRID = RadialGrid()


@dataclass(frozen=True)
class OracleEigenvalue:
    kappa: float
    index: int
    grid: RadialGrid


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Generalized pencil (A, M): symmetric tridiagonal stiffness A and
    positive diagonal mass M representing H0 in the r dr measure."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray
    mass: np.ndarray


def discretize_h0(j: float, params: PhysicalParams, grid: RadialGrid) -> TridiagonalOperator:
    """Finite-difference pencil whose generalized eigenvalues approximate
    the spectrum of H0 with the regular boundary behavior at r_min and
    Dirichlet at r_max."""
    aj = abs(j)
    q = params.m_e * params.eta_prime
    y = np.log(grid.nodes())
    h = y[1] - y[0]
    r = np.exp(y[:-1])  # unknowns on all nodes but the Dirichlet outer one
    diag = 2.0 / h**2 + j * j - 2.0 * q * r
    # Ghost elimination at the innermost node from F ~ r^{|j|} (1 + c1 r),
    # c1 = -2q/(2|j|+1); only the first diagonal entry changes.
    c1 = -2.0 * q / (2.0 * aj + 1.0)
    r0 = r[0]
    ghost_ratio = math.exp(-aj * h) * (1.0 + c1 * r0 * math.exp(-h)) / (1.0 + c1 * r0)
    diag[0] = (2.0 - ghost_ratio) / h**2 + j * j - 2.0 * q * r0
    off = np.full(len(r) - 1, -1.0 / h**2)
    return TridiagonalOperator(diagonal=diag, off_diagonal=off, mass=r * r)


def _coulomb_floor(params: PhysicalParams, j: float) -> float:
    # The most-bound level satisfies kappa <= 2 m_e eta' for every |j| >= 0,
    # so eps >= -4 (m_e eta')^2; shift safely below that.
    q = params.m_e * params.eta_prime
    return -4.5 * q * q - 1.0


def bound_eigenvalues(op: TridiagonalOperator, n_max: int, sigma: float) -> np.ndarray:
    """The n_max lowest generalized eigenvalues of (A, M), ascending,
    via shift-invert Lanczos with the shift ``sigma`` below the spectrum
    bottom."""
    n = len(op.diagonal)
    a_mat = scipy.sparse.diags(
        [op.off_diagonal, op.diagonal, op.off_diagonal], [-1, 0, 1], format="csc"
    )
    m_mat = scipy.sparse.diags([op.mass], [0], format="csc")
    k = min(n_max, n - 2)
    vals = eigsh(
        a_mat,
        k=k,
        M=m_mat,
        sigma=sigma,
        which="LM",
        tol=0,
        return_eigenvectors=False,
    )
    return np.sort(vals)


def oracle_regular_spectrum(
    j: float,
    params: PhysicalParams,
    n_max: int,
    grid: RadialGrid = DEFAULT_GRID,
) -> list[OracleEigenvalue]:
    """The n_max most-bound levels of the regular problem as kappa values,
    Richardson-extrapolated from ``grid`` and its half-step refinement.

    Only negative eigenvalues (genuine bound states) are returned, so the
    list may be shorter than n_max; with eta' = 0 it is empty.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    sigma = _coulomb_floor(params, j)
    coarse = bound_eigenvalues(discretize_h0(j, params, grid), n_max, sigma)
    fine = bound_eigenvalues(discretize_h0(j, params, grid.refined()), n_max, sigma)
    results: list[OracleEigenvalue] = []
    for index in range(min(len(coarse), len(fine))):
        eps_c, eps_f = coarse[index], fine[index]
        if eps_f >= 0.0:
            break  # continuum-box levels start here; no more bound states
        if abs(eps_f - eps_c) > TWO_GRID_AGREEMENT * abs(eps_f):
            raise GridConvergenceError(
                f"two-grid eigenvalues disagree at index {index + 1}: "
                f"{eps_c} vs {eps_f}"
            )
        eps = (4.0 * eps_f - eps_c) / 3.0
        if eps >= 0.0:
            break
        results.append(
            OracleEigenvalue(kappa=math.sqrt(-eps), index=index + 1, grid=grid)
        )
    return results
