"""Independent finite-difference eigensolver for the radial operator

    H0 = -(1/r) d/dr (r d/dr) + j^2/r^2 - 2 m_e eta'/r

used to cross-check the closed-form and secular spectra.

On a logarithmic grid (y = ln r, unknown F itself) the operator
becomes -F_yy + (j^2 - 2 m_e eta' e^y) F = eps e^{2y} F: a generalized
symmetric-definite problem A F = eps M F with tridiagonal A and diagonal
mass M = r^2 carrying the r dr measure.  The inner boundary eliminates
the ghost point through the regular origin behavior
r^{|j|} (1 - 2 m_e eta' r / (2|j| + 1)); the outer boundary is Dirichlet.
Bound eigenvalues eps = -kappa^2 are the lowest levels of the
symmetrised tridiagonal M^{-1/2} A M^{-1/2}, found by index with Sturm
bisection (LAPACK stebz), and two grids are Richardson-combined to
cancel the O(h^2) discretization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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


def __getattr__(name: str):
    # ``eigsh`` is served only for the benchmark's tracer, which wraps
    # oracle.eigsh; imported on first use, as scipy.sparse costs memory
    # and import time that nothing else here needs.
    if name == "eigsh":
        from scipy.sparse.linalg import eigsh

        globals()["eigsh"] = eigsh
        return eigsh
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    # |eps_fine - eps_coarse| / |eps_fine|, the quantity held below
    # TWO_GRID_AGREEMENT
    two_grid_gap: float


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


def bound_eigenvalues(op: TridiagonalOperator, n_max: int) -> np.ndarray:
    """The n_max lowest generalized eigenvalues of (A, M), ascending, by
    Sturm bisection on the congruent s A s, s = M^{-1/2}.  Bisection
    resolves levels only to tiny * (largest squared entry); a pencil where
    that overflows or exceeds the levels' rounding raises ValueError."""
    from scipy.linalg import eigh_tridiagonal  # deferred, as specfun defers scipy.special

    s = 1.0 / np.sqrt(op.mass)
    tiny = np.finfo(float).tiny
    with np.errstate(over="ignore"):
        diagonal, off_diagonal = op.diagonal * s * s, op.off_diagonal * s[:-1] * s[1:]
        floor = tiny * float(np.max(np.square(np.r_[1.0, diagonal, off_diagonal])))
    if math.isfinite(floor):
        # tol=0 would mean eps * |T|_1, far above the levels of this graded T
        vals = eigh_tridiagonal(diagonal, off_diagonal, eigvals_only=True, select="i",
                                select_range=(0, min(n_max, len(diagonal)) - 1),
                                lapack_driver="stebz", tol=tiny)
        if floor <= np.finfo(float).eps * np.min(np.abs(vals)):
            return vals
    raise ValueError(f"r_min = {math.sqrt(op.mass[0]):.3g} is too small: Sturm "
                     f"bisection resolves this pencil's levels only to {floor:.3g}")


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
    coarse = bound_eigenvalues(discretize_h0(j, params, grid), n_max)
    fine = bound_eigenvalues(discretize_h0(j, params, grid.refined()), n_max)
    results: list[OracleEigenvalue] = []
    for index in range(min(len(coarse), len(fine))):
        eps_c, eps_f = coarse[index], fine[index]
        if eps_f >= 0.0:
            break  # continuum-box levels start here; no more bound states
        gap = float(abs(eps_f - eps_c) / abs(eps_f))
        if gap > TWO_GRID_AGREEMENT:
            raise GridConvergenceError(
                f"two-grid eigenvalues disagree at index {index + 1}: "
                f"{eps_c} vs {eps_f}"
            )
        eps = (4.0 * eps_f - eps_c) / 3.0
        if eps >= 0.0:
            break
        results.append(
            OracleEigenvalue(
                kappa=math.sqrt(-eps), index=index + 1, grid=grid, two_grid_gap=gap
            )
        )
    return results
