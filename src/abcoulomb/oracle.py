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
symmetrised tridiagonal T = M^{-1/2} A M^{-1/2}.  The problem is solved in
Coulomb units, m_e eta' = 1, and scaled.  Sturm bisection (LAPACK stebz)
finds them by index on a seed grid with an eighth of the points; each
seed is refined on the grid and then on its half-step refinement by
Rayleigh-quotient inverse iteration (LAPACK gtsv solves of T - sigma) and
certified by Sturm counts, and the two grids are Richardson-combined to
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

# A refined level is certified when its Sturm window, this relative width
# on each side, holds exactly it.
RELATIVE_WINDOW = 1e-9
# Rayleigh-quotient inverse iteration stops when a quotient moves by less
# than this relative step from the last one; the quotient's error is then
# of the order of the step cubed.
_STEP_TOLERANCE = 1e-8
_MAX_ITERATIONS = 20


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
# m_e eta' = 1: the oracle's pencils are solved in Coulomb units
_COULOMB_UNITS = PhysicalParams()


@dataclass(frozen=True)
class OracleEigenvalue:
    kappa: float
    index: int
    # in Coulomb lengths 1/(m_e eta'), the units the pencils are solved in
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


def bound_eigenvalues(
    op: TridiagonalOperator, n_max: int, seeds: np.ndarray | None = None
) -> np.ndarray:
    """The n_max lowest generalized eigenvalues of (A, M), ascending, on the
    congruent s A s, s = M^{-1/2}.

    Without ``seeds`` they come from Sturm bisection.  With ``seeds``, an
    ascending estimate of each of the lowest levels (at most n_max are
    used), every seed is refined by Rayleigh-quotient inverse iteration
    and the result certified by Sturm counts; a level that fails its count
    raises GridConvergenceError.  Bisection resolves levels only to
    tiny * (largest squared entry); a pencil where that overflows or
    exceeds the levels' rounding raises ValueError on either path."""
    s = 1.0 / np.sqrt(op.mass)
    tiny = np.finfo(float).tiny
    with np.errstate(over="ignore"):
        diagonal, off_diagonal = op.diagonal * s * s, op.off_diagonal * s[:-1] * s[1:]
        floor = tiny * float(np.max(np.square(np.r_[1.0, diagonal, off_diagonal])))
    if math.isfinite(floor):
        if seeds is None:
            from scipy.linalg import eigh_tridiagonal  # deferred, as specfun defers scipy.special

            # tol=0 would mean eps * |T|_1, far above the levels of this graded T
            vals = eigh_tridiagonal(diagonal, off_diagonal, eigvals_only=True, select="i",
                                    select_range=(0, min(n_max, len(diagonal)) - 1),
                                    lapack_driver="stebz", tol=tiny)
        else:
            vals = _refine(op, diagonal, off_diagonal, s, np.asarray(seeds, dtype=float)[:n_max])
        if vals.size == 0 or floor <= np.finfo(float).eps * np.min(np.abs(vals)):
            return vals
    raise ValueError(f"r_min = {math.sqrt(op.mass[0]):.3g} is too small: Sturm "
                     f"bisection resolves this pencil's levels only to {floor:.3g}")


def _refine(op: TridiagonalOperator, diagonal: np.ndarray, off_diagonal: np.ndarray,
            s: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Rayleigh-quotient inverse iteration on T = s A s from each seed, then
    Sturm counts: level k must have k - 1 eigenvalues of T below
    (1 - RELATIVE_WINDOW) eps_k and k below (1 + RELATIVE_WINDOW) eps_k."""
    from scipy.linalg.lapack import dgtsv, dstebz

    # The quotient f^T A f / f^T M f, f = s y, in difference form: the
    # couplings as squared differences plus the row sums of A, which are
    # the potential and the boundary terms.  The naive y^T T y on the
    # graded T loses up to about 5e-10 to cancellation.
    b = op.off_diagonal
    row_sums = op.diagonal.copy()
    row_sums[:-1] += b
    row_sums[1:] += b

    def quotient(f: np.ndarray) -> float:
        df = np.diff(f)
        return float((np.dot(-b * df, df) + np.dot(row_sums * f, f)) / np.dot(op.mass * f, f))

    levels = np.empty(seeds.size)
    for k, sigma in enumerate(seeds):
        y = np.ones(diagonal.size)
        previous = None  # the last Rayleigh quotient; the seed itself is none
        for _ in range(_MAX_ITERATIONS):
            y = dgtsv(off_diagonal, diagonal - sigma, off_diagonal, y, overwrite_b=1)[3]
            y /= np.linalg.norm(y)
            sigma = quotient(s * y)
            if previous is not None and abs(sigma - previous) <= _STEP_TOLERANCE * abs(sigma):
                break
            previous = sigma
        levels[k] = sigma

    def count(vl: float, vu: float) -> int:
        # an infinite tolerance counts the levels in (vl, vu] without bisecting
        return int(dstebz(diagonal, off_diagonal, 1, vl, vu, 0, 0, math.inf, b"E")[0])

    # Windows that each hold one level, and no level below the top one
    # besides them, give every level its index: one count per window, one
    # for the whole range.
    window = RELATIVE_WINDOW * np.abs(levels)
    lo, hi = levels - window, levels + window
    for k in range(levels.size):
        if (k and lo[k] <= hi[k - 1]) or count(lo[k], hi[k]) != 1:
            raise GridConvergenceError(
                f"refined level {levels[k]} at index {k + 1} is not alone in its Sturm window")
    if levels.size and count(-math.inf, hi[-1]) != levels.size:
        raise GridConvergenceError(
            f"the {levels.size} refined levels are not the lowest of the pencil by Sturm count")
    return levels


def _two_grid_levels(j: float, n_max: int, grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """Levels of the q = 1 pencil on ``grid`` and on its refinement.

    Sturm bisection solves a seed grid with the same endpoints and an
    eighth of the points; its bound levels, within about 1e-3 of the
    coarse ones and far inside their spacing, seed the coarse levels, and
    those seed the fine ones."""
    seed_grid = replace(grid, points=max(100, grid.points // 8))
    seeds = bound_eigenvalues(discretize_h0(j, _COULOMB_UNITS, seed_grid), n_max)
    coarse = bound_eigenvalues(discretize_h0(j, _COULOMB_UNITS, grid), n_max, seeds[seeds < 0.0])
    fine = bound_eigenvalues(discretize_h0(j, _COULOMB_UNITS, grid.refined()), n_max, coarse)
    return coarse, fine


def oracle_regular_spectrum(
    j: float,
    params: PhysicalParams,
    n_max: int,
    grid: RadialGrid = DEFAULT_GRID,
) -> list[OracleEigenvalue]:
    """The n_max most-bound levels of the regular problem as kappa values,
    Richardson-extrapolated from ``grid`` and its half-step refinement.

    H0 is scale-covariant: with r = rho/q, q = m_e eta', its levels are
    q^2 times those at q = 1.  So the pencil is solved at q = 1, ``grid``
    is read in Coulomb lengths 1/q, and kappa = q kappa_1.  Only negative
    eigenvalues (genuine bound states) are returned, so the list may be
    shorter than n_max; with eta' = 0 it is empty.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    q = params.m_e * params.eta_prime
    if q == 0.0:
        return []
    if not math.isfinite(q):
        raise ValueError("m_e eta' is beyond the float range")
    coarse, fine = _two_grid_levels(j, n_max, grid)
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
                kappa=q * math.sqrt(-eps), index=index + 1, grid=grid, two_grid_gap=gap
            )
        )
    return results
