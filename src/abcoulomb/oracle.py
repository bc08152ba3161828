"""Independent finite-difference eigensolver for the radial operator

    H0 = -(1/r) d/dr (r d/dr) + j^2/r^2 - 2 q/r

used to cross-check the closed-form and secular spectra.

On a logarithmic grid (y = ln r, unknown F itself) the operator
becomes -F_yy + (j^2 - 2 q e^y) F = eps e^{2y} F: a generalized
symmetric-definite problem A F = eps M F with tridiagonal A and diagonal
mass M = r^2 carrying the r dr measure.  The inner boundary eliminates
the ghost point through the regular origin behavior
r^{|j|} (1 - 2 q r / (2|j| + 1)); the outer boundary is Dirichlet.
Bound eigenvalues eps = -kappa^2 are the lowest levels of the
symmetrised tridiagonal T = M^{-1/2} A M^{-1/2}.  The problem is solved in
Coulomb units, q = 1, and scaled, in a box that ends at max(35, 5t) t
for t = n_max - 1/2 + |j| and so holds every level asked for.  The
coarsest grid steps COARSE_STEP / t in ln r, on at most BASE_POINTS
nodes: the grid error of the top level is a function of t h.  The
closed-form ladder eps_k = -1/(k - 1/2 + |j|)^2 seeds Rayleigh-quotient
inverse iteration (LAPACK gtsv solves of T - sigma) on that grid, and the
h^2 extrapolation of the grids before seeds it on the half-step
refinement and on the next halving.  Each refined grid starts from the
coarser grid's eigenvectors, interpolated onto its nodes, and every solve
stops once its own residual is at rounding, so the two finer grids take
one solve per level.  Each level's last solve also gives it a residual
ball that holds an eigenvalue of T, and one Sturm count per grid
certifies every level by index, so a wrong seed can only be refused:
when the balls lie apart and exactly as many eigenvalues as levels lie
at or below the top ball, they are the lowest, one in each ball.  By
Sylvester's law of inertia the eigenvalues of T below x are the
nonpositive pivots of the LDL^T factorization of T - x, which LAPACK's
dpttrf computes until it meets one and resumes after it.  Romberg's
scheme combines the three grids to cancel the O(h^2) and O(h^4)
discretization errors.  Exactly n_max levels are returned, each with a
gap between its two finest grids within TWO_GRID_AGREEMENT, or
GridConvergenceError is raised; each carries its finest-grid ball's
relative radius.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .model import PhysicalParams

__all__ = [
    "GridConvergenceError",
    "RadialGrid",
    "OracleEigenvalue",
    "TridiagonalOperator",
    "discretize_h0",
    "bound_eigenvalues",
    "oracle_regular_spectrum",
]

# Two-grid accuracy bound: a level is returned only when its values on the
# two finest grids differ by at most this relative gap.  Swept over 31 |j|
# from 0 to 45 and n_max <= 50 on the derived grids, every level returned
# under this bound is within 1.6e-7 of the ladder up to |j| = 30 and within
# 2.6e-7 up to |j| = 45, and the oracle returns up to n_max = 36 at
# |j| < 1/2, 34 at |j| = 2.4, 32 at 6, 29 at 12, 24 at 30 and 22 at 45.
# Those worst levels and reach edges all lie on capped grids, of
# BASE_POINTS nodes, whose finest step is 1.67 times that of two-grid
# Richardson on 4 000 and 7 999 points, so their gaps are 2.78 times
# larger: under 3 times that scheme's bound of 1e-3, every call it answered
# is answered.  On the grids below the cap the gaps reach 2.3e-4, and the
# levels lie within 8.6e-10 of the ladder (the floor of r_min at j = 0).
TWO_GRID_AGREEMENT = 3e-3

# The most nodes of the coarsest of the three grids, at which the other two
# have 2 399 and 4 797, each halving the step of the one before: the step
# the reach edges above need.
BASE_POINTS = 1200
# The coarsest grid's step in ln r is COARSE_STEP / t, t = n_max - 1/2 + |j|,
# where that takes fewer than BASE_POINTS nodes
COARSE_STEP = 0.15
# The fewest nodes of a RadialGrid
MIN_POINTS = 100

# The least relative margin above the top level of a grid at which its one
# Sturm count is taken, when the top level's residual ball is narrower.
RELATIVE_WINDOW = 1e-9
# The most solves of T - sigma that inverse iteration takes for one level.
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
    """A requested level is unbound, uncertified or unconverged on the three grids."""


@dataclass(frozen=True)
class RadialGrid:
    """Logarithmically spaced nodes from r_min to r_max."""

    r_min: float
    r_max: float
    points: int

    def __post_init__(self) -> None:
        for name in ("r_min", "r_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError(f"need 0 < r_min < r_max, got ({self.r_min}, {self.r_max})")
        # an integer count keeps refined() at 2 points - 1, whose nodes nest
        if not isinstance(self.points, numbers.Integral) or isinstance(self.points, bool):
            raise ValueError(f"points must be an integer, got {self.points!r}")
        if self.points < MIN_POINTS:
            raise ValueError(f"points must be >= {MIN_POINTS}, got {self.points}")

    def nodes(self) -> np.ndarray:
        return np.geomspace(self.r_min, self.r_max, self.points)

    def refined(self) -> "RadialGrid":
        """Same endpoints, half the mesh step.  Its nodes() nest bit for
        bit: every other one is a node of this grid, as np.geomspace's step
        in log10 r is this grid's halved exactly."""
        return replace(self, points=2 * self.points - 1)


@dataclass(frozen=True)
class OracleEigenvalue:
    kappa: float
    index: int
    # the coarsest of the three grids, in Coulomb lengths 1/q, the
    # units the pencils are solved in
    grid: RadialGrid
    # |eps_fine - eps_middle| / |eps_fine| on the two finest grids, the
    # quantity held below TWO_GRID_AGREEMENT
    two_grid_gap: float
    # rho / |eps_fine|: the finest grid's eigenvalue of this index lies
    # within its residual ball, this relative radius, of eps_fine
    residual_bound: float


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Generalized pencil (A, M): symmetric tridiagonal stiffness A and
    positive diagonal mass M representing H0 in the r dr measure."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray
    mass: np.ndarray


def discretize_h0(j: float, grid: RadialGrid,
                  log_nodes: np.ndarray | None = None) -> TridiagonalOperator:
    """Finite-difference pencil whose generalized eigenvalues approximate
    the spectrum of H0 at q = 1, ``grid`` in Coulomb lengths, with
    the regular boundary behavior at r_min and Dirichlet at r_max.
    ``log_nodes``, when given, is np.log(grid.nodes()), taken once for
    grids that share their nodes."""
    aj = abs(j)
    y = np.log(grid.nodes()) if log_nodes is None else log_nodes
    h = y[1] - y[0]
    r = np.exp(y[:-1])  # unknowns on all nodes but the Dirichlet outer one
    diag = 2.0 / h**2 + j * j - 2.0 * r
    # Ghost elimination at the innermost node from F ~ r^{|j|} (1 + c1 r),
    # c1 = -2/(2|j|+1); only the first diagonal entry changes.
    c1 = -2.0 / (2.0 * aj + 1.0)
    r0 = r[0]
    ghost_ratio = math.exp(-aj * h) * (1.0 + c1 * r0 * math.exp(-h)) / (1.0 + c1 * r0)
    diag[0] = (2.0 - ghost_ratio) / h**2 + j * j - 2.0 * r0
    off = np.full(len(r) - 1, -1.0 / h**2)
    return TridiagonalOperator(diagonal=diag, off_diagonal=off, mass=r * r)


def bound_eigenvalues(op: TridiagonalOperator, seeds: np.ndarray,
                      vectors: np.ndarray | None = None,
                      radii: np.ndarray | None = None) -> np.ndarray:
    """The len(seeds) lowest generalized eigenvalues of (A, M), ascending, on
    the congruent s A s, s = M^{-1/2}, from an ascending estimate of each.

    Every seed is refined by Rayleigh-quotient inverse iteration and the
    results certified, each within its residual ball, by one Sturm count;
    a level that does not converge or certify raises GridConvergenceError.
    The count holds its pivots at least tiny * (largest squared entry) from
    zero, and so resolves levels only to that; a pencil where it overflows
    or exceeds the levels' rounding raises ValueError.

    Each level's iteration starts from its row of ``vectors``, a
    (len(seeds), n) array in the coordinates of T, y = M^{1/2} f, which is
    overwritten with the levels' unit eigenvectors; without it every level
    starts from a constant vector.  ``radii``, when given, is overwritten
    with the radius of each level's ball: the eigenvalue of T of its index
    lies within it."""
    s = 1.0 / np.sqrt(op.mass)
    tiny = np.finfo(float).tiny
    with np.errstate(over="ignore"):
        diagonal, off_diagonal = op.diagonal * s * s, op.off_diagonal * s[:-1] * s[1:]
    # squared as a product: a float's ** raises OverflowError, and the
    # reductions carry a nan through to the isfinite test
    largest = float(np.abs(off_diagonal).max(initial=np.abs(diagonal).max(initial=1.0)))
    floor = tiny * (largest * largest)
    if math.isfinite(floor):
        seeds = np.asarray(seeds, dtype=float)
        if vectors is None:
            vectors = np.ones((seeds.size, diagonal.size))
        if radii is None:
            radii = np.empty(seeds.size)
        # |z| overflows where T - sigma is singular in floats, which _refine
        # refuses
        with np.errstate(over="ignore"):
            vals = _refine(op, diagonal, off_diagonal, s, seeds, vectors, radii)
        _certify(diagonal, off_diagonal, vals, radii, floor)
        if vals.size == 0 or floor <= np.finfo(float).eps * np.min(np.abs(vals)):
            return vals
    raise ValueError(f"r_min = {math.sqrt(op.mass[0]):.3g} is too small: Sturm "
                     f"counts resolve this pencil's levels only to {floor:.3g}")


def _refine(op: TridiagonalOperator, diagonal: np.ndarray, off_diagonal: np.ndarray,
            s: np.ndarray, seeds: np.ndarray, vectors: np.ndarray,
            radii: np.ndarray) -> np.ndarray:
    """Rayleigh-quotient inverse iteration on T = s A s from each seed and
    its row of ``vectors``, which is overwritten with the unit eigenvector,
    and each level's ball radius in ``radii``.

    Each seed is first scaled by the ratio of the level below to its own
    seed: the grid shifts neighbouring levels alike, and on a coarse grid
    that shift reaches a third of the level spacing at high levels, enough
    to draw an unscaled seed to the level above.

    A solve z = (T - sigma0)^{-1} y of a unit y gives y' = z/|z| with
    (T - sigma0) y' = y/|z|, whose part normal to y' is the residual at
    y''s own quotient: sin(y, z)/|z|, which <y, z> and |z| give without
    another pass.  Iteration stops once that is at most sqrt(eps) |sigma|:
    the quotient's error, of the order of the residual squared over the
    gap, is then at rounding.  Started from the coarser grid's eigenvector,
    a refined level gets there in one solve.  A level that does not within
    _MAX_ITERATIONS solves, or whose solve overflows (T - sigma singular to
    working precision, as at |j| ~ 1e30), raises GridConvergenceError.

    The ball, to first order in eps.  gtsv, elimination with partial
    pivoting, whose growth on a tridiagonal matrix is at most 2, returns
    the z of T - sigma0 + E for an E within a few eps of |T - sigma0| row
    by row, and rounding y' and forming T's entries from s A s add a few
    eps more of |T|: y' is exactly what the iteration above makes of T + E,
    |E| <= 12 eps |T - sigma0|.  So

    - by the residual theorem (Parlett, The Symmetric Eigenvalue Problem,
      4-5), T + E has an eigenvalue within sin(y, z)/|z| of y''s quotient
      on T + E;
    - that quotient, and the eigenvalue of T + E near it, are each within
      |y'^T E y'| <= 12 eps (|y'|^T |T| |y'| + |sigma0|) of their
      counterparts on T;
    - sin(y, z) squared is the computed 1 - cos^2 to within 4 (n + 6) eps,
      n the rows, counting the dot products' worst-case rounding and y's
      own length;
    - sigma is y''s quotient on T to within (2 n + 16) eps sum_i u_i y'_i^2,
      u_i row i of |A| over the mass with its couplings counted three
      times, which bounds the absolute terms of the difference form's sums
      and |sigma| (each rounded by at most n eps) and the row sums'
      rounding;
    - |y'|^T |T| |y'| <= sum_i u_i y'_i^2 too, as 2 |y_i y_{i+1}| / sqrt(m_i
      m_{i+1}) <= y_i^2 / m_i + y_{i+1}^2 / m_{i+1}.

    So T has an eigenvalue within

        rho = sqrt(max(0, 1 - cos^2) + 4 (n + 6) eps) / |z|
              + eps ((2 n + 40) sum_i u_i y'_i^2 + 24 |sigma0|)

    of sigma, u built once per pencil and its sum one product per level.
    The normwise residual |(T - sigma) y'|, which the residual theorem
    takes alone, would charge E's share at the innermost rows, where T
    reaches 1/(h r_min)^2, as eps | |T| |y'| |: 3e15 on a 100-point grid
    from r_min = 1e-30, where y' is still accurate entry by entry and its
    quotient to rounding.  ``_certify`` labels the levels from their
    balls."""
    from scipy.linalg.lapack import dgtsv

    # The quotient f^T A f / f^T M f, f = s y, in difference form: the
    # couplings as squared differences plus the row sums of A, which are
    # the potential and the boundary terms.  The naive y^T T y on the
    # graded T loses up to about 5e-10 to cancellation.
    b = op.off_diagonal
    minus_b = -b
    row_sums = op.diagonal.copy()
    row_sums[:-1] += b
    row_sums[1:] += b

    def quotient(f: np.ndarray) -> float:
        df = f[1:] - f[:-1]
        return float((np.dot(minus_b * df, df) + np.dot(row_sums * f, f)) / np.dot(op.mass * f, f))

    # u above, the per-row weights of the balls' rounding term
    u = np.abs(op.diagonal)
    thrice = 3.0 * np.abs(b)
    u[:-1] += thrice
    u[1:] += thrice
    u /= op.mass

    n = u.size
    eps = np.finfo(float).eps
    sine_floor = 4.0 * (n + 6) * eps
    rounding = (2.0 * n + 40.0) * eps
    levels = np.empty(seeds.size)
    ratio = 1.0
    for k, seed in enumerate(seeds):
        sigma = ratio * seed
        y = vectors[k] / math.sqrt(np.dot(vectors[k], vectors[k]))
        for _ in range(_MAX_ITERATIONS):
            shift = sigma
            z = dgtsv(off_diagonal, diagonal - shift, off_diagonal, y, overwrite_d=1)[3]
            size = math.sqrt(np.dot(z, z))
            if not math.isfinite(size):
                raise GridConvergenceError(f"the solve for the level at index {k + 1} overflows: "
                                           f"T - sigma is singular in floats at sigma = {shift:.6g}")
            cosine = np.dot(y, z) / size
            y = z / size
            sigma = quotient(s * y)
            # 1 - cos^2 is good to a few eps, far below the bound once sigma
            # is near a level, where |sigma| |z| is large; squared as a
            # product, which is inf where a float's ** would raise
            if 1.0 - cosine * cosine <= eps * ((sigma * size) * (sigma * size)):
                break
        else:
            raise GridConvergenceError(f"the level at index {k + 1} has not converged "
                                       f"after {_MAX_ITERATIONS} solves")
        vectors[k] = y
        levels[k] = sigma
        ratio = sigma / seed
        radii[k] = (math.sqrt(max(0.0, 1.0 - cosine * cosine) + sine_floor) / size
                    + rounding * np.dot(u, y * y) + 24.0 * eps * abs(shift))
    return levels


def _certify(diagonal: np.ndarray, off_diagonal: np.ndarray, levels: np.ndarray,
             radii: np.ndarray, pivmin: float) -> None:
    """GridConvergenceError unless each of the ``levels`` is the eigenvalue
    of T of its own index.  Each ball levels[k] +- radii[k] holds an
    eigenvalue of T; when the balls ascend apart and one Sturm count finds
    exactly as many eigenvalues as levels at or below the top ball, widened
    to at least RELATIVE_WINDOW of its level, those are the lowest, one in
    each ball.  So no eigenvalue below the top level goes unreturned."""
    if not levels.size:
        return
    apart = levels[1:] - radii[1:] > levels[:-1] + radii[:-1]
    if not np.all(apart):
        k = int(np.argmin(apart)) + 1
        raise GridConvergenceError(f"the residual balls of the refined levels at "
                                   f"index {k} and {k + 1} overlap")
    top = levels[-1] + max(radii[-1], RELATIVE_WINDOW * abs(levels[-1]))
    below = _sturm_count(diagonal, off_diagonal, top, pivmin)
    if below != levels.size:
        raise GridConvergenceError(
            f"the refined levels are not the lowest {levels.size} of the pencil: a Sturm count "
            f"puts {below} at or below the top one's ball")


def _sturm_count(diagonal: np.ndarray, off_diagonal: np.ndarray, x: float,
                 pivmin: float) -> int:
    """The eigenvalues of the symmetric tridiagonal T at or below x: by
    Sylvester's law of inertia, the nonpositive pivots of the LDL^T
    factorization of T - x.

    LAPACK's dpttrf factors T - x until its first nonpositive pivot p and
    reports that row; the count takes it, gives the next row the pivot
    recurrence's shifted diagonal with p held at or below -pivmin (the
    guard of LAPACK's own Sturm counts, so that an exact zero divides by
    no zero), and resumes dpttrf on the rows after it.  One pass over the
    rows in all, plus one call per eigenvalue below x."""
    from scipy.linalg.lapack import dpttrf

    shifted = diagonal - x
    scratch = off_diagonal.copy()  # dpttrf overwrites the couplings it passes
    below = start = 0
    last = shifted.size - 1
    while start < last:
        pivots, _, info = dpttrf(shifted[start:], scratch[start:], 1, 1)
        if not info:
            return below
        below += 1
        row = start + info - 1
        if row == last:
            return below
        shifted[row + 1] -= off_diagonal[row] ** 2 / min(pivots[info - 1], -pivmin)
        start = row + 1
    # dpttrf takes no single row
    return below + int(shifted[last] <= 0.0)


def _ladder_seeds(j: float, n_max: int) -> np.ndarray:
    """The closed-form regular levels eps_k = -1/(k - 1/2 + |j|)^2,
    k = 1..n_max, of H0 at q = 1."""
    return -1.0 / np.square(np.arange(1, n_max + 1) - 0.5 + abs(j))


def _prolong(vectors: np.ndarray) -> np.ndarray:
    """Rows of values on a grid's unknowns, linearly interpolated in ln r
    onto the unknowns of its half-step refinement: the even nodes are the
    coarse nodes, and the last odd node lies beside the Dirichlet zero."""
    fine = np.empty((vectors.shape[0], 2 * vectors.shape[1]))
    fine[:, ::2] = vectors
    fine[:, 1:-1:2] = 0.5 * (vectors[:, :-1] + vectors[:, 1:])
    fine[:, -1] = 0.5 * vectors[:, -1]
    return fine


def _coarse_grid(j: float, n_max: int) -> RadialGrid:
    """The coarsest of the three grids for the n_max lowest levels at j, in
    Coulomb lengths: from 1e-5 to max(35, 5t) t, t = n_max - 1/2 + |j|, with
    a step in ln r of COARSE_STEP / t, at least MIN_POINTS nodes and at most
    BASE_POINTS.  The Romberg error and the two-grid gap of the top level
    are functions of t h, h the step in ln r, so the step shrinks with the
    highest level asked for.  A j whose box leaves the float range raises
    ValueError."""
    t = n_max - 0.5 + abs(j)
    r_min, r_max = 1e-5, max(35.0, 5.0 * t) * t
    if not math.isfinite(r_max * r_max):  # the mass r^2 at the box's end
        raise ValueError(f"j = {j} is beyond the float range: the box ends at "
                         f"{r_max:.3g} Coulomb lengths, and the pencil's mass there overflows")
    points = math.ceil(t * math.log(r_max / r_min) / COARSE_STEP) + 1
    return RadialGrid(r_min=r_min, r_max=r_max, points=min(BASE_POINTS, max(MIN_POINTS, points)))


def _three_grid_levels(
        j: float, n_max: int, grid: RadialGrid,
        radii: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n_max lowest levels of the q = 1 pencil on ``grid`` and on its
    two successive halvings of the step, each bound on all three, with the
    two finest within TWO_GRID_AGREEMENT of each other, or
    GridConvergenceError; ``radii``, when given, is overwritten with the
    finest grid's ball radii.

    The closed-form ladder seeds the coarsest levels.  The grid error goes
    as h^2, so the middle grid is seeded a quarter of the way from the
    coarsest levels to the ladder, coarse + 3/4 (ladder - coarse), and the
    finest a quarter of the step between the two before beyond the middle,
    middle + 1/4 (middle - coarse); each refined grid starts from the
    coarser grid's eigenvectors.  All are certified by a Sturm count, so a
    seed far from its level can only make the oracle refuse, never
    mislabel a level.  The grids' nodes nest, so ln r is taken once, on the
    finest, and sliced for the other two."""
    ladder = _ladder_seeds(j, n_max)
    halved = grid.refined()
    finest = halved.refined()
    y = np.log(finest.nodes())

    def solve(g: RadialGrid, stride: int, seeds: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        return bound_eigenvalues(discretize_h0(j, g, log_nodes=y[::stride]), seeds, vectors, radii)

    vectors = np.ones((n_max, grid.points - 1))
    coarse = solve(grid, 4, ladder, vectors)
    vectors = _prolong(vectors)
    middle = solve(halved, 2, coarse + 0.75 * (ladder - coarse), vectors)
    fine = solve(finest, 1, middle + 0.25 * (middle - coarse), _prolong(vectors))
    levels = (coarse, middle, fine)
    resolved = np.max(levels, axis=0) < 0.0
    resolved &= np.abs(fine - middle) <= TWO_GRID_AGREEMENT * np.abs(fine)
    if not np.all(resolved):
        index = int(np.argmin(resolved))  # the first level not resolved
        raise GridConvergenceError(f"the level at index {index + 1} is not bound on all three "
                                   f"grids within a two-grid gap of {TWO_GRID_AGREEMENT}")
    return coarse, middle, fine


def oracle_regular_spectrum(j: float, params: PhysicalParams, n_max: int) -> list[OracleEigenvalue]:
    """The n_max most-bound levels of the regular problem as kappa values,
    Romberg-extrapolated from a grid and its two successive half-step
    refinements.

    H0 is scale-covariant: with r = rho/q, q = m_e eta/hbar^2, its levels are
    q^2 times those at q = 1.  So the pencil is solved at q = 1 and
    kappa = q kappa_1.  For every extension t_n <= n - 1/2 + |j|, so the
    grid ends at max(35, 5t) t Coulomb lengths 1/q, t = n_max - 1/2 + |j|,
    as ``build_profile``'s range does, and steps COARSE_STEP / t in ln r on
    at most BASE_POINTS nodes (``_coarse_grid``).  Exactly n_max levels are
    returned, or none with q = 0.  A non-integer n_max, a non-finite j, and
    a j whose box or pencil leaves the float range raise ValueError, as does
    an n_max above BASE_POINTS - 1, the most unknowns of the coarsest pencil.
    """
    if not isinstance(n_max, numbers.Integral) or isinstance(n_max, bool) or n_max < 1:
        raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")
    if n_max > BASE_POINTS - 1:
        raise ValueError(f"n_max = {n_max} exceeds the {BASE_POINTS - 1} unknowns "
                         "of the coarsest pencil")
    if not math.isfinite(j):
        raise ValueError(f"j must be finite, got {j}")
    q = params.q
    if q == 0.0:
        return []
    grid = _coarse_grid(j, n_max)
    radii = np.empty(n_max)
    try:
        coarse, middle, fine = _three_grid_levels(j, n_max, grid, radii)
    except ValueError as exc:  # the symmetrised pencil is beyond the Sturm counts' range
        raise ValueError(f"j = {j} is beyond the float range: {exc}") from exc
    gaps = np.abs(fine - middle) / np.abs(fine)
    bounds = radii / np.abs(fine)
    # Romberg: (4 f - m)/3 and (4 m - c)/3 cancel h^2, and their 16:-1
    # blend cancels h^4
    levels = (64.0 * fine - 20.0 * middle + coarse) / 45.0
    return [
        OracleEigenvalue(kappa=q * math.sqrt(-eps), index=index, grid=grid, two_grid_gap=float(gap),
                         residual_bound=float(bound))
        for index, (eps, gap, bound) in enumerate(zip(levels, gaps, bounds), start=1)
    ]
