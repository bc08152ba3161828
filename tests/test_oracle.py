import math
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstebz

from abcoulomb import oracle
from abcoulomb.model import FloatRangeError, PhysicalParams
from abcoulomb.oracle import (
    BASE_POINTS,
    MIN_POINTS,
    RELATIVE_WINDOW,
    TWO_GRID_AGREEMENT,
    GridConvergenceError,
    RadialGrid,
    _three_grid_levels,
    bound_eigenvalues,
    discretize_h0,
    oracle_regular_spectrum,
)

ATOMIC = PhysicalParams()
ROOT = pathlib.Path(__file__).resolve().parents[1]
# a fixed box of 200 Coulomb lengths on 4 000 points, which the
# discretisation and refinement tests build their pencils on
GRID = RadialGrid(r_min=1e-5, r_max=200.0, points=4000)


def _box(j, n_max, points=None):
    """The grid oracle_regular_spectrum derives for (j, n_max), or its box
    on ``points`` nodes."""
    grid = oracle._coarse_grid(j, n_max)
    return grid if points is None else replace(grid, points=points)


# a sweep of (j, n_max) over the ladder's regimes, whose derived grids run
# from MIN_POINTS nodes to the BASE_POINTS cap
SWEEP = [(j, n_max) for j in (0.0, 0.1, 0.3, 0.45, 0.75, 1.7, 2.4, 6.0, 12.0, 30.0, 45.0)
         for n_max in (1, 2, 3, 5, 8)]


def _benchmark_cases(monkeypatch):
    """The benchmark's 40 seed-1 oracle inputs, (j, n_max) pairs."""
    if str(ROOT) not in sys.path:
        monkeypatch.syspath_prepend(str(ROOT))
    from abbench.workloads import oracle_cases

    return [(case.j, case.n_max) for case in oracle_cases(1)]


def _romberg(j, n_max, grid):
    """The extrapolated levels of the three grids from ``grid``."""
    coarse, middle, fine = _three_grid_levels(j, n_max, grid)
    return (64.0 * fine - 20.0 * middle + coarse) / 45.0


def _bisected(op, n):
    """The n lowest generalized eigenvalues of (A, M) by Sturm bisection of
    the symmetrised T = s A s, s = M^{-1/2}, to full precision: the
    reference that inverse iteration is held to."""
    s = 1.0 / np.sqrt(op.mass)
    # tol=0 would mean eps * |T|_1, far above the levels of this graded T
    return eigh_tridiagonal(op.diagonal * s * s, op.off_diagonal * s[:-1] * s[1:],
                            eigvals_only=True, select="i", select_range=(0, n - 1),
                            lapack_driver="stebz", tol=np.finfo(float).tiny)


def _symmetrised(op):
    """The diagonal and couplings of T = s A s, s = M^{-1/2}, as
    bound_eigenvalues forms them."""
    s = 1.0 / np.sqrt(op.mass)
    return op.diagonal * s * s, op.off_diagonal * s[:-1] * s[1:]


def _pivmin(off_diagonal):
    """LAPACK dstebz's pivot guard, tiny * max(1, largest squared coupling)."""
    return np.finfo(float).tiny * max(1.0, float(np.max(np.square(off_diagonal))))


def _stebz_below(diagonal, off_diagonal, x, vl=-math.inf):
    """Eigenvalues of the tridiagonal T in (vl, x], by LAPACK dstebz: an
    infinite tolerance counts without bisecting."""
    return int(dstebz(diagonal, off_diagonal, 1, vl, x, 0, 0, math.inf, b"E")[0])


def _stebz_certify(diagonal, off_diagonal, levels):
    """The window certification the oracle made with dstebz before its
    counts became resumed dpttrf factorizations: windows apart, one
    eigenvalue in each window (vl, vu], and as many as levels below the top
    one."""
    window = RELATIVE_WINDOW * np.abs(levels)
    lo, hi = levels - window, levels + window
    for k in range(levels.size):
        if (k and lo[k] <= hi[k - 1]) or _stebz_below(diagonal, off_diagonal, hi[k], lo[k]) != 1:
            raise GridConvergenceError(f"level {k + 1} is not alone in its Sturm window")
    if levels.size and _stebz_below(diagonal, off_diagonal, hi[-1]) != levels.size:
        raise GridConvergenceError("the levels are not the lowest of the pencil")


def _count_below(op, eps):
    """Generalized eigenvalues of (A, M) below eps, by Sylvester's law of
    inertia: the negative pivots of the LDL^T of the unscaled A - eps M.

    In extended precision: in floats the pivots carry rounding of order
    1e-16 of a diagonal that reaches 7e6 on 31 993 points, as wide as the
    1e-9 windows the levels are held to, and the count missed the j = 0
    ground state there."""
    assert np.finfo(np.longdouble).eps <= 1e-18, "the Sturm count needs extended precision"
    shifted = op.diagonal.astype(np.longdouble) - np.longdouble(eps) * op.mass
    couplings = np.square(op.off_diagonal.astype(np.longdouble))
    pivot = shifted[0]
    negative = int(pivot < 0.0)
    for a, b2 in zip(shifted[1:], couplings):
        pivot = a - b2 / pivot
        negative += pivot < 0.0
    return negative


class TestRadialGrid:
    def test_box_follows_the_levels(self):
        # r_max = max(35, 5t) t Coulomb lengths, t = n_max - 1/2 + |j|, on a
        # step in ln r of 0.15 / t, between 100 and 1 200 nodes
        for j, n_max, points in [(0.0, 1, 100), (0.0, 2, 156), (0.3, 5, 534), (2.4, 1, 313),
                                 (0.3, 10, 1157), (-2.4, 9, 1200), (6.0, 7, 1200)]:
            t = n_max - 0.5 + abs(j)
            r_max = max(35.0, 5.0 * t) * t
            derived = math.ceil(t * math.log(r_max / 1e-5) / 0.15) + 1
            assert points == min(BASE_POINTS, max(MIN_POINTS, derived))
            for ev in oracle_regular_spectrum(j, ATOMIC, n_max):
                assert ev.grid == RadialGrid(r_min=1e-5, r_max=r_max, points=points)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialGrid(r_min=0.0, r_max=200.0, points=4000)
        with pytest.raises(ValueError):
            RadialGrid(r_min=2.0, r_max=1.0, points=4000)
        with pytest.raises(ValueError):
            RadialGrid(r_min=1e-5, r_max=200.0, points=10)

    @pytest.mark.parametrize("field, value", [
        ("r_min", np.nan), ("r_min", -np.inf), ("r_max", np.inf), ("r_max", np.nan),
        ("points", 150.5), ("points", 200.0), ("points", True), ("points", "200"),
    ])
    def test_field_refused_by_name(self, field, value):
        # an infinite r_max was accepted and failed in discretize_h0 with a
        # RuntimeWarning; 150.5 points failed in numpy, and 200.0 refined to
        # a float count of points
        with pytest.raises(ValueError, match=field):
            replace(GRID, **{field: value})

    def test_numpy_integer_points_accepted(self):
        assert RadialGrid(r_min=1e-5, r_max=200.0, points=np.int64(200)).refined().points == 399

    def test_refined_nodes_nest(self):
        # np.geomspace's step in log10 r on 2p - 1 points is the step on p
        # halved exactly, so the refinements' even nodes are the grid's
        # nodes bit for bit: the oracle takes ln r once, on its finest grid
        rng = np.random.default_rng(29)
        grids = [RadialGrid(r_min=10.0 ** rng.uniform(-30.0, 0.0),
                            r_max=10.0 ** rng.uniform(math.log10(17.0), 60.0), points=points)
                 for points in (100, BASE_POINTS) for _ in range(200)]
        derived = [_box(j, n_max) for j, n_max in SWEEP]
        for grid in grids + derived + [GRID, _box(0.3, 36), _box(45.0, 22)]:
            middle = grid.refined()
            fine = middle.refined()
            assert np.array_equal(middle.nodes()[::2], grid.nodes()), grid
            assert np.array_equal(fine.nodes()[::2], middle.nodes()), grid
            assert np.array_equal(fine.nodes()[::4], grid.nodes()), grid

    def test_refinement_halves_step(self):
        grid = replace(GRID, points=500)
        fine = grid.refined()
        h = np.diff(np.log(grid.nodes()))[0]
        h_fine = np.diff(np.log(fine.nodes()))[0]
        assert h_fine == pytest.approx(h / 2.0, rel=1e-12)


class TestDiscretization:
    def test_matrix_symmetric(self):
        # one off-diagonal array serves both sides of A, so A = A^T holds by
        # construction; its size, the entries and the mass must be sound
        op = discretize_h0(0.3, replace(GRID, points=300))
        assert op.off_diagonal.shape == (op.diagonal.size - 1,)
        assert op.mass.shape == op.diagonal.shape
        assert np.all(np.isfinite(op.diagonal)) and np.all(np.isfinite(op.off_diagonal))
        assert np.all(op.mass > 0.0)

    @pytest.mark.parametrize("j", [0.0, 0.3, -2.4, 45.0])
    def test_log_nodes_give_the_same_pencil(self, j):
        # given ln r, or a slice of the finest refinement's, the pencil is
        # the one discretize_h0 builds from the grid's own nodes
        grid = _box(j, 5)
        finest = np.log(grid.refined().refined().nodes())
        for log_nodes in (np.log(grid.nodes()), finest[::4]):
            given, own = discretize_h0(j, grid, log_nodes=log_nodes), discretize_h0(j, grid)
            for field in ("diagonal", "off_diagonal", "mass"):
                assert np.array_equal(getattr(given, field), getattr(own, field)), field

    def test_lowest_eigenvalue_matches_coulomb_ground(self):
        op = discretize_h0(0.0, GRID)
        assert _bisected(op, 1)[0] == pytest.approx(-4.0, rel=1e-4)

    @pytest.mark.parametrize(
        "grid",
        [GRID, GRID.refined(), RadialGrid(r_min=1e-30, r_max=1e6, points=100)],
        ids=["default", "refined", "coarse-36-decades"],
    )
    @pytest.mark.parametrize("j", [0.0, 0.3, -0.45, 1.7, 2.4])
    def test_levels_match_sturm_count(self, grid, j):
        # the k-th level has exactly k - 1 eigenvalues of the unscaled pencil
        # below it and k above it, to a relative 1e-9
        op = discretize_h0(j, grid)
        levels = _bisected(op, 5)
        assert len(levels) == 5
        for k, eps in enumerate(levels, start=1):
            assert _count_below(op, eps - 1e-9 * abs(eps)) == k - 1
            assert _count_below(op, eps + 1e-9 * abs(eps)) == k

    @pytest.mark.parametrize("r_min", [1e-80, 1e-160])
    def test_unrepresentable_pencil_refused(self, r_min):
        # the symmetrised entries reach 1/(h r_min)^2, whose squares overflow
        # or leave the Sturm counts blind to the levels
        op = discretize_h0(0.3, replace(GRID, r_min=r_min, points=400))
        with pytest.raises(ValueError, match="r_min"):
            bound_eigenvalues(op, np.array([-1.6, -0.5, -0.2]))


class TestRefinement:
    """The levels on oracle_regular_spectrum's three grids come from
    Rayleigh-quotient inverse iteration, seeded on the coarsest grid by the
    closed-form ladder and on each finer grid by the levels of the one
    before, each certified by Sturm counts."""

    @pytest.mark.parametrize("grid", [GRID, GRID.refined(), replace(GRID, points=BASE_POINTS)],
                             ids=["default", "refined", "base"])
    @pytest.mark.parametrize("j", [0.0, 0.3, -0.45, 1.7, 2.4])
    def test_refined_levels_match_sturm_count(self, grid, j):
        # as test_levels_match_sturm_count, on all three grids
        grids = (grid, grid.refined(), grid.refined().refined())
        for levels, g in zip(_three_grid_levels(j, 5, grid), grids, strict=True):
            op = discretize_h0(j, g)
            assert len(levels) == 5
            for k, eps in enumerate(levels, start=1):
                assert _count_below(op, eps - 1e-9 * abs(eps)) == k - 1
                assert _count_below(op, eps + 1e-9 * abs(eps)) == k

    @pytest.mark.parametrize("grid", [GRID, GRID.refined()],
                             ids=["default", "refined"])
    @pytest.mark.parametrize("j", [0.0, 0.3, -0.45, 1.7, 2.4])
    def test_refined_levels_agree_with_bisection(self, grid, j):
        # on the first two grids only: at j = 0 the 7 999-point grid already
        # reads 9.9e-11, as the bisection's rounding grows with the largest
        # entry of T
        for levels, g in zip(_three_grid_levels(j, 5, grid), (grid, grid.refined())):
            bisected = _bisected(discretize_h0(j, g), 5)
            assert np.max(np.abs(levels / bisected - 1.0)) <= 1e-10

    @pytest.mark.parametrize("j", [0.0, 0.3, -0.45, 1.7, 2.4])
    def test_unresolved_grid_refused(self, j):
        # a step of 0.8 in ln r: the coarse levels do not seed the fine ones,
        # and the counts refuse them rather than return unlabelled levels
        grid = RadialGrid(r_min=1e-30, r_max=1e6, points=100)
        with pytest.raises(GridConvergenceError):
            _three_grid_levels(j, 5, grid)

    @pytest.mark.parametrize("picks", [[1, 2], [1, 1]], ids=["shifted", "repeated"])
    def test_seed_at_wrong_level_refused(self, picks):
        op = discretize_h0(0.3, GRID)
        levels = _bisected(op, 3)
        assert bound_eigenvalues(op, levels) == pytest.approx(levels, rel=1e-10)
        with pytest.raises(GridConvergenceError, match="Sturm|overlap"):
            bound_eigenvalues(op, levels[picks])

    def test_unconverged_level_refused(self, monkeypatch):
        # the coarsest grid's constant start takes two solves a level, so
        # with one allowed the first level is refused by its index rather
        # than certified within its ball
        monkeypatch.setattr(oracle, "_MAX_ITERATIONS", 1)
        with pytest.raises(GridConvergenceError, match="index 1 has not converged after 1 solves"):
            oracle_regular_spectrum(0.3, ATOMIC, 3)

    def test_unrepresentable_pencil_refused_with_seeds(self):
        # the refusal holds for the closed-form ladder the oracle seeds with,
        # before any seed is refined
        op = discretize_h0(0.3, replace(GRID, r_min=1e-80, points=400))
        with pytest.raises(ValueError, match="r_min"):
            bound_eigenvalues(op, oracle._ladder_seeds(0.3, 3))


SEEDED_CASES = [(0.0, 5), (0.3, 5), (-0.45, 3), (1.7, 5), (2.4, 9), (0.3, 20)]


class TestLadderSeeds:
    """The closed-form ladder seeds the coarsest grid; the Sturm counts, not
    the seeds, decide which level is which."""

    @pytest.mark.parametrize("scale", [1 - 1e-3, 1 + 1e-3, 1 - 1e-2, 1 + 1e-2])
    @pytest.mark.parametrize("j, n_max", SEEDED_CASES)
    def test_perturbed_seeds_give_the_same_levels(self, monkeypatch, j, n_max, scale):
        grid = _box(j, n_max)
        expected = _three_grid_levels(j, n_max, grid)
        ladder = oracle._ladder_seeds
        monkeypatch.setattr(oracle, "_ladder_seeds", lambda j, n: scale * ladder(j, n))
        for levels, reference in zip(_three_grid_levels(j, n_max, grid), expected):
            assert np.max(np.abs(levels / reference - 1.0)) <= 1e-12

    @pytest.mark.parametrize("j, n_max", SEEDED_CASES)
    def test_seeds_one_level_up_refused(self, monkeypatch, j, n_max):
        # seeds for levels 2..n_max + 1 converge to those levels, which the
        # count from below refuses as not the lowest n_max
        ladder = oracle._ladder_seeds
        monkeypatch.setattr(oracle, "_ladder_seeds", lambda j, n: ladder(j, n + 1)[1:])
        with pytest.raises(GridConvergenceError, match="Sturm"):
            _three_grid_levels(j, n_max, _box(j, n_max))

    @pytest.mark.parametrize("n_max", [5, 20, 35, 50, 70])
    @pytest.mark.parametrize("j", [0.0, 0.3, 0.49, 2.4, 12.0, 30.0])
    def test_every_returned_level_on_the_ladder(self, j, n_max):
        # right or refused: whatever is returned is within the oracle's 1e-6
        # of the closed form, and nothing up to n_max = 20 is refused
        try:
            evs = oracle_regular_spectrum(j, ATOMIC, n_max)
        except GridConvergenceError:
            assert n_max > 20
            return
        assert [ev.index for ev in evs] == list(range(1, n_max + 1))
        for ev in evs:
            assert ev.two_grid_gap <= TWO_GRID_AGREEMENT
            assert ev.kappa == pytest.approx(1.0 / (ev.index - 0.5 + abs(j)), rel=1e-6)

    def test_solves_per_level_on_each_grid(self, monkeypatch):
        # on the benchmark's 40 seed-1 oracle inputs, 120 levels: started
        # from the coarser grid's eigenvector and the h^2 extrapolation of
        # the grids before, inverse iteration on each refined grid meets its
        # residual bound after one solve of T - sigma on every level.  The
        # coarsest grid starts from a constant vector and takes two solves a
        # level.  Seeded by the coarser grid's levels alone, the middle grid
        # took 134; with constant starts and a stop on the quotient's step
        # the three grids took 246, 241 and 240 solves
        solves = []
        dgtsv = scipy.linalg.lapack.dgtsv

        def counted_dgtsv(*args, **kwargs):
            solves[-1] += 1
            return dgtsv(*args, **kwargs)

        def counted_bound_eigenvalues(op, seeds, *out):
            solves.append(0)
            return bound_eigenvalues(op, seeds, *out)

        cases = _benchmark_cases(monkeypatch)
        monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", counted_dgtsv)
        monkeypatch.setattr(oracle, "bound_eigenvalues", counted_bound_eigenvalues)
        assert len(cases) == 40
        totals = np.zeros(3, dtype=int)
        for j, n_max in cases:
            del solves[:]
            oracle_regular_spectrum(j, ATOMIC, n_max)
            assert len(solves) == 3 and solves[1] == solves[2] == n_max, (j, n_max, solves)
            totals += solves
        assert sum(n_max for _, n_max in cases) == 120
        assert totals.tolist() == [240, 120, 120]

    def test_one_node_array_and_three_pencils(self, monkeypatch):
        # the grids' nodes are taken once, on the finest grid, and each of
        # the three pencils is built by the module's discretize_h0, which
        # the benchmark's tracer counts
        pencils, nodes = [], []
        own_nodes = RadialGrid.nodes

        def counted_discretize_h0(j, grid, **kwargs):
            pencils.append(grid.points)
            assert kwargs["log_nodes"].size == grid.points
            return discretize_h0(j, grid, **kwargs)

        def counted_nodes(grid):
            nodes.append(grid.points)
            return own_nodes(grid)

        monkeypatch.setattr(oracle, "discretize_h0", counted_discretize_h0)
        monkeypatch.setattr(RadialGrid, "nodes", counted_nodes)
        for j, n_max in [(0.3, 5), (-2.4, 9)]:
            del pencils[:], nodes[:]
            grid = _box(j, n_max)
            _three_grid_levels(j, n_max, grid)
            p = grid.points
            assert pencils == [p, 2 * p - 1, 4 * p - 3]
            assert nodes == [4 * p - 3]

    def test_one_sturm_count_per_grid(self, monkeypatch):
        # the balls need one count at the top level of each grid, whatever
        # the number of levels: 120 over the 40 seed-1 inputs, where the
        # window certification took two a level, 240 on each of the grids
        counts = []
        sturm_count = oracle._sturm_count

        def counted_sturm_count(*args):
            counts[-1] += 1
            return sturm_count(*args)

        def counted_bound_eigenvalues(op, seeds, *out):
            counts.append(0)
            return bound_eigenvalues(op, seeds, *out)

        cases = _benchmark_cases(monkeypatch)
        monkeypatch.setattr(oracle, "_sturm_count", counted_sturm_count)
        monkeypatch.setattr(oracle, "bound_eigenvalues", counted_bound_eigenvalues)
        for j, n_max in cases:
            oracle_regular_spectrum(j, ATOMIC, n_max)
        assert counts == [1] * (3 * len(cases)) and sum(counts) == 120

    def test_warm_starts_give_the_cold_levels(self, monkeypatch):
        # on every grid, the levels started from the coarser grid's
        # eigenvectors are those of constant starts from the same seeds
        gaps = []

        def warm_and_cold(op, seeds, *out):
            warm = bound_eigenvalues(op, seeds, *out)
            gaps.append(np.max(np.abs(warm / bound_eigenvalues(op, seeds) - 1.0)))
            return warm

        cases = SEEDED_CASES + _benchmark_cases(monkeypatch)
        monkeypatch.setattr(oracle, "bound_eigenvalues", warm_and_cold)
        for j, n_max in cases:
            _three_grid_levels(j, n_max, _box(j, n_max))
        assert len(gaps) == 3 * len(cases)
        assert max(gaps) <= 1e-14


class TestSturmCount:
    """oracle._sturm_count, the eigenvalues of T at or below a shift as the
    nonpositive pivots of resumed dpttrf factorizations, against the
    extended-precision pivots of the unscaled pencil and against dstebz."""

    @pytest.mark.parametrize("j, n_max", [(0.0, 5), (0.3, 5), (-0.45, 5), (1.7, 5), (2.4, 5),
                                          (0.3, 36)])
    def test_window_counts_match_references(self, j, n_max):
        grid = _box(j, n_max)
        grids = (grid, grid.refined(), grid.refined().refined())
        for levels, g in zip(_three_grid_levels(j, n_max, grid), grids, strict=True):
            op = discretize_h0(j, g)
            diagonal, off_diagonal = _symmetrised(op)
            pivmin = _pivmin(off_diagonal)
            for k, eps in enumerate(levels, start=1):
                for x, expected in ((eps - RELATIVE_WINDOW * abs(eps), k - 1),
                                    (eps + RELATIVE_WINDOW * abs(eps), k)):
                    count = oracle._sturm_count(diagonal, off_diagonal, x, pivmin)
                    assert count == expected, (g, k, x)
                    assert _stebz_below(diagonal, off_diagonal, x) == count
                    assert _count_below(op, x) == count

    @pytest.mark.parametrize("j", [0.0, 0.3, 2.4])
    def test_outside_the_bound_levels(self, j):
        # below the spectrum nothing; at 0 every negative eigenvalue of the
        # box, more than the bound levels the oracle asks for
        op = discretize_h0(j, _box(j, 5))
        diagonal, off_diagonal = _symmetrised(op)
        pivmin = _pivmin(off_diagonal)
        ground = _bisected(op, 1)[0]
        assert oracle._sturm_count(diagonal, off_diagonal, 2.0 * ground, pivmin) == 0
        assert _stebz_below(diagonal, off_diagonal, 2.0 * ground) == 0
        negative = oracle._sturm_count(diagonal, off_diagonal, 0.0, pivmin)
        assert negative > 5
        assert negative == _stebz_below(diagonal, off_diagonal, 0.0) == _count_below(op, 0.0)

    def test_only_the_last_pivot_nonpositive(self):
        # between the lowest eigenvalues of the discrete Laplacian and of its
        # leading block (interlacing), every pivot but the last is positive
        diagonal, off_diagonal = np.full(10, 2.0), np.full(9, -1.0)
        lowest = 2.0 - 2.0 * np.cos(np.pi / np.array([11.0, 10.0]))
        x = float(np.mean(lowest))
        pivots = [diagonal[0] - x]
        for a, b in zip(diagonal[1:], off_diagonal):
            pivots.append(a - x - b * b / pivots[-1])
        assert min(pivots[:-1]) > 0.0 >= pivots[-1]
        assert oracle._sturm_count(diagonal, off_diagonal, x, _pivmin(off_diagonal)) == 1
        assert _stebz_below(diagonal, off_diagonal, x) == 1

    @pytest.mark.parametrize("diagonal, expected", [([1.0, 1.0, 1.0, -1.0, -1.0], 2),
                                                    ([-1.0] * 4, 4), ([3.0, -2.0, 5.0], 1)],
                             ids=["last-two", "every-row", "middle"])
    def test_uncoupled_rows(self, diagonal, expected):
        # zero couplings: the count is the nonpositive diagonal entries,
        # read through restarts that leave one row, or none, to dpttrf
        diagonal = np.array(diagonal)
        off_diagonal = np.zeros(diagonal.size - 1)
        assert oracle._sturm_count(diagonal, off_diagonal, 0.0, _pivmin(off_diagonal)) == expected
        assert _stebz_below(diagonal, off_diagonal, 0.0) == expected

    def test_exactly_zero_pivot_guarded(self):
        # the leading 2 x 2 block is singular, so the second pivot is an
        # exact zero: the guard takes it as -pivmin, and the third row's
        # pivot is large and positive.  T has one negative eigenvalue (its
        # determinant is -1) and none at 0
        diagonal, off_diagonal = np.array([1.0, 1.0, 2.0]), np.array([1.0, 1.0])
        assert diagonal[1] - off_diagonal[0] ** 2 / diagonal[0] == 0.0
        pivmin = _pivmin(off_diagonal)
        assert oracle._sturm_count(diagonal, off_diagonal, 0.0, pivmin) == 1
        assert _stebz_below(diagonal, off_diagonal, 0.0) == 1
        assert np.sum(np.linalg.eigvalsh(np.diag(diagonal) + np.diag(off_diagonal, 1)
                                         + np.diag(off_diagonal, -1)) <= 0.0) == 1


class TestCertification:
    """The residual balls and their one Sturm count accept exactly where the
    dstebz window certification did."""

    @staticmethod
    def _compare(monkeypatch):
        # each certification, by oracle._certify and by _stebz_certify on
        # the same levels: (dstebz accepts, oracle accepts)
        verdicts = []
        certify = oracle._certify

        def both(diagonal, off_diagonal, levels, radii, pivmin):
            try:
                _stebz_certify(diagonal, off_diagonal, levels)
                expected = True
            except GridConvergenceError:
                expected = False
            try:
                certify(diagonal, off_diagonal, levels, radii, pivmin)
            except GridConvergenceError:
                verdicts.append((expected, False))
                raise
            verdicts.append((expected, True))

        monkeypatch.setattr(oracle, "_certify", both)
        return verdicts

    @pytest.mark.parametrize("picks", [[1, 2], [1, 1], [0, 1, 2]],
                             ids=["shifted", "repeated", "right"])
    def test_seeds_on_one_grid(self, monkeypatch, picks):
        op = discretize_h0(0.3, GRID)
        levels = _bisected(op, 4)
        verdicts = self._compare(monkeypatch)
        try:
            bound_eigenvalues(op, levels[picks])
        except GridConvergenceError:
            pass
        accepted = picks == [0, 1, 2]
        assert verdicts == [(accepted, accepted)]

    @pytest.mark.parametrize("j, n_max", SEEDED_CASES)
    def test_seeds_one_level_up(self, monkeypatch, j, n_max):
        ladder = oracle._ladder_seeds
        monkeypatch.setattr(oracle, "_ladder_seeds", lambda j, n: ladder(j, n + 1)[1:])
        verdicts = self._compare(monkeypatch)
        with pytest.raises(GridConvergenceError, match="Sturm"):
            _three_grid_levels(j, n_max, _box(j, n_max))
        assert verdicts == [(False, False)]

    @pytest.mark.parametrize("j", [0.0, 0.3, -0.45, 1.7, 2.4])
    def test_unresolved_grid(self, monkeypatch, j):
        verdicts = self._compare(monkeypatch)
        with pytest.raises(GridConvergenceError):
            _three_grid_levels(j, 5, RadialGrid(r_min=1e-30, r_max=1e6, points=100))
        assert verdicts and all(expected == got for expected, got in verdicts)

    def test_benchmark_inputs(self, monkeypatch):
        # the 40 seed-1 oracle inputs: every grid accepted both ways, and
        # the kappa of the dstebz certification to the bit
        cases = _benchmark_cases(monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_certify",
                      lambda diagonal, off_diagonal, levels, radii, pivmin:
                      _stebz_certify(diagonal, off_diagonal, levels))
            reference = [[ev.kappa for ev in oracle_regular_spectrum(j, ATOMIC, n_max)]
                         for j, n_max in cases]
        verdicts = self._compare(monkeypatch)
        kappas = [[ev.kappa for ev in oracle_regular_spectrum(j, ATOMIC, n_max)]
                  for j, n_max in cases]
        assert verdicts == [(True, True)] * (3 * len(cases))
        assert kappas == reference


class TestResidualBalls:
    """Each certified level's ball holds the eigenvalue of T of its index,
    and lies far inside the spacing of the levels beside it."""

    def test_balls_hold_the_bisected_levels(self, monkeypatch):
        balls = []

        def recorded(op, seeds, vectors=None, radii=None):
            radii = np.empty(len(seeds)) if radii is None else radii
            levels = bound_eigenvalues(op, seeds, vectors, radii)
            balls.append((op, levels, radii))
            return levels

        cases = _benchmark_cases(monkeypatch) + SEEDED_CASES + [(0.3, 36)]
        monkeypatch.setattr(oracle, "bound_eigenvalues", recorded)
        for j, n_max in cases:
            _three_grid_levels(j, n_max, _box(j, n_max))
        assert len(balls) == 3 * len(cases)
        for op, levels, radii in balls:
            bisected = _bisected(op, levels.size)
            assert np.all(np.abs(levels - bisected) <= radii), (levels, bisected, radii)
            spacing = np.diff(levels)
            nearest = np.minimum(np.r_[np.inf, spacing], np.r_[spacing, np.inf])
            assert np.all(100.0 * radii <= nearest), (levels, radii)


class TestCoulombUnits:
    """Every level is solved at q = 1 and scaled by q = m_e eta / hbar^2."""

    @pytest.mark.parametrize(
        "params",
        [PhysicalParams(eta=0.01), PhysicalParams(eta=0.05), PhysicalParams(eta=1e4),
         PhysicalParams(m_e=2.0, hbar=0.5, eta=0.01)],
        ids=["eta=0.01", "eta=0.05", "eta=1e4", "m_e=2,hbar=0.5"],
    )
    def test_levels_at_every_coupling(self, params):
        q = params.q
        evs = oracle_regular_spectrum(0.3, params, 3)
        assert [ev.index for ev in evs] == [1, 2, 3]
        for ev in evs:
            assert ev.kappa == pytest.approx(q / (ev.index - 0.5 + 0.3), rel=1e-6)

    def test_coupling_beyond_float_range_refused(self):
        # refused with the parameters, before the oracle is asked
        with pytest.raises(FloatRangeError, match="float range"):
            oracle_regular_spectrum(0.3, PhysicalParams(eta=1e300, hbar=1e-10), 1)


class TestSpectrum:
    def test_regular_ladder_j0(self):
        kappas = [ev.kappa for ev in oracle_regular_spectrum(0.0, ATOMIC, 3)]
        assert kappas == pytest.approx([2.0, 2.0 / 3.0, 0.4], rel=1e-6)

    def test_regular_only_extension_beyond_sector(self):
        evs = oracle_regular_spectrum(0.75, ATOMIC, 1)
        assert evs[0].kappa == pytest.approx(0.8, rel=1e-6)

    def test_kappa_decreasing_in_index(self):
        evs = oracle_regular_spectrum(0.25, ATOMIC, 3)
        kappas = [ev.kappa for ev in evs]
        assert kappas == sorted(kappas, reverse=True)
        assert [ev.index for ev in evs] == [1, 2, 3]

    def test_two_grid_gap_reported(self):
        for ev in oracle_regular_spectrum(0.25, ATOMIC, 3):
            assert 0.0 < ev.two_grid_gap < TWO_GRID_AGREEMENT

    @pytest.mark.parametrize("j, n_max", [(0.0, 5), (0.25, 3), (2.4, 9), (0.3, 36)])
    def test_residual_bound_reported(self, j, n_max):
        for ev in oracle_regular_spectrum(j, ATOMIC, n_max):
            assert 0.0 < ev.residual_bound <= TWO_GRID_AGREEMENT

    def test_no_coupling_no_bound_states(self):
        assert oracle_regular_spectrum(0.2, PhysicalParams(eta=0.0), 3) == []

    def test_monotone_in_coupling(self):
        ladders = []
        for eta in (0.5, 1.0, 2.0):
            evs = oracle_regular_spectrum(0.25, PhysicalParams(eta=eta), 2)
            ladders.append([ev.kappa for ev in evs])
        for weaker, stronger in zip(ladders, ladders[1:]):
            assert all(s > w for w, s in zip(weaker, stronger))

    def test_refinement_reduces_error(self):
        # raw (unextrapolated) eigenvalues must gain at least a factor of
        # three in accuracy when the mesh step halves (second order scheme)
        j = 0.25
        exact = -((1.0 / (1 - 0.5 + j)) ** 2)
        coarse_grid = replace(GRID, points=1000)
        eps_c = _bisected(discretize_h0(j, coarse_grid), 1)[0]
        eps_f = _bisected(discretize_h0(j, coarse_grid.refined()), 1)[0]
        assert abs(eps_c - exact) >= 3.0 * abs(eps_f - exact)

    def test_two_grid_disagreement_detected(self):
        # 100 nodes over 36 decades: a step of 0.8 in ln r is far too coarse,
        # and already the ground state's two grids differ by more than the
        # accuracy bound
        grid = RadialGrid(r_min=1e-30, r_max=1e6, points=100)
        with pytest.raises(GridConvergenceError, match="index 1"):
            _three_grid_levels(0.0, 2, grid)

    @pytest.mark.parametrize("j, n_max", [(0.3, 10), (0.3, 20), (2.4, 9), (-6.0, 7)])
    def test_every_requested_level_on_the_ladder(self, j, n_max):
        # a fixed box of 200 Coulomb lengths cut these states off, up to 41%
        # low, and dropped 8 of the 20 levels at n_max = 20
        evs = oracle_regular_spectrum(j, ATOMIC, n_max)
        assert [ev.index for ev in evs] == list(range(1, n_max + 1))
        for ev in evs:
            assert ev.kappa == pytest.approx(1.0 / (ev.index - 0.5 + abs(j)), rel=1e-7)

    @pytest.mark.parametrize("j, n_max", SWEEP)
    def test_derived_grid_keeps_the_ladder(self, j, n_max):
        # below the BASE_POINTS cap, the step of 0.15 / t in ln r keeps every
        # level within 1e-9 of the closed form: the floor of r_min = 1e-5
        # reads 8e-10 at j = 0 on 1 200 points too, and every other level
        # measured at most 1.2e-10.  Capped grids are held to the oracle's 1e-6
        evs = oracle_regular_spectrum(j, ATOMIC, n_max)
        assert [ev.index for ev in evs] == list(range(1, n_max + 1))
        rel = 1e-9 if evs[0].grid.points < BASE_POINTS else 1e-6
        for ev in evs:
            assert ev.kappa == pytest.approx(1.0 / (ev.index - 0.5 + abs(j)), rel=rel)

    @pytest.mark.parametrize(
        "j, n_max",
        [(0.3, 10), (0.3, 20), (2.4, 9), (-6.0, 7),
         (0.0, 1), (0.0, 5), (0.49, 1), (-0.49, 5), (2.5, 1), (-2.5, 5)],
    )
    def test_doubled_box_moves_no_level(self, j, n_max):
        # the derived box holds every requested state: twice its r_max, on
        # the same points, moves no extrapolated level by more than 1e-8
        grid = oracle_regular_spectrum(j, ATOMIC, n_max)[0].grid
        doubled = _romberg(j, n_max, replace(grid, r_max=2.0 * grid.r_max))
        assert np.max(np.abs(doubled / _romberg(j, n_max, grid) - 1.0)) <= 1e-8

    def test_thirty_levels_within_promise(self):
        # refused while a bisected seed grid of 500 points seeded the levels
        evs = oracle_regular_spectrum(0.3, ATOMIC, 30)
        assert [ev.index for ev in evs] == list(range(1, 31))
        for ev in evs:
            assert ev.kappa == pytest.approx(1.0 / (ev.index - 0.5 + 0.3), rel=1e-6)

    def test_unresolvable_level_refused(self):
        # at n_max = 50 the grids no longer resolve the highest levels: their
        # two finest grids differ by up to 6e-3, beyond the accuracy bound
        with pytest.raises(GridConvergenceError, match="two-grid gap"):
            oracle_regular_spectrum(0.3, ATOMIC, 50)

    @pytest.mark.parametrize(
        "j, n_max, rel",
        [(0.3, 35, 2e-7), (2.4, 33, 2e-7), (6.0, 31, 2e-7), (12.0, 28, 2e-7), (30.0, 23, 2e-7),
         (35.0, 23, 1e-6), (40.0, 22, 1e-6), (45.0, 22, 1e-6)],
    )
    def test_reach_edges_within_promise(self, j, n_max, rel):
        # the reach of two-grid Richardson on 4 000 and 7 999 points, which
        # the three smaller grids keep, within 2e-7 of the closed form up to
        # |j| = 30 and the oracle's 1e-6 beyond.  From |j| = 35 the coarsest
        # grid puts the top levels a third of a spacing below the ladder:
        # unscaled by the shift of the level below, the top seed converged
        # to the level above, and the Sturm count refused these calls
        evs = oracle_regular_spectrum(j, ATOMIC, n_max)
        assert [ev.index for ev in evs] == list(range(1, n_max + 1))
        for ev in evs:
            assert ev.kappa == pytest.approx(1.0 / (ev.index - 0.5 + abs(j)), rel=rel)

    @pytest.mark.parametrize("j, n_max", [(0.3, 37), (2.4, 35), (12.0, 30), (30.0, 25), (45.0, 23)])
    def test_one_beyond_the_reach_refused(self, j, n_max):
        # n_max - 1 is the highest n_max returned at this |j|; one more level
        # and the top one's two finest grids differ by more than the bound
        oracle_regular_spectrum(j, ATOMIC, n_max - 1)
        with pytest.raises(GridConvergenceError, match=f"index {n_max} .* two-grid gap"):
            oracle_regular_spectrum(j, ATOMIC, n_max)

    @pytest.mark.parametrize("j, n_max, points", [(2.4, 9, 300), (6.0, 7, 600), (0.3, 10, 300)])
    def test_romberg_error_is_sixth_order(self, j, n_max, points):
        # halving the base step shrinks the extrapolated error about 64-fold
        # (h^6), far more than the 16-fold (h^4) of a two-grid Richardson
        # step; measured 66 to 68
        exact = -1.0 / np.square(np.arange(1, n_max + 1) - 0.5 + abs(j))
        errors = [np.max(np.abs(_romberg(j, n_max, grid) / exact - 1.0))
                  for grid in (_box(j, n_max, points), _box(j, n_max, 2 * points - 1))]
        assert errors[0] >= 48.0 * errors[1]

    def test_n_max_validated(self):
        # 2.5 returned three levels, against the promise of exactly n_max;
        # True failed in numpy, and 10**6 asked for 8.9 GiB of start vectors
        for n_max in (0, -1, 2.5, 3.0, True, False, BASE_POINTS, 10**6):
            with pytest.raises(ValueError, match="n_max"):
                oracle_regular_spectrum(0.0, ATOMIC, n_max)

    @pytest.mark.parametrize("j", [np.nan, np.inf, -np.inf, 1e73, -1e77, 1e100, 1e155])
    def test_j_beyond_float_range_refused(self, j):
        # named, and without a RuntimeWarning: nan failed on the box's
        # bounds, and the others overflowed the box, the mass or the
        # symmetrised pencil and blamed r_min
        with pytest.raises(ValueError, match=r"^j "):
            oracle_regular_spectrum(j, ATOMIC, 1)

    @pytest.mark.parametrize("j, n_max", [(1.3e30, 2), (1.3e38, 2), (1e40, 1)])
    def test_huge_j_refused_without_warning(self, j, n_max):
        # T - sigma is singular in floats: the norm of the solve overflowed
        # with a RuntimeWarning, which warnings-as-errors raised in place of
        # the refusal
        with pytest.raises(GridConvergenceError, match="overflows"):
            oracle_regular_spectrum(j, ATOMIC, n_max)


def test_cli_import_defers_scipy_linalg_and_sparse():
    # scipy costs tens of MB at import (scipy.linalg and scipy.sparse most
    # of it): the package and its CLI import none of it, the special
    # functions and the oracle import it when they first evaluate, and the
    # oracle serves eigsh on first use
    code = (
        "import sys, abcoulomb, abcoulomb.cli\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
        "import abcoulomb.oracle, scipy.sparse.linalg\n"
        "assert abcoulomb.oracle.eigsh is scipy.sparse.linalg.eigsh\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
