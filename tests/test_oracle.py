import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from abcoulomb.model import PhysicalParams
from abcoulomb.oracle import (
    DEFAULT_GRID,
    TWO_GRID_AGREEMENT,
    GridConvergenceError,
    RadialGrid,
    _two_grid_levels,
    bound_eigenvalues,
    discretize_h0,
    oracle_regular_spectrum,
)

ATOMIC = PhysicalParams()


def _count_below(op, eps):
    """Generalized eigenvalues of (A, M) below eps, by Sylvester's law of
    inertia: the negative pivots of the LDL^T of the unscaled A - eps M."""
    shifted = (op.diagonal - eps * op.mass).tolist()
    pivot = shifted[0]
    negative = int(pivot < 0.0)
    for a, b in zip(shifted[1:], op.off_diagonal.tolist()):
        pivot = a - b * b / pivot
        negative += pivot < 0.0
    return negative


class TestRadialGrid:
    def test_defaults(self):
        assert DEFAULT_GRID.r_min == 1e-5
        assert DEFAULT_GRID.r_max == 200.0
        assert DEFAULT_GRID.points == 4000

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialGrid(r_min=0.0)
        with pytest.raises(ValueError):
            RadialGrid(r_min=2.0, r_max=1.0)
        with pytest.raises(ValueError):
            RadialGrid(points=10)

    def test_refinement_halves_step(self):
        grid = RadialGrid(points=500)
        fine = grid.refined()
        h = np.diff(np.log(grid.nodes()))[0]
        h_fine = np.diff(np.log(fine.nodes()))[0]
        assert h_fine == pytest.approx(h / 2.0, rel=1e-12)


class TestDiscretization:
    def test_matrix_symmetric(self):
        # one off-diagonal array serves both sides of A, so A = A^T holds by
        # construction; its size, the entries and the mass must be sound
        op = discretize_h0(0.3, ATOMIC, RadialGrid(points=300))
        assert op.off_diagonal.shape == (op.diagonal.size - 1,)
        assert op.mass.shape == op.diagonal.shape
        assert np.all(np.isfinite(op.diagonal)) and np.all(np.isfinite(op.off_diagonal))
        assert np.all(op.mass > 0.0)

    def test_no_coupling_operator_nonnegative(self):
        free = PhysicalParams(eta=0.0)
        op = discretize_h0(1.0, free, RadialGrid(points=600))
        evs = bound_eigenvalues(op, 4)
        assert np.all(evs >= 0.0)

    def test_lowest_eigenvalue_matches_coulomb_ground(self):
        op = discretize_h0(0.0, ATOMIC, DEFAULT_GRID)
        evs = bound_eigenvalues(op, 1)
        assert evs[0] == pytest.approx(-4.0, rel=1e-4)

    @pytest.mark.parametrize(
        "grid",
        [DEFAULT_GRID, DEFAULT_GRID.refined(), RadialGrid(r_min=1e-30, r_max=1e6, points=100)],
        ids=["default", "refined", "coarse-36-decades"],
    )
    @pytest.mark.parametrize("j", [0.0, 0.3, -0.45, 1.7, 2.4])
    def test_levels_match_sturm_count(self, grid, j):
        # the k-th level has exactly k - 1 eigenvalues of the unscaled pencil
        # below it and k above it, to a relative 1e-9
        op = discretize_h0(j, ATOMIC, grid)
        levels = bound_eigenvalues(op, 5)
        assert len(levels) == 5
        for k, eps in enumerate(levels, start=1):
            assert _count_below(op, eps - 1e-9 * abs(eps)) == k - 1
            assert _count_below(op, eps + 1e-9 * abs(eps)) == k

    @pytest.mark.parametrize("r_min", [1e-80, 1e-160])
    def test_unrepresentable_pencil_refused(self, r_min):
        # the symmetrised entries reach 1/(h r_min)^2, whose squares overflow
        op = discretize_h0(0.3, ATOMIC, RadialGrid(r_min=r_min, points=400))
        with pytest.raises(ValueError, match="r_min"):
            bound_eigenvalues(op, 3)


class TestRefinement:
    """The coarse and fine levels of oracle_regular_spectrum come from
    Rayleigh-quotient inverse iteration seeded by a grid with an eighth of
    the points, each certified by Sturm counts."""

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, DEFAULT_GRID.refined()],
                             ids=["default", "refined"])
    @pytest.mark.parametrize("j", [0.0, 0.3, -0.45, 1.7, 2.4])
    def test_refined_levels_match_sturm_count(self, grid, j):
        # as test_levels_match_sturm_count, on both grids of the two-grid pair
        for levels, g in zip(_two_grid_levels(j, 5, grid), (grid, grid.refined())):
            op = discretize_h0(j, ATOMIC, g)
            assert len(levels) == 5
            for k, eps in enumerate(levels, start=1):
                assert _count_below(op, eps - 1e-9 * abs(eps)) == k - 1
                assert _count_below(op, eps + 1e-9 * abs(eps)) == k

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, DEFAULT_GRID.refined()],
                             ids=["default", "refined"])
    @pytest.mark.parametrize("j", [0.0, 0.3, -0.45, 1.7, 2.4])
    def test_refined_levels_agree_with_bisection(self, grid, j):
        for levels, g in zip(_two_grid_levels(j, 5, grid), (grid, grid.refined())):
            bisected = bound_eigenvalues(discretize_h0(j, ATOMIC, g), 5)
            assert np.max(np.abs(levels / bisected - 1.0)) <= 1e-10

    @pytest.mark.parametrize("j", [0.0, 0.3, -0.45, 1.7, 2.4])
    def test_unresolved_grid_refused(self, j):
        # a step of 0.8 in ln r: the coarse levels do not seed the fine ones,
        # and the counts refuse them rather than return unlabelled levels
        grid = RadialGrid(r_min=1e-30, r_max=1e6, points=100)
        with pytest.raises(GridConvergenceError):
            _two_grid_levels(j, 5, grid)

    @pytest.mark.parametrize("picks", [[1, 2], [1, 1]], ids=["shifted", "repeated"])
    def test_seed_at_wrong_level_refused(self, picks):
        op = discretize_h0(0.3, ATOMIC, DEFAULT_GRID)
        levels = bound_eigenvalues(op, 3)
        assert bound_eigenvalues(op, 3, levels) == pytest.approx(levels, rel=1e-10)
        with pytest.raises(GridConvergenceError, match="Sturm"):
            bound_eigenvalues(op, 2, levels[picks])

    def test_unrepresentable_pencil_refused_with_seeds(self):
        op = discretize_h0(0.3, ATOMIC, RadialGrid(r_min=1e-80, points=400))
        with pytest.raises(ValueError, match="r_min"):
            bound_eigenvalues(op, 3, np.array([-1.6, -0.5, -0.2]))


class TestCoulombUnits:
    """Every level is solved at m_e eta' = 1 and scaled by q = m_e eta'."""

    @pytest.mark.parametrize(
        "params",
        [PhysicalParams(eta=0.01), PhysicalParams(eta=0.05), PhysicalParams(eta=1e4),
         PhysicalParams(m_e=2.0, hbar=0.5, eta=0.01)],
        ids=["eta=0.01", "eta=0.05", "eta=1e4", "m_e=2,hbar=0.5"],
    )
    def test_levels_at_every_coupling(self, params):
        q = params.m_e * params.eta_prime
        evs = oracle_regular_spectrum(0.3, params, 3)
        assert [ev.index for ev in evs] == [1, 2, 3]
        for ev in evs:
            assert ev.kappa == pytest.approx(q / (ev.index - 0.5 + 0.3), rel=1e-6)

    def test_coupling_beyond_float_range_refused(self):
        with pytest.raises(ValueError, match="float range"):
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
        coarse_grid = RadialGrid(points=1000)
        eps_c = bound_eigenvalues(discretize_h0(j, ATOMIC, coarse_grid), 1)[0]
        eps_f = bound_eigenvalues(discretize_h0(j, ATOMIC, coarse_grid.refined()), 1)[0]
        assert abs(eps_c - exact) >= 3.0 * abs(eps_f - exact)

    def test_two_grid_disagreement_detected(self):
        # 100 nodes over 36 decades: a step of 0.8 in ln r is far too coarse
        grid = RadialGrid(r_min=1e-30, r_max=1e6, points=100)
        with pytest.raises(GridConvergenceError, match="index 2"):
            oracle_regular_spectrum(0.0, ATOMIC, 2, grid)

    def test_n_max_validated(self):
        with pytest.raises(ValueError):
            oracle_regular_spectrum(0.0, ATOMIC, 0)


def test_cli_import_defers_scipy_linalg_and_sparse():
    # scipy.linalg and scipy.sparse cost tens of MB at import; the oracle
    # imports eigh_tridiagonal when it solves and serves eigsh on first use
    code = (
        "import sys, abcoulomb.cli\n"
        "loaded = [m for m in sys.modules if m.startswith(('scipy.linalg', 'scipy.sparse'))]\n"
        "assert not loaded, loaded\n"
        "import abcoulomb.oracle, scipy.sparse.linalg\n"
        "assert abcoulomb.oracle.eigsh is scipy.sparse.linalg.eigsh\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
