import numpy as np
import pytest

from abcoulomb.model import PhysicalParams
from abcoulomb.oracle import (
    DEFAULT_GRID,
    GridConvergenceError,
    RadialGrid,
    bound_eigenvalues,
    discretize_h0,
    oracle_regular_spectrum,
)

ATOMIC = PhysicalParams()


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
        evs = bound_eigenvalues(op, 4, sigma=-1.0)
        assert np.all(evs >= 0.0)

    def test_lowest_eigenvalue_matches_coulomb_ground(self):
        op = discretize_h0(0.0, ATOMIC, DEFAULT_GRID)
        evs = bound_eigenvalues(op, 1, sigma=-5.5)
        assert evs[0] == pytest.approx(-4.0, rel=1e-4)


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
        sigma = -5.5
        eps_c = bound_eigenvalues(discretize_h0(j, ATOMIC, coarse_grid), 1, sigma)[0]
        eps_f = bound_eigenvalues(
            discretize_h0(j, ATOMIC, coarse_grid.refined()), 1, sigma
        )[0]
        assert abs(eps_c - exact) >= 3.0 * abs(eps_f - exact)

    def test_two_grid_disagreement_detected(self):
        # 100 nodes over 36 decades: a step of 0.8 in ln r is far too coarse
        grid = RadialGrid(r_min=1e-30, r_max=1e6, points=100)
        with pytest.raises(GridConvergenceError, match="index 2"):
            oracle_regular_spectrum(0.0, ATOMIC, 2, grid)

    def test_n_max_validated(self):
        with pytest.raises(ValueError):
            oracle_regular_spectrum(0.0, ATOMIC, 0)
