import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from abcoulomb.model import (
    IRREGULAR,
    FloatRangeError,
    FluxConfig,
    PhysicalParams,
    QuantumState,
    admissible_m,
    decompose_flux,
    effective_j,
    is_singular_sector,
)

finite_flux = st.floats(min_value=-50.0, max_value=50.0)


class TestPhysicalParams:
    def test_atomic_defaults(self):
        p = PhysicalParams()
        assert (p.m_e, p.hbar, p.eta, p.omega) == (1.0, 1.0, 1.0, 0.0)
        assert p.q == 1.0

    def test_q_scaling(self):
        p = PhysicalParams(eta=3.0, hbar=2.0)
        assert p.q == 0.75

    def test_validation(self):
        with pytest.raises(ValueError):
            PhysicalParams(m_e=0.0)
        with pytest.raises(ValueError):
            PhysicalParams(hbar=-1.0)
        with pytest.raises(ValueError):
            PhysicalParams(eta=-0.1)

    def test_scale_formed_as_the_layers_formed_it(self):
        # q and the energy unit keep the bytes of m_e * (eta / (hbar * hbar))
        # and m_e * eta**2 / (2.0 * hbar**2): hbar * hbar and hbar**2 can
        # differ in the last bit, so neither is rewritten as the other
        rng = np.random.default_rng(3)
        for m_e, hbar, eta in 10.0 ** rng.uniform(-3.0, 3.0, (200, 3)):
            p = PhysicalParams(m_e=m_e, hbar=hbar, eta=eta)
            assert p.q == m_e * (eta / (hbar * hbar))
            assert p.energy_unit == m_e * eta**2 / (2.0 * hbar**2)

    def test_energy_unit_where_its_first_order_leaves_the_float_range(self):
        # eta^2 underflows (eta = 1e-200) or m_e eta^2 overflows (m_e = 1e300,
        # eta = 1e10): the unit is q eta / 2, not 0 or inf; elsewhere it keeps
        # the bytes of m_e * eta**2 / (2.0 * hbar**2)
        assert PhysicalParams(m_e=1e300, eta=1e-200).energy_unit == 5e-101
        assert PhysicalParams(m_e=1e300, eta=1e10, hbar=1e10).energy_unit == 5e299
        rng = np.random.default_rng(32)
        for m_e, hbar, eta in (10.0 ** rng.uniform(-300.0, 300.0, (2000, 3))).tolist():
            try:
                p = PhysicalParams(m_e=m_e, hbar=hbar, eta=eta)
            except FloatRangeError:
                continue
            normal = all(sys.float_info.min <= x <= sys.float_info.max
                         for x in (eta**2, m_e * eta**2))
            unit = p.energy_unit
            assert unit == (m_e * eta**2 / (2.0 * hbar**2) if normal else 0.5 * p.q * eta)
            # q to rounding, eta / (hbar * hbar) below the normal range included,
            # and the unit too where it is a normal float
            with mpmath.workdps(40):
                exact_q = mpmath.mpf(m_e) * mpmath.mpf(eta) / mpmath.mpf(hbar) ** 2
                assert abs(p.q - exact_q) <= 4 * sys.float_info.epsilon * exact_q
                exact = exact_q * mpmath.mpf(eta) / 2
                if sys.float_info.min <= exact <= sys.float_info.max:
                    assert abs(unit - exact) <= 4 * sys.float_info.epsilon * exact

    @pytest.mark.parametrize(
        "fields, rule",
        [({"hbar": 1e-200}, "hbar^2"),  # hbar * hbar underflows to 0
         ({"hbar": 1e-200, "eta": 0.0}, "hbar^2"),
         ({"hbar": 1e-160}, "hbar^2"),  # subnormal
         ({"hbar": 1e160}, "hbar^2"),  # inf
         ({"eta": 1e200}, "energy unit"),  # eta**2 raises OverflowError
         ({"eta": 1e100, "hbar": 1e-110}, "q = m_e eta / hbar^2 = inf"),
         ({"m_e": 1e-300, "eta": 1e-300}, "q = m_e eta / hbar^2 = 0.0"),
         ({"eta": 1e-300, "hbar": 1e10}, "q = m_e eta / hbar^2 = 1e-320")],
        ids=["hbar2-zero", "hbar2-zero-eta0", "hbar2-subnormal", "hbar2-inf", "eta2-raises",
             "q-inf", "q-zero", "q-subnormal"],
    )
    def test_scale_beyond_float_range_refused(self, fields, rule):
        with pytest.raises(FloatRangeError, match="float range") as excinfo:
            PhysicalParams(**fields)
        assert rule in str(excinfo.value)
        assert isinstance(excinfo.value, ValueError)

    def test_scale_edges_accepted(self):
        # no Coulomb attraction at a large hbar: q and the energy unit are 0
        free = PhysicalParams(eta=0.0, hbar=1e100)
        assert (free.q, free.energy_unit) == (0.0, 0.0)
        # an energy unit that overflows in its product, without raising: the
        # levels are -inf, their kappa a float
        heavy = PhysicalParams(m_e=1e300, eta=1e10, hbar=10.0)
        assert (heavy.q, heavy.energy_unit) == (1e300 * (1e10 / 100.0), math.inf)
        # a small q, still normal: tests/test_wavefunction.py builds its
        # ground state, whose mesh end 35/kappa overflows
        assert PhysicalParams(eta=1e-307).q == 1e-307
        # eta / hbar^2 = 1e-360 underflows to 0, while q = 1e-60 is a normal
        # float: the scale is accepted, with q to rounding
        tiny = PhysicalParams(m_e=1e300, eta=1e-300, hbar=1e30)
        with mpmath.workdps(40):
            exact = mpmath.mpf(1e300) * mpmath.mpf(1e-300) / mpmath.mpf(1e30) ** 2
            assert abs(tiny.q - exact) <= 4 * sys.float_info.epsilon * exact


class TestFluxDecomposition:
    def test_positive(self):
        cfg = decompose_flux(5.3)
        assert cfg.n_integer == 5
        assert cfg.beta == pytest.approx(0.3, abs=1e-14)

    def test_integer(self):
        cfg = decompose_flux(1.0)
        assert (cfg.n_integer, cfg.beta) == (1, 0.0)

    def test_negative_uses_floor(self):
        cfg = decompose_flux(-0.3)
        assert cfg.n_integer == -1
        assert cfg.beta == pytest.approx(0.7, abs=1e-14)

    @given(finite_flux)
    def test_round_trip(self, phi):
        cfg = decompose_flux(phi)
        assert 0.0 <= cfg.beta < 1.0
        assert cfg.n_integer + cfg.beta == pytest.approx(phi, abs=1e-12)

    def test_beta_never_reaches_one(self):
        phi = math.nextafter(6.0, 0.0)
        cfg = decompose_flux(phi)
        assert 0.0 <= cfg.beta < 1.0

    def test_inconsistent_config_rejected(self):
        with pytest.raises(ValueError):
            FluxConfig(phi=1.5, n_integer=0, beta=0.2)


class TestEffectiveMomentum:
    def test_examples(self):
        assert effective_j(-1, 0.3) == pytest.approx(-0.7)
        assert effective_j(0, 0.0) == 0.0
        assert effective_j(-5, 5.3) == pytest.approx(0.3, abs=1e-12)

    def test_sector_boundary(self):
        assert is_singular_sector(effective_j(0, 0.49))
        assert not is_singular_sector(effective_j(0, 0.5))
        assert is_singular_sector(-0.2)
        assert not is_singular_sector(0.5)
        assert is_singular_sector(0.499999)


class TestAdmissibleM:
    def test_small_flux(self):
        assert admissible_m(0.2) == [0]

    def test_large_flux(self):
        assert admissible_m(5.3) == [-5]

    def test_half_integer_empty(self):
        assert admissible_m(0.5) == []
        assert admissible_m(3.5) == []

    @given(finite_flux)
    def test_at_most_one(self, phi):
        assert len(admissible_m(phi)) <= 1

    @given(finite_flux)
    def test_members_are_singular(self, phi):
        for m in admissible_m(phi):
            assert is_singular_sector(effective_j(m, phi))


class TestQuantumState:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuantumState(n=0, m=0, s=1)
        with pytest.raises(ValueError):
            QuantumState(n=1, m=0, s=2)
        with pytest.raises(ValueError):
            QuantumState(n=1, m=0, s=1, branch="bogus")
        # a non-integer n or m names no state: closed_form_energy would give
        # E = -0.5 for n = 1.5 and -0.8889 for m = 0.25 at phi = 0
        for n, m in ((1.5, 0), (1, 0.25), (2.0, 0), (1, -1.0)):
            with pytest.raises(ValueError, match="must be integers"):
                QuantumState(n=n, m=m, s=1)

    def test_numpy_integers_accepted(self):
        st_ = QuantumState(np.int64(2), np.int32(-1), 1)
        assert (st_.n, st_.m) == (2, -1)

    def test_hashable(self):
        assert len({QuantumState(1, 0, 1), QuantumState(1, 0, 1)}) == 1

    def test_irregular_branch_allowed(self):
        st_ = QuantumState(1, 0, -1, IRREGULAR)
        assert st_.branch == IRREGULAR
