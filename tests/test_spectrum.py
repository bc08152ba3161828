import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcoulomb.model import (
    IRREGULAR,
    PhysicalParams,
    QuantumState,
    SectorError,
    decompose_flux,
)
from abcoulomb.spectrum import (
    ExistenceError,
    closed_form_energy,
    detect_degeneracies,
    kappa_of_energy,
    rotation_parts,
)

ATOMIC = PhysicalParams()
NO_FLUX = decompose_flux(0.0)


def reg(n=1, m=0, s=1, params=ATOMIC, flux=NO_FLUX):
    return closed_form_energy(QuantumState(n, m, s), params, flux)


def irr(n=1, m=0, s=1, params=ATOMIC, flux=NO_FLUX):
    return closed_form_energy(QuantumState(n, m, s, IRREGULAR), params, flux)


class TestRegularEnergy:
    def test_ground_state_anchor(self):
        assert reg().energy == pytest.approx(-2.0, abs=1e-12)

    def test_first_excited(self):
        assert reg(n=2).energy == pytest.approx(-1.0 / (2.0 * 1.5**2), rel=1e-14)

    def test_rotation_shift(self):
        res = reg(params=PhysicalParams(omega=1.0))
        assert res.energy == pytest.approx(-2.5, abs=1e-12)

    def test_kappa(self):
        assert reg().kappa == pytest.approx(2.0, rel=1e-14)
        assert reg(n=3, m=1, flux=decompose_flux(0.25)).kappa == pytest.approx(
            1.0 / (2.5 + 1.25), rel=1e-14
        )

    def test_exists_requires_coulomb(self):
        free = PhysicalParams(eta=0.0, omega=1.0)
        res = reg(params=free)
        assert not res.exists
        assert res.kappa == 0.0


class TestIrregularEnergy:
    def test_blowup_anchor(self):
        res = irr(flux=decompose_flux(0.49))
        assert res.energy == pytest.approx(-5000.0, rel=1e-6)

    def test_direct_value(self):
        res = irr(flux=decompose_flux(0.2))
        assert res.energy == pytest.approx(-1.0 / (2.0 * 0.3**2), rel=1e-12)

    def test_matches_regular_at_zero_j(self):
        assert irr().energy == reg().energy == pytest.approx(-2.0)

    def test_sector_enforced(self):
        with pytest.raises(SectorError):
            irr(m=1)
        with pytest.raises(SectorError):
            irr(flux=decompose_flux(0.5))

    def test_magnitude_dominates_regular(self):
        for phi in (0.1, 0.3, 0.45):
            flux = decompose_flux(phi)
            assert abs(irr(flux=flux).energy) > abs(reg(flux=flux).energy)


class TestKappaOfEnergy:
    def test_ground_state(self):
        st_ = QuantumState(1, 0, 1)
        assert kappa_of_energy(-2.0, st_, ATOMIC, NO_FLUX) == pytest.approx(2.0)

    def test_scattering_rejected(self):
        with pytest.raises(ExistenceError):
            kappa_of_energy(1.0, QuantumState(1, 0, 1), ATOMIC, NO_FLUX)

    @pytest.mark.parametrize("energy", [math.nan, -math.inf, math.inf])
    def test_non_finite_energy_refused(self, energy):
        # NaN gave kappa = nan and -inf gave inf
        with pytest.raises(ValueError, match=f"energy must be finite, got {energy}"):
            kappa_of_energy(energy, QuantumState(1, 0, 1), ATOMIC, NO_FLUX)

    def test_rotation_bound_zero_energy(self):
        st_ = QuantumState(1, -1, 1)
        rot = PhysicalParams(omega=1.0)
        assert kappa_of_energy(0.0, st_, rot, NO_FLUX) == pytest.approx(1.0)

    def test_round_trip_with_closed_form(self):
        for phi in (0.0, 0.3, 2.7):
            flux = decompose_flux(phi)
            for n in (1, 2, 5):
                for omega in (0.0, -1.5, 2.0):
                    params = PhysicalParams(omega=omega)
                    st_ = QuantumState(n, -1, 1)
                    res = closed_form_energy(st_, params, flux)
                    back = kappa_of_energy(res.energy, st_, params, flux)
                    assert back == pytest.approx(res.kappa, rel=1e-12)


class TestRotationStructure:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=-8, max_value=8),
        st.sampled_from([1, -1]),
        st.floats(min_value=-4.0, max_value=4.0),
        st.sampled_from([-2.0, -1.0, 0.5, 1.0, 3.0]),
    )
    @settings(max_examples=80)
    def test_rotation_linearity_exact(self, n, m, s, phi, omega):
        flux = decompose_flux(phi)
        j = m + flux.phi
        rot = PhysicalParams(omega=omega)
        e_rot = closed_form_energy(QuantumState(n, m, s), rot, flux)
        e_zero = closed_form_energy(QuantumState(n, m, s), ATOMIC, flux)
        # the Coulomb part is bitwise independent of omega and the shift is
        # exactly the advertised expression
        assert e_rot.coulomb_energy == e_zero.coulomb_energy
        orbit, spin = rotation_parts(rot, j, s)
        assert e_rot.rotation_energy == orbit + spin
        assert e_rot.energy == e_rot.coulomb_energy + e_rot.rotation_energy
        assert e_zero.rotation_energy == 0.0
        residual = math.fsum(
            [
                e_rot.coulomb_energy,
                orbit,
                spin,
                -e_zero.coulomb_energy,
                rot.hbar * rot.omega * j,
                s * (rot.hbar * rot.omega / 2.0),
            ]
        )
        assert residual == 0.0

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=-8, max_value=8),
        st.floats(min_value=-4.0, max_value=4.0),
        st.sampled_from([-2.0, 0.5, 1.0, 3.0]),
    )
    @settings(max_examples=80)
    def test_spin_splitting_exact(self, n, m, phi, omega):
        flux = decompose_flux(phi)
        j = m + flux.phi
        rot = PhysicalParams(omega=omega)
        up = closed_form_energy(QuantumState(n, m, 1), rot, flux)
        dn = closed_form_energy(QuantumState(n, m, -1), rot, flux)
        up_orbit, up_spin = rotation_parts(rot, j, 1)
        dn_orbit, dn_spin = rotation_parts(rot, j, -1)
        assert up.coulomb_energy == dn.coulomb_energy
        assert up_orbit == dn_orbit
        residual = math.fsum(
            [up_spin, -dn_spin, rot.hbar * rot.omega]
        )
        assert residual == 0.0

    def test_negative_without_rotation(self):
        for phi in (0.0, 0.4, 3.3):
            flux = decompose_flux(phi)
            for n in (1, 2, 4):
                for m in (-3, 0, 2):
                    assert closed_form_energy(QuantumState(n, m, 1), ATOMIC, flux).energy < 0
        for phi in (0.1, 0.45):
            assert irr(flux=decompose_flux(phi)).energy < 0

    def test_monotone_in_flux_for_nonnegative_m(self):
        phis = [0.05 * k for k in range(0, 200)]
        for m in (0, 1, 3):
            energies = [
                reg(m=m, flux=decompose_flux(phi)).energy for phi in phis
            ]
            assert all(b >= a for a, b in zip(energies, energies[1:]))

    def test_integer_flux_periodicity_exact_on_dyadics(self):
        # dyadic fluxes make phi + K exact, so the shifted evaluation must
        # reproduce the energy bitwise
        for phi in (0.25, 0.375, 0.5, 1.75):
            for k in (1, 2, 5):
                for m in (-2, 0, 3):
                    lhs = reg(m=m, flux=decompose_flux(phi)).energy
                    rhs = reg(m=m - k, flux=decompose_flux(phi + k)).energy
                    assert lhs == rhs

    def test_periodicity_general_flux(self):
        for phi in (0.3, 1.7):
            for k in (1, 3):
                lhs = reg(m=0, flux=decompose_flux(phi)).energy
                rhs = reg(m=-k, flux=decompose_flux(phi + k)).energy
                assert rhs == pytest.approx(lhs, rel=1e-13)


class TestDegeneracies:
    def test_spin_pairs_without_rotation(self):
        states = [QuantumState(1, m, s) for m in range(-4, 5) for s in (1, -1)]
        groups = detect_degeneracies(states, ATOMIC, decompose_flux(0.3))
        for group in groups:
            ms = {st_.m for st_ in group.members}
            for m in ms:
                assert {QuantumState(1, m, 1), QuantumState(1, m, -1)} <= set(
                    group.members
                )

    def test_integer_flux_grouping(self):
        flux = decompose_flux(1.0)
        states = [QuantumState(1, m, 1) for m in range(-4, 5)]
        groups = detect_degeneracies(states, ATOMIC, flux)
        # |m + 1| classes: {-1} alone (j=0), {0, -2}, {1, -3}, {2, -4}
        partitions = {
            frozenset(st_.m for st_ in g.members) for g in groups
        }
        assert frozenset({0, -2}) in partitions
        assert frozenset({1, -3}) in partitions
        assert frozenset({2, -4}) in partitions

    def test_brute_force_agreement_under_rotation(self):
        params = PhysicalParams(omega=1.0)
        flux = decompose_flux(5.0)
        states = [QuantumState(1, m, s) for m in range(-10, 11) for s in (1, -1)]
        detected = {
            frozenset(g.members)
            for g in detect_degeneracies(states, params, flux, tol=1e-12)
        }
        energies = {
            st_: closed_form_energy(st_, params, flux).energy for st_ in states
        }
        brute = set()
        remaining = set(states)
        while remaining:
            seed = remaining.pop()
            cluster = {seed}
            for other in list(remaining):
                if abs(energies[other] - energies[seed]) <= 1e-12:
                    cluster.add(other)
                    remaining.discard(other)
            if len(cluster) > 1:
                brute.add(frozenset(cluster))
        assert detected == brute

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            detect_degeneracies([QuantumState(1, 0, 1)], ATOMIC, NO_FLUX, tol=0.0)
        # NaN passed tol <= 0 and found no group
        states = [QuantumState(1, 0, 1), QuantumState(1, 0, 1)]
        with pytest.raises(ValueError, match="tol must be positive, got nan"):
            detect_degeneracies(states, ATOMIC, NO_FLUX, tol=math.nan)
