import math
import sys

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from abcoulomb.model import PhysicalParams, SectorError
from abcoulomb.secular import (
    INFINITE_EXTENSION,
    ExtensionParam,
    KummerParams,
    RootSearchError,
    SolutionCoefficients,
    coefficient_ratio,
    energy_from_kappa,
    normalizable_coefficients,
    secular_function,
    solve_secular,
)
from abcoulomb.spectrum import energy_irregular, energy_regular
from abcoulomb.model import IRREGULAR, QuantumState, decompose_flux

ATOMIC = PhysicalParams()


class TestExtensionParam:
    def test_infinite_sentinel(self):
        assert INFINITE_EXTENSION.is_infinite
        assert not ExtensionParam(-3.0).is_infinite

    def test_rejects_nan_and_negative_infinity(self):
        with pytest.raises(ValueError):
            ExtensionParam(math.nan)
        with pytest.raises(ValueError):
            ExtensionParam(-math.inf)


class TestKummerParams:
    def test_fields(self):
        kp = KummerParams.for_state(2.0, 0.3, ATOMIC, r=1.5)
        t = 1.0 / 2.0
        assert kp.a == pytest.approx(0.5 + 0.3 - t)
        assert kp.b == pytest.approx(1.6)
        assert kp.a_prime == pytest.approx(0.5 - 0.3 - t)
        assert kp.b_prime == pytest.approx(0.4)
        assert kp.x == pytest.approx(6.0)
        assert kp.l_plus == pytest.approx(0.8)
        assert 2.0 * kp.abs_j - kp.l_plus == pytest.approx(-0.2)  # |j| - t
        assert kp.abs_j == pytest.approx(0.3)

    def test_shared_exponent_identity(self):
        for kappa in (0.3, 1.0, 7.0):
            for j in (0.0, 0.2, 0.49):
                kp = KummerParams.for_state(kappa, j, ATOMIC)
                lhs = kp.a - kp.b + kp.abs_j
                rhs = kp.a_prime - kp.b_prime - kp.abs_j
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_sector_ranges(self):
        kp = KummerParams.for_state(1.0, 0.45, ATOMIC)
        assert kp.b >= 1.0
        assert 0.0 < kp.b_prime <= 1.0

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            KummerParams.for_state(0.0, 0.2, ATOMIC)


class TestCoefficientRatio:
    def test_zero_extension_is_regular(self):
        assert coefficient_ratio(1.3, 0.0, 0.2, ATOMIC) == 0.0

    def test_unit_base(self):
        assert coefficient_ratio(0.5, 1.0, 0.2, ATOMIC) == pytest.approx(1.0)

    def test_direct_value(self):
        assert coefficient_ratio(1.0, 2.0, 0.25, ATOMIC) == pytest.approx(
            2.0 * 2.0**0.5, rel=1e-12
        )

    def test_sector_error(self):
        with pytest.raises(SectorError):
            coefficient_ratio(1.0, 1.0, 0.7, ATOMIC)

    def test_infinite_rejected(self):
        with pytest.raises(ValueError):
            coefficient_ratio(1.0, INFINITE_EXTENSION, 0.2, ATOMIC)


class TestSecularFunction:
    def test_vanishes_at_regular_ladder(self):
        j = 0.3
        for n in range(1, 6):
            kappa = 1.0 / (n - 0.5 + j)
            assert abs(secular_function(kappa, 0.0, j, ATOMIC)) < 1e-12

    def test_vanishes_at_irregular_ladder(self):
        j = 0.3
        for n in range(1, 6):
            kappa = 1.0 / (n - 0.5 - j)
            assert abs(secular_function(kappa, INFINITE_EXTENSION, j, ATOMIC)) < 1e-12

    def test_nonzero_between_regular_roots(self):
        j = 0.3
        for n in (1, 2, 3, 4):
            k_hi = 1.0 / (n - 0.5 + j)
            k_lo = 1.0 / (n + 0.5 + j)
            for frac in (0.15, 0.4, 0.6, 0.85):
                kappa = k_lo + frac * (k_hi - k_lo)
                assert abs(secular_function(kappa, 0.0, j, ATOMIC)) > 1e-6

    def test_sector_error_for_finite_lambda(self):
        with pytest.raises(SectorError):
            secular_function(1.0, 1.0, 0.6, ATOMIC)

    def test_sector_error_for_finite_nonzero_lambda_at_j_zero(self):
        # the irregular solution at j = 0 is log r, not r^{-|j|}
        for lam in (-1.0, 2.0):
            with pytest.raises(SectorError):
                secular_function(1.0, lam, 0.0, ATOMIC)


class TestSolveSecular:
    def test_regular_limit_values(self):
        roots = solve_secular(0.0, 0.2, ATOMIC, 3)
        expected = [1.0 / 0.7, 1.0 / 1.7, 1.0 / 2.7]
        assert [r.kappa for r in roots] == pytest.approx(expected, rel=1e-10)

    def test_irregular_limit_value(self):
        roots = solve_secular(INFINITE_EXTENSION, 0.2, ATOMIC, 1)
        assert roots[0].kappa == pytest.approx(1.0 / 0.3, rel=1e-10)

    def test_limit_consistency_matrix(self):
        for j in (0.05, 0.2, 0.45):
            reg_roots = solve_secular(0.0, j, ATOMIC, 5)
            irr_roots = solve_secular(INFINITE_EXTENSION, j, ATOMIC, 5)
            flux = decompose_flux(j)  # j = 0 + phi
            for n in range(1, 6):
                reg = energy_regular(QuantumState(n, 0, 1), ATOMIC, flux)
                irr = energy_irregular(
                    QuantumState(n, 0, 1, IRREGULAR), ATOMIC, flux
                )
                assert reg_roots[n - 1].kappa == pytest.approx(reg.kappa, rel=1e-10)
                assert irr_roots[n - 1].kappa == pytest.approx(irr.kappa, rel=1e-10)

    def test_finite_lambda_against_dense_scan(self):
        # independent bracketing oracle: scipy gamma functions on a
        # 1e5-point grid over t in (0, 20]
        params = ATOMIC
        lam, j, count = -1.0, 0.3, 2
        ts = np.linspace(2e-4, 20.0, 100_000)
        kappas = 1.0 / ts
        b, bp = 1.0 + 2 * j, 1.0 - 2 * j
        values = sp.gamma(b) * sp.rgamma(0.5 + j - ts) + lam * (
            2.0 * kappas
        ) ** (2 * j) * sp.gamma(bp) * sp.rgamma(0.5 - j - ts)
        flips = np.nonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)[0]
        oracle_ts = 0.5 * (ts[flips] + ts[flips + 1])
        roots = solve_secular(lam, j, params, count)
        dt = ts[1] - ts[0]
        for root, t_oracle in zip(roots, oracle_ts):
            assert abs(1.0 / root.kappa - t_oracle) <= dt

    def test_residuals_tiny(self):
        for lam in (0.0, -1.0, 2.5, INFINITE_EXTENSION):
            for root in solve_secular(lam, 0.25, ATOMIC, 3):
                assert root.residual <= 1e-10

    def test_roots_satisfy_secular_function(self):
        for lam in (-1.0, 1.0):
            for root in solve_secular(lam, 0.2, ATOMIC, 3):
                kp = KummerParams.for_state(root.kappa, 0.2, ATOMIC)
                term1 = sp.gamma(kp.b) * sp.rgamma(kp.a)
                term2 = (
                    lam
                    * (2 * root.kappa) ** (2 * 0.2)
                    * sp.gamma(kp.b_prime)
                    * sp.rgamma(kp.a_prime)
                )
                assert abs(term1 + term2) <= 1e-9 * (abs(term1) + abs(term2))

    def test_no_coupling_returns_empty(self):
        free = PhysicalParams(eta=0.0)
        assert solve_secular(0.0, 0.2, free, 3) == []
        assert solve_secular(INFINITE_EXTENSION, 0.2, free, 2) == []

    def test_no_coupling_attractive_extension_single_root(self):
        free = PhysicalParams(eta=0.0)
        roots = solve_secular(-1.0, 0.3, free, 3)
        assert len(roots) == 1
        # F(kappa) = G(b)/G(0.8) + lam (2k)^0.6 G(0.4)/G(0.2) = 0 solved directly
        c1 = sp.gamma(1.6) * sp.rgamma(0.8)
        c2 = sp.gamma(0.4) * sp.rgamma(0.2)
        kappa_expected = 0.5 * (c1 / c2) ** (1.0 / 0.6)
        assert roots[0].kappa == pytest.approx(kappa_expected, rel=1e-10)

    def test_no_coupling_root_beyond_float_range_raises(self):
        # (2 kappa)^{2|j|} ~ 16.7 puts kappa near 1e339
        with pytest.raises(RootSearchError):
            solve_secular(-0.06, 0.0018, PhysicalParams(eta=0.0), 1)

    def test_prefix_stability(self):
        for lam in (0.0, -1.0, INFINITE_EXTENSION):
            short = solve_secular(lam, 0.3, ATOMIC, 2)
            longer = solve_secular(lam, 0.3, ATOMIC, 4)
            assert len(longer) == 4
            for a, b in zip(short, longer):
                assert a.kappa == pytest.approx(b.kappa, rel=1e-12)

    def test_sector_error(self):
        with pytest.raises(SectorError):
            solve_secular(1.0, 0.8, ATOMIC, 1)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            solve_secular(0.0, 0.2, ATOMIC, 0)

    def test_j_zero_finite_nonzero_lambda_refused(self):
        # the irregular solution at j = 0 is log r; at lambda = -1 the
        # r^{+-|j|} secular function would vanish identically
        for lam in (-1.0, 2.0, -0.3):
            for j in (0.0, 1e-17, -5e-324):  # b' = b in floats below ~5e-17
                with pytest.raises(SectorError):
                    solve_secular(lam, j, ATOMIC, 3)
        with pytest.raises(SectorError):
            solve_secular(-1.0, 0.0, PhysicalParams(eta=0.0), 1)

    def test_j_zero_limits_match_closed_forms(self):
        flux = decompose_flux(0.0)
        reg = solve_secular(0.0, 0.0, ATOMIC, 3)
        irr = solve_secular(INFINITE_EXTENSION, 0.0, ATOMIC, 3)
        for n in range(1, 4):
            assert reg[n - 1].kappa == pytest.approx(
                energy_regular(QuantumState(n, 0, 1), ATOMIC, flux).kappa, rel=1e-14
            )
            assert irr[n - 1].kappa == pytest.approx(
                energy_irregular(QuantumState(n, 0, 1, IRREGULAR), ATOMIC, flux).kappa,
                rel=1e-14,
            )


def _rgamma_secular(t, lam, aj):
    """The secular function in t = 1/kappa on scipy's reciprocal gamma."""
    if math.isinf(lam):
        return sp.rgamma(0.5 - aj - t)
    value = sp.gamma(1.0 + 2.0 * aj) * sp.rgamma(0.5 + aj - t)
    if lam != 0.0:
        irregular = sp.gamma(1.0 - 2.0 * aj) * sp.rgamma(0.5 - aj - t)
        value += lam * (2.0 / t) ** (2.0 * aj) * irregular
    return value


def _interlacing_bracket(lam, aj, n):
    regular, irregular = n - 0.5 + aj, n - 0.5 - aj
    if lam == 0.0:
        return regular, regular
    if math.isinf(lam):
        return irregular, irregular
    if lam > 0.0:
        return irregular, regular
    if n == 1:
        return 0.0, irregular
    return n - 1.5 + aj, irregular


def _log_deep_two_kappa(lam, aj):
    """log(2 kappa) of the lambda < 0 ground state from its small-t limit
    (2 kappa)^{2|j|} = -Gamma(b) Gamma(1/2 - |j|) / (lambda Gamma(b') Gamma(1/2 + |j|))."""
    ratio = -(
        sp.gamma(1.0 + 2.0 * aj) * sp.gamma(0.5 - aj)
        / (lam * sp.gamma(1.0 - 2.0 * aj) * sp.gamma(0.5 + aj))
    )
    return math.log(ratio) / (2.0 * aj)


_LAMBDAS = st.one_of(
    st.sampled_from((0.0, math.inf)),
    st.builds(
        lambda sign, exponent: sign * 10.0**exponent,
        st.sampled_from((1.0, -1.0)),
        st.floats(-3.0, 3.0),
    ),
)


class TestInterlacingBrackets:
    # |j| < 1e-6 is left to test_lambda_minus_one_near_j_zero.  Within
    # rounding of |j| = 1/2 the lambda < 0 ground-state bracket
    # (0, 1/2 - |j|) is narrower than the float resolution of a'.
    @given(
        lam=_LAMBDAS,
        j=st.floats(1e-6, 0.5 - 1e-9),
        count=st.integers(1, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_roots_in_brackets_with_sign_change(self, lam, j, count):
        try:
            roots = solve_secular(lam, j, ATOMIC, count)
        except RootSearchError:
            # refused only when the ground state is beyond the float range
            assert lam < 0.0 and _log_deep_two_kappa(lam, j) > math.log(1e300)
            return
        assert len(roots) == count
        ts = [1.0 / r.kappa for r in roots]
        assert all(a < b for a, b in zip(ts, ts[1:]))
        for n, t in enumerate(ts, start=1):
            lo, hi = _interlacing_bracket(lam, j, n)
            assert lo - 1e-12 * t <= t <= hi + 1e-12 * t
            below = _rgamma_secular(t * (1.0 - 1e-9), lam, j)
            above = _rgamma_secular(t * (1.0 + 1e-9), lam, j)
            assert below * above < 0.0

    @pytest.mark.parametrize("lam, j", [(-0.001, 0.1), (-0.1, 0.01)])
    def test_deep_ground_state(self, lam, j):
        # kappa ~ 1.1e15 and 1.1e50, below both closed-form ladders
        roots = solve_secular(lam, j, ATOMIC, 2)
        expected = 0.5 * math.exp(_log_deep_two_kappa(lam, j))
        assert roots[0].kappa == pytest.approx(expected, rel=1e-9)
        assert 1.0 / roots[1].kappa > 0.5 - j  # the next level is not relabelled

    @pytest.mark.xfail(
        strict=True,
        reason="at lambda = -1 the two secular terms cancel to O(|j|), so the "
        "roots lose about 1e-16/|j| of relative accuracy with a zero residual",
    )
    def test_lambda_minus_one_near_j_zero(self):
        t = 1.0 / solve_secular(-1.0, 1e-13, ATOMIC, 1)[0].kappa
        below = _rgamma_secular(t * (1.0 - 1e-9), -1.0, 1e-13)
        above = _rgamma_secular(t * (1.0 + 1e-9), -1.0, 1e-13)
        assert below * above < 0.0

    @pytest.mark.parametrize("lam", [1e-300, 1e-200, 1e-100, 1e-30, 1e-17, -1e-17, -1e-30])
    def test_tiny_lambda_roots_on_their_ladders(self, lam):
        # each bracket ends where a or a' is 1 - n, and a rounded a would leave
        # an O(eps) reciprocal gamma there that swamps the lambda term
        for j in (0.05, 0.1, 0.2, 0.3, 0.37, 0.45):
            try:
                ts = [1.0 / r.kappa for r in solve_secular(lam, j, ATOMIC, 4)]
            except RootSearchError:
                two_kappa_max = 0.5 * sys.float_info.max  # kappa <= float max / 4
                assert lam < 0.0 and _log_deep_two_kappa(lam, j) > math.log(two_kappa_max)
                continue
            assert len(ts) == 4
            if lam < 0.0:  # the ground state goes deep; root n follows regular level n - 1
                expected = 0.5 * math.exp(_log_deep_two_kappa(lam, j))
                assert 1.0 / ts[0] == pytest.approx(expected, rel=1e-9)
                ladder = [n - 1.5 + j for n in range(2, 5)]
                ts = ts[1:]
            else:
                ladder = [n - 0.5 + j for n in range(1, 5)]
            for t, t_ladder in zip(ts, ladder):
                assert t == pytest.approx(t_ladder, rel=4 * sys.float_info.epsilon)

    def test_ground_state_beyond_float_range_raises(self):
        # (2 kappa)^{2|j|} ~ 16.7 puts kappa near 1e339
        assert _log_deep_two_kappa(-0.06, 0.0018) > math.log(1e308)
        with pytest.raises(RootSearchError):
            solve_secular(-0.06, 0.0018, ATOMIC, 1)


class TestNormalizableCoefficients:
    def test_growth_cancellation_is_exact(self):
        from abcoulomb.specfun import gamma, reciprocal_gamma

        kp = KummerParams.for_state(0.977, 0.37, ATOMIC)
        coeffs = normalizable_coefficients(kp)
        # a_m = Gamma(b')/Gamma(a') and b_m = -Gamma(b)/Gamma(a): the products
        # cancel exactly when each ratio is formed first
        bracket = coeffs.a_m * (gamma(kp.b) * reciprocal_gamma(kp.a)) + coeffs.b_m * (
            gamma(kp.b_prime) * reciprocal_gamma(kp.a_prime)
        )
        assert bracket == 0.0

    def test_regular_root_recovers_pure_regular(self):
        j = 0.2
        kappa = 1.0 / (1 - 0.5 + j)  # exact ground state of the lam = 0 ladder
        kp = KummerParams.for_state(kappa, j, ATOMIC)
        coeffs = normalizable_coefficients(kp)
        assert coeffs.b_m == pytest.approx(0.0, abs=1e-12)
        assert coeffs.a_m != 0.0

    def test_trivial_coefficients_rejected(self):
        with pytest.raises(ValueError):
            SolutionCoefficients(0.0, 0.0)


class TestEnergyFromKappa:
    def test_matches_closed_form(self):
        for omega in (0.0, 1.3, -0.7):
            params = PhysicalParams(omega=omega)
            for phi in (0.0, 0.3):
                flux = decompose_flux(phi)
                for n in (1, 2, 4):
                    st_ = QuantumState(n, 0, 1)
                    res = energy_regular(st_, params, flux)
                    e = energy_from_kappa(res.kappa, 0 + flux.phi, 1, params)
                    assert e == pytest.approx(res.energy, rel=1e-12)
