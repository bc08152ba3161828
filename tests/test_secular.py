import itertools
import math
import re
import sys

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import abcoulomb.secular as secular
from abcoulomb.model import FloatRangeError, PhysicalParams, SectorError
from abcoulomb.secular import (
    KummerParams,
    RootSearchError,
    SolutionCoefficients,
    _bracketed_root,
    normalizable_coefficients,
    secular_function,
    solve_secular,
)
from abcoulomb.spectrum import _energy_terms, closed_form_energy
from abcoulomb.model import IRREGULAR, REGULAR, QuantumState, decompose_flux
from abcoulomb.wavefunction import boundary_closure_residual

ATOMIC = PhysicalParams()


class TestLambdaValidation:
    def test_rejects_nan_and_negative_infinity(self):
        # lambda is a plain float in (-inf, +inf]; a ValueError comes
        # before the SectorError of |j| >= 1/2
        kp = KummerParams.for_state(1.0, 0.2, ATOMIC)
        for lam in (math.nan, -math.inf):
            for j in (0.2, 0.8):
                with pytest.raises(ValueError, match="extension parameter"):
                    solve_secular(lam, j, ATOMIC, 1)
                with pytest.raises(ValueError, match="extension parameter"):
                    secular_function(1.0, lam, j, ATOMIC)
            with pytest.raises(ValueError, match="extension parameter"):
                boundary_closure_residual(normalizable_coefficients(kp), kp, lam)


class TestKummerParams:
    def test_fields(self):
        kp = KummerParams.for_state(2.0, 0.3, ATOMIC)
        t = 1.0 / 2.0
        assert kp.a == pytest.approx(0.5 + 0.3 - t)
        assert kp.b == pytest.approx(1.6)
        assert kp.a_prime == pytest.approx(0.5 - 0.3 - t)
        assert kp.b_prime == pytest.approx(0.4)
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

    @pytest.mark.parametrize("kappa", [math.inf, 1e-310, 5e-324])
    def test_kappa_beyond_float_range_refused(self, kappa):
        # at kappa = inf, t = 0 gave a = 0.8 and a' = 0.2, and F was inf; at a
        # subnormal kappa t keeps too few digits for a ladder's integer
        with pytest.raises(FloatRangeError, match="float range"):
            KummerParams.for_state(kappa, 0.3, ATOMIC)
        with pytest.raises(FloatRangeError, match="float range"):
            secular_function(kappa, 1.0, 0.3, ATOMIC)
        # the smallest and largest normal kappa are kept
        for edge in (sys.float_info.min, sys.float_info.max):
            assert KummerParams.for_state(edge, 0.3, ATOMIC).kappa == edge
        assert secular_function(sys.float_info.min, 1.0, 0.3, ATOMIC) == 0.0

    @pytest.mark.parametrize("lam", [1.0, -1.0, math.inf])
    def test_kappa_above_a_quarter_of_float_max_refused(self, lam):
        # 2 kappa overflowed: at float max F was inf, and at float max / 2 it
        # read 4.3e184 at lambda = 1; float max / 4, the most solve_secular
        # returns, is kept
        top = sys.float_info.max
        for kappa in (top, top / 2.0, math.nextafter(top / 4.0, math.inf)):
            with pytest.raises(FloatRangeError, match=re.escape(f"kappa = {kappa!r}")):
                secular_function(kappa, lam, 0.3, ATOMIC)
        assert math.isfinite(secular_function(top / 4.0, lam, 0.3, ATOMIC))

    def test_consistency_bound_scales_with_the_parameters(self):
        # the snap moves a by up to 4 eps max(1, t), beyond 1e-9 from t of
        # about 1e6 on, so the bound scales with the parameters
        kp = KummerParams.for_state(1e-9, 0.3, ATOMIC)
        t = 1.0 / 1e-9
        assert (kp.a, kp.a_prime) == (0.5 + 0.3 - t, 0.5 - 0.3 - t)
        n = 10**7
        regular = KummerParams.for_state(1.0 / (n - 0.5 + 0.3), 0.3, ATOMIC)
        irregular = KummerParams.for_state(1.0 / (n - 0.5 - 0.3), 0.3, ATOMIC)
        assert regular.a == 1.0 - n and irregular.a_prime == 1.0 - n
        # a set inconsistent beyond rounding is refused at any size
        for a, off in ((0.3, 1e-12), (1.0 - n, 1e-6), (-1e15, 64.0)):
            with pytest.raises(ValueError, match="inconsistent Kummer parameters"):
                KummerParams(a=a, b=1.6, a_prime=a - 0.6 + off, b_prime=0.4, kappa=1.0)
            KummerParams(a=a, b=1.6, a_prime=a - 0.6, b_prime=0.4, kappa=1.0)

    def test_ladder_snapped_where_t_is_huge(self):
        # t = |j| + 1/2 carries a rounding error far above 1, and at |j| =
        # 1e300 a = 0 comes out as the positive integer 1.5e284; it is put
        # on the pole all the same
        aj = 1e300
        kappa = 1.0 / (0.5 + aj)
        kp = KummerParams.for_state(kappa, aj, ATOMIC)
        assert 0.5 + aj - 1.0 / kappa != 0.0
        assert kp.a == 0.0


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
            assert abs(secular_function(kappa, math.inf, j, ATOMIC)) < 1e-12

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
        roots = solve_secular(math.inf, 0.2, ATOMIC, 1)
        assert roots[0].kappa == pytest.approx(1.0 / 0.3, rel=1e-10)

    def test_limit_consistency_matrix(self):
        for j in (0.05, 0.2, 0.45):
            reg_roots = solve_secular(0.0, j, ATOMIC, 5)
            irr_roots = solve_secular(math.inf, j, ATOMIC, 5)
            flux = decompose_flux(j)  # j = 0 + phi
            for n in range(1, 6):
                reg = closed_form_energy(QuantumState(n, 0, 1), ATOMIC, flux)
                irr = closed_form_energy(
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

    @pytest.mark.parametrize("aj", [0.05, 0.3, 0.45])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_kappa_rises_with_lambda(self, aj, sign):
        # d(kappa^2)/d lambda = 2|j| f1^2 / ||F||^2 > 0: on each side of
        # lambda = 0 the kappa of every root rises strictly with lambda, here
        # roots 1-4 over 161 log-spaced |lambda| from 1e-8 to 1e8
        lams = np.sort(sign * np.logspace(-8.0, 8.0, 161))
        kappas = np.array([[root.kappa for root in solve_secular(float(lam), aj, ATOMIC, 4)]
                           for lam in lams])
        assert kappas.shape == (161, 4)
        assert np.all(kappas[1:] > kappas[:-1])

    def test_residuals_tiny(self):
        for lam in (0.0, -1.0, 2.5, math.inf):
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
        assert solve_secular(math.inf, 0.2, free, 2) == []

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
        for lam in (0.0, -1.0, math.inf):
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
        # True once gave one root, 2.5 a bare TypeError
        for count in (True, False, 2.5, 2.0, "2"):
            with pytest.raises(ValueError, match="count must be an integer"):
                solve_secular(1.0, 0.2, ATOMIC, count)
        assert len(solve_secular(1.0, 0.2, ATOMIC, np.int64(2))) == 2

    @pytest.mark.parametrize("j", [0.5, -0.5, 0.7, 1.0, 2.3])
    def test_infinite_lambda_sector_error(self, j):
        # the irregular ladder exists only for |j| < 1/2; at integer 2|j|
        # Gamma(1 - 2|j|) would also sit on a pole
        with pytest.raises(SectorError):
            solve_secular(math.inf, j, ATOMIC, 1)
        with pytest.raises(SectorError):
            secular_function(1.0, math.inf, j, ATOMIC)

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
        irr = solve_secular(math.inf, 0.0, ATOMIC, 3)
        for n in range(1, 4):
            assert reg[n - 1].kappa == pytest.approx(
                closed_form_energy(QuantumState(n, 0, 1), ATOMIC, flux).kappa, rel=1e-14
            )
            assert irr[n - 1].kappa == pytest.approx(
                closed_form_energy(QuantumState(n, 0, 1, IRREGULAR), ATOMIC, flux).kappa,
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


def _bisection(f, lo, hi, stop_on_zero=True):
    """Reference bisection to two adjacent floats (or, with ``stop_on_zero``,
    to the first exact zero): the float it returns and its evaluations."""
    lo_negative, evaluations = f(lo) < 0.0, 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid, evaluations
        f_mid = f(mid)
        evaluations += 1
        if f_mid == 0.0 and stop_on_zero:
            return mid, evaluations
        if f_mid != 0.0 and (f_mid < 0.0) == lo_negative:
            lo = mid
        else:
            hi = mid


def _one_sign_change_near(f, x, floats=256):
    """f changes sign once, with at most one exact zero, over the floats
    within ``floats`` steps of x."""
    xs = [x]
    for _ in range(floats):
        xs = [math.nextafter(xs[0], -math.inf), *xs, math.nextafter(xs[-1], math.inf)]
    signs = [(v > 0.0) - (v < 0.0) for v in map(f, xs)]
    monotone = signs in (sorted(signs), sorted(signs, reverse=True))
    return monotone and signs.count(0) <= 1 and signs[0] != signs[-1]


def _solve(f, lo, hi):
    """_bracketed_root on f, and the evaluations it made inside [lo, hi]."""
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    return (*_bracketed_root(counted, lo, hi, f(lo), f(hi)), len(calls))


class TestBracketedRoot:
    @pytest.mark.parametrize(
        "f, lo, hi",
        [
            (lambda x: 0.3 - x / 7.0, 0.0, 4.0),
            (lambda x: x - 0.1, 0.0, 1.0),
            # exp(50 x) - 2 itself has a run of exact zeros at float level
            # around ln(2)/50, any of which is a root; shifted to x > 1 it
            # has one sign change
            (lambda x: math.exp(50.0 * (x - 1.0)) - 2.0, 1.0, 2.0),
            *[
                (lambda k, lam=lam: secular_function(k, lam, 0.2, ATOMIC), 1.0 / hi, 1.0 / lo)
                for lam in (1.0, -1.0)
                for n in (2, 3)
                for lo, hi in [_interlacing_bracket(lam, 0.2, n)]
            ],
        ],
    )
    def test_returns_the_float_of_bisection(self, f, lo, hi):
        expected, bisections = _bisection(f, lo, hi)
        assert _one_sign_change_near(f, expected)
        root, value, evaluations = _solve(f, lo, hi)
        assert root == expected
        assert value == f(root)
        assert evaluations < bisections / 2

    @pytest.mark.parametrize("c", [0.3, 1.0 / 3.0, 0.71, 0.123456789])
    @pytest.mark.parametrize(
        "shape",
        [lambda x, c: (x - c) ** 9, lambda x, c: -1.0 if x < c else 2.0],
        ids=["ninth-power", "step"],
    )
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 2.0)])
    def test_at_most_twice_bisection(self, shape, c, lo, hi):
        # no interpolation helps here; bisection is counted to two adjacent
        # floats, since it may land on an exact zero a few steps earlier
        def f(x):
            return shape(x, c)

        root, value, evaluations = _solve(f, lo, hi)
        below, above = math.nextafter(root, -math.inf), math.nextafter(root, math.inf)
        assert value == 0.0 or (f(below) < 0.0) != (f(above) < 0.0)
        assert evaluations <= 2 * _bisection(f, lo, hi, stop_on_zero=False)[1]

    def test_exact_zeros_returned_at_once(self):
        assert _bracketed_root(math.sin, 0.0, 1.0, 0.0, 1.0) == (0.0, 0.0)
        assert _bracketed_root(math.sin, -1.0, 0.0, -1.0, 0.0) == (0.0, 0.0)
        assert _solve(lambda x: x - 0.5, 0.0, 1.0) == (0.5, 0.0, 1)

    def test_tiny_values_compare_signs(self):
        # products of these values underflow to 0.0
        assert _solve(lambda x: 1e-200 * (x - 0.25), 0.0, 1.0)[0] == 0.25

    def test_unbracketed_input_raises(self):
        with pytest.raises(RootSearchError, match="not bracketed"):
            _solve(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_bracket_not_closed_within_the_cap_raises(self):
        # the sign change sits at 1e-300, about 1000 halvings below [-1, 1]:
        # bisection's step cap once returned a bracket's midpoint here
        calls = []

        def step(x):
            calls.append(x)
            return -1.0 if x < 1e-300 else 1.0

        with pytest.raises(RootSearchError, match="400 evaluations"):
            _bracketed_root(step, -1.0, 1.0, -1.0, 1.0)
        assert len(calls) == 400

    def test_reciprocal_gamma_calls_per_root(self, monkeypatch):
        # bisection to adjacent floats took about 110 calls per root here
        calls = []
        real = secular.reciprocal_gamma
        monkeypatch.setattr(secular, "reciprocal_gamma", lambda z: calls.append(z) or real(z))
        roots = sum(
            len(solve_secular(lam, j, ATOMIC, 6))
            for lam in (-1e-3, 1e-3, -1.0, 1.0, -1e3, 1e3)
            for j in (0.01, 0.2, 0.49)
        )
        assert roots == 108
        assert len(calls) <= 20 * roots
        # the lambda < 0 ground states alone, in log t: about 28 calls each,
        # 53 on F without its (2 kappa)^(-2|j|) weight, 128 by bisection
        calls.clear()
        for lam in (-1e-3, -1.0, -1e3):
            for j in (0.01, 0.2, 0.49):
                solve_secular(lam, j, ATOMIC, 1)
        assert len(calls) <= 40 * 9


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


class TestLadderSnap:
    """A closed-form ladder kappa puts a (regular) or a' (irregular) exactly
    on 1 - n, so the coefficient of the other piece is exactly zero."""

    PARAMS = PhysicalParams(m_e=1.3, hbar=0.7, eta=2.9)

    @pytest.mark.parametrize("aj", [1e-6, 0.2, 0.5 - 1e-9])
    @pytest.mark.parametrize("branch", ["regular", IRREGULAR])
    def test_ladder_parameters_are_exact(self, aj, branch):
        params = self.PARAMS
        lam = 0.0 if branch == "regular" else math.inf
        roots = solve_secular(lam, aj, params, 8)
        for n in range(1, 9):
            state = QuantumState(n, 0, 1, branch)
            closed = closed_form_energy(state, params, decompose_flux(aj)).kappa
            for kappa in (closed, roots[n - 1].kappa):
                kp = KummerParams.for_state(kappa, aj, params)
                coeffs = normalizable_coefficients(kp)
                if branch == "regular":
                    assert kp.a == 1.0 - n
                    assert coeffs.b_m == 0.0
                else:
                    assert kp.a_prime == 1.0 - n
                    assert coeffs.a_m == 0.0


class TestRootsCarryT:
    """Each root carries the t it was solved in, with kappa = q/t."""

    PARAMS = (ATOMIC, PhysicalParams(m_e=1.3, hbar=0.7, eta=2.9, omega=0.37),
              PhysicalParams(m_e=0.02, hbar=3.1, eta=0.6, omega=-1.9))

    @pytest.mark.parametrize("params", PARAMS)
    def test_ladder_t_gives_the_closed_form_bit_for_bit(self, params):
        # t = n - 1/2 +- |j|, the float closed_form_energy forms, so the one
        # energy formula on the root's t is the closed form's on every field
        for phi, branch, s in itertools.product((0.3, -0.45, 1e-6, 0.2), (REGULAR, IRREGULAR),
                                                (1, -1)):
            lam = 0.0 if branch == REGULAR else math.inf
            roots = solve_secular(lam, phi, params, 12)
            for n, root in enumerate(roots, start=1):
                res = closed_form_energy(QuantumState(n, 0, s, branch), params, decompose_flux(phi))
                assert root.t == n - 0.5 + (abs(phi) if branch == REGULAR else -abs(phi))
                coulomb, rotation = _energy_terms(params, params.omega, root.t, phi, s)
                assert (root.kappa, params.q / root.t) == (res.kappa, res.kappa)
                assert (coulomb, rotation, coulomb + rotation) == (
                    res.coulomb_energy, res.rotation_energy, res.energy)

    @pytest.mark.parametrize("params", PARAMS)
    @pytest.mark.parametrize("lam", [-1.0, -1e-3, 2.5, 1e6])
    def test_finite_lambda_kappa_is_q_over_t(self, params, lam):
        q = params.q
        roots = solve_secular(lam, 0.3, params, 5)
        assert [r.kappa for r in roots] == [q / r.t for r in roots]
        # ground state first: t increases
        assert all(0.0 < a.t < b.t for a, b in zip(roots, roots[1:]))

    def test_zero_coupling_root_has_t_zero(self):
        (root,) = solve_secular(-1.0, 0.3, PhysicalParams(eta=0.0), 3)
        assert root.t == 0.0 and root.kappa > 0.0

    @pytest.mark.parametrize("lam", [-1e300, -1e200, -5e-324])
    def test_zero_coupling_root_beyond_float_range_refused(self, lam):
        # kappa ~ |lambda|^(-1/(2|j|)) underflows at a huge |lambda|, and
        # overflows where lambda Gamma(b')/Gamma(a') rounds to 0; both once
        # raised ZeroDivisionError
        with pytest.raises(RootSearchError, match="float range"):
            solve_secular(lam, 0.3, PhysicalParams(eta=0.0), 1)
