import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcoulomb.model import PhysicalParams
from abcoulomb.secular import KummerParams, solve_secular
from abcoulomb.specfun import (
    GammaPoleError,
    X_SWITCH,
    gamma,
    kummer_1f1,
    reciprocal_gamma,
    reciprocal_gamma_array,
    tricomi_u,
)

SQRT_PI = 1.7724538509055160


class TestGamma:
    def test_gamma_one(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_gamma_half(self):
        assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-14)

    def test_pole_raises(self):
        for z in (0.0, -1.0, -2.0, -3.0, -17.0):
            with pytest.raises(GammaPoleError):
                gamma(z)

    def test_factorials(self):
        fact = 1.0
        for n in range(1, 20):
            fact *= n
            assert gamma(n + 1.0) == pytest.approx(fact, rel=1e-13)

    @given(st.floats(min_value=0.1, max_value=20.0))
    def test_recurrence(self, z):
        assert gamma(z + 1.0) == pytest.approx(z * gamma(z), rel=1e-12)

    def test_reflection_negative(self):
        # Gamma(-0.5) = -2 sqrt(pi)
        assert gamma(-0.5) == pytest.approx(-2.0 * SQRT_PI, rel=1e-13)


class TestReciprocalGamma:
    def test_zero_at_nonpositive_integers(self):
        for z in (0.0, -1.0, -2.0, -6.0, -40.0):
            assert reciprocal_gamma(z) == 0.0

    def test_one_at_one(self):
        assert reciprocal_gamma(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_product_identity(self):
        assert reciprocal_gamma(3.5) * gamma(3.5) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=-30.0, max_value=30.0))
    def test_product_everywhere(self, z):
        if abs(z - round(z)) < 1e-6 and z < 0.5:
            return
        assert reciprocal_gamma(z) * gamma(z) == pytest.approx(1.0, rel=1e-12)

    def test_array_matches_scalar(self):
        zs = np.linspace(-12.3, 18.7, 501)
        vec = reciprocal_gamma_array(zs)
        sca = np.array([reciprocal_gamma(float(z)) for z in zs])
        scale = np.maximum(np.abs(sca), 1.0)
        assert np.max(np.abs(vec - sca) / scale) < 1e-13

    def test_array_zero_at_poles(self):
        assert np.all(reciprocal_gamma_array(np.array([0.0, -1.0, -5.0])) == 0.0)


class TestKummer:
    def test_at_zero(self):
        for a, b in [(0.7, 1.3), (-2.5, 0.4), (3.0, 2.0)]:
            assert kummer_1f1(a, b, 0.0) == 1.0
        # next to zero on either side: 1 + a x / b
        for a, b in [(0.0625, 1.0), (-0.125, 1.375), (0.05, 0.9), (-0.35, 4.0)]:
            for x in (-5e-324, -1e-200, -1e-170, 1e-300):
                assert kummer_1f1(a, b, x) == 1.0
            assert kummer_1f1(a, b, np.array([-1e-200, 0.0]))[0] == 1.0

    def test_exponential_case(self):
        assert kummer_1f1(1.0, 1.0, 2.0) == pytest.approx(math.e**2, rel=1e-14)

    def test_terminating_polynomial(self):
        # 1F1(-1, 2, 3) = 1 - 3/2
        assert kummer_1f1(-1.0, 2.0, 3.0) == -0.5

    def test_polynomial_values(self):
        for k in range(0, 7):
            # brute-force Horner-style partial sums as the oracle
            term, total = 1.0, 1.0
            for i in range(k):
                term *= (-k + i) * 2.3 / ((1.7 + i) * (i + 1.0))
                total += term
            assert kummer_1f1(-float(k), 1.7, 2.3) == pytest.approx(total, rel=1e-14)

    def test_b_pole_rejected(self):
        with pytest.raises(GammaPoleError):
            kummer_1f1(0.5, 0.0, 1.0)
        with pytest.raises(GammaPoleError):
            kummer_1f1(0.5, -3.0, 1.0)

    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.3, max_value=4.0),
        st.floats(min_value=-20.0, max_value=20.0),
    )
    @settings(max_examples=60)
    def test_kummer_transformation(self, a, b, x):
        lhs = math.exp(-x) * kummer_1f1(a, b, x)
        rhs = kummer_1f1(b - a, b, -x)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_ode_residual(self):
        # five-point central differences; see the matching verify check
        h = 6e-3
        for a in (-1.7, 0.4, 2.2):
            for b in (0.8, 1.9):
                for x in (0.5, 3.0, 12.0, 22.0):
                    y0 = kummer_1f1(a, b, x)
                    yp1 = kummer_1f1(a, b, x + h)
                    ym1 = kummer_1f1(a, b, x - h)
                    yp2 = kummer_1f1(a, b, x + 2 * h)
                    ym2 = kummer_1f1(a, b, x - 2 * h)
                    d1 = (-yp2 + 8 * yp1 - 8 * ym1 + ym2) / (12 * h)
                    d2 = (-yp2 + 16 * yp1 - 30 * y0 + 16 * ym1 - ym2) / (12 * h * h)
                    res = abs(x * d2 + (b - x) * d1 - a * y0)
                    assert res <= 1e-8 * max(1.0, abs(y0))


class TestAsymptotic:
    def test_equal_parameters_reduce_to_exponential(self):
        assert kummer_1f1(1.4, 1.4, 40.0) == pytest.approx(math.exp(40.0), rel=1e-13)
        # U(a, a + 1, x) = x^{-a} (DLMF 13.6.4): the expansion terminates,
        # also where a - b + 1 is zero only up to the rounding of 0.9 and 1.9
        assert tricomi_u(1.4, 2.4, 40.0) == pytest.approx(40.0**-1.4, rel=1e-14)
        for x in (0.5, 20.0, 29.0, 30.0):
            assert tricomi_u(0.9, 1.9, x) == pytest.approx(x**-0.9, rel=1e-14)

    def test_polynomial_has_no_growth(self):
        # 1F1(-2, b, x) = 1 - 2x/b + x^2/(b(b+1)): no e^x part at large x
        b, x = 1.4, 40.0
        assert kummer_1f1(-2.0, b, x) == pytest.approx(
            1.0 - 2.0 * x / b + x * x / (b * (b + 1.0)), rel=1e-13
        )
        # a - b + 1 = -2: U(0.5, 3.5, x) = x^{-1/2} (1 + 1/x + 3/(4 x^2)), where
        # the terms grow at small x and no smallest-term cut may drop one
        for x in (0.01, 0.5, 5.0, 29.0, 40.0):
            with mpmath.workdps(40):
                ref = float(mpmath.hyperu(0.5, 3.5, x))
            assert tricomi_u(0.5, 3.5, x) == pytest.approx(ref, rel=1e-14)

    def test_series_asymptotic_crossover(self):
        # hyperu at X_SWITCH against the asymptotic branch just above it
        below = tricomi_u(0.5, 2.0, X_SWITCH)
        above = tricomi_u(0.5, 2.0, math.nextafter(X_SWITCH, math.inf))
        assert above == pytest.approx(below, rel=1e-12)

    def test_crossover_more_parameters(self):
        # judged against the peak of x^{|j|} e^{-x/2} U, as the profiles are
        grid = np.geomspace(1e-3, X_SWITCH, 200)
        above = math.nextafter(X_SWITCH, math.inf)
        for a, b in [(0.3, 1.4), (-0.55, 1.1), (-1.6, 1.4), (-2.0, 1.8),
                     (-2.0 + 4e-16, 1.8), (-0.9, 1.09), (0.9, 1.9)]:
            aj = (b - 1.0) / 2.0
            peak = np.max(np.abs(grid**aj * np.exp(-0.5 * grid) * tricomi_u(a, b, grid)))
            gap = abs(tricomi_u(a, b, X_SWITCH) - tricomi_u(a, b, above))
            assert gap * X_SWITCH**aj * math.exp(-0.5 * X_SWITCH) <= 1e-10 * peak

    def test_large_x_continuity_at_switch(self):
        # value just above the switch stays consistent with just below
        lo = tricomi_u(-1.1, 1.8, X_SWITCH - 1e-9)
        hi = tricomi_u(-1.1, 1.8, X_SWITCH + 1e-9)
        assert hi == pytest.approx(lo, rel=1e-8)

    def test_array_and_domain(self):
        xs = np.array([0.5, 10.0, 45.0])
        values = tricomi_u(0.3, 1.4, xs)
        assert values.shape == xs.shape
        assert values[2] == tricomi_u(0.3, 1.4, 45.0)
        with pytest.raises(ValueError):
            tricomi_u(0.3, 1.4, np.array([1.0, 0.0]))


ATOMIC = PhysicalParams()
SPOT_X = np.geomspace(2e-4, 70.0, 25)


def _spot_cases():
    """(function, a, b, |j|) of the profiles' radial pieces: the regular
    ladder through 1F1, the irregular ladder and finite-lambda states
    through U, and two growing 1F1 pieces."""
    cases = []
    for aj in (0.03, 0.41, 1.3, 2.6):
        for n in (1, 2, 3, 4):
            cases.append(("1f1", 1.0 - n, 1.0 + 2.0 * aj, aj))
    for aj in (0.1, 0.45):
        for n in (1, 2, 3, 4):
            cases.append(("u", 1.0 - n + 2.0 * aj, 1.0 + 2.0 * aj, aj))
    for lam, j in ((-1.0, 0.2), (1.0, 0.3), (-0.01, 0.1), (1000.0, 0.45)):
        for root in solve_secular(lam, j, ATOMIC, 3):
            kp = KummerParams.for_state(root.kappa, j, ATOMIC)
            cases.append(("u", kp.a, kp.b, j))
    cases += [("1f1", 0.3, 1.4, 0.2), ("1f1", -1.7, 1.8, 0.4)]
    return cases


@pytest.mark.parametrize("fn, a, b, aj", _spot_cases())
def test_mpmath_spot_table(fn, a, b, aj):
    """40-digit mpmath values of x^{|j|} e^{-x/2} f(a, b, x) on the
    profiles' x range, judged by absolute error against the peak."""
    with mpmath.workdps(40):
        mp_f = mpmath.hyp1f1 if fn == "1f1" else mpmath.hyperu
        ref = np.array([float(mp_f(a, b, x)) for x in SPOT_X])
    ours = (kummer_1f1 if fn == "1f1" else tricomi_u)(a, b, SPOT_X)
    envelope = SPOT_X**aj * np.exp(-0.5 * SPOT_X)
    peak = np.max(np.abs(envelope * ref))
    assert np.max(np.abs(envelope * (ours - ref))) <= 1e-10 * peak
