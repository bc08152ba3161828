import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from abcoulomb import specfun
from abcoulomb.model import PhysicalParams
from abcoulomb.secular import (
    KummerParams,
    RootSearchError,
    normalizable_coefficients,
    solve_secular,
)
from abcoulomb.specfun import (
    GammaPoleError,
    gamma,
    kummer_1f1,
    reciprocal_gamma,
    reciprocal_gamma_array,
    tricomi_u,
)
from abcoulomb.wavefunction import build_profile

SQRT_PI = 1.7724538509055160
# The large-x expansion's first candidate start: for mild (a, b) U is the
# expansion from here on and the march below it, for others the march runs
# on through it.  Either way U is continuous across it.
X_SWITCH = 30.0


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

    def test_float_range_ends(self):
        # Gamma(172) overflows, so its reciprocal underflows to 0; 1/Gamma(-180.5)
        # is about 1e329, beyond the float range
        assert reciprocal_gamma(172.0) == 0.0
        with pytest.raises(OverflowError):
            reciprocal_gamma(-180.5)
        # Gamma overflows next to 0 too, where 1/Gamma(z) = z in floats
        assert reciprocal_gamma(1e-320) == 1e-320
        assert reciprocal_gamma(-1e-320) == -1e-320

    @pytest.mark.parametrize("z, expected", [
        (0.0, 0.0), (-0.0, 0.0), (-1.0, 0.0), (-171.0, 0.0), (-1e300, 0.0),
        (math.inf, ValueError), (-math.inf, ValueError), (math.nan, ValueError),
        (1e-320, 1e-320), (-1e-320, -1e-320), (171.7, 0.0),
        (-171.5, OverflowError), (-180.5, OverflowError),
    ])
    def test_edge_arguments(self, z, expected):
        if isinstance(expected, type):
            with pytest.raises(expected):
                reciprocal_gamma(z)
        else:
            result = reciprocal_gamma(z)
            assert (result, math.copysign(1.0, result)) == (expected, math.copysign(1.0, expected))

    def test_half_integers_and_range_ends_against_mpmath(self):
        # every k + 1/2 on [-200, 200) and the ends of the float range; where
        # 1/Gamma is beyond the float range it raises, and where it is
        # subnormal only its absolute size is pinned
        for z in [k + 0.5 for k in range(-200, 200)] + [171.6, 171.62, -170.5]:
            exact = float(mpmath.rgamma(mpmath.mpf(z)))
            if math.isinf(exact):
                with pytest.raises(OverflowError):
                    reciprocal_gamma(z)
            else:
                assert reciprocal_gamma(z) == pytest.approx(exact, rel=1e-13, abs=1e-305), z


def _accuracy_points():
    """Seeded z in [-20, 40] and n +- 10^-k next to the poles n = 0..-20
    (those that do not round onto the pole)."""
    uniform = np.random.default_rng(5).uniform(-20.0, 40.0, 2000)
    near_poles = [n + sign * 10.0**-k
                  for n in range(0, -21, -1) for sign in (1.0, -1.0) for k in range(1, 16)]
    return np.concatenate([uniform, [z for z in near_poles if z != round(z)]])


class TestAgainstMpmath:
    """Relative error against 40-digit mpmath of at most 2e-15, a bound
    that the standard g = 7, n = 9 Lanczos kernel misses at 1.4e-14."""

    RTOL = 2e-15

    @pytest.fixture(scope="class")
    def reference(self):
        zs = _accuracy_points()
        with mpmath.workdps(40):
            rgammas = np.array([float(mpmath.rgamma(z)) for z in zs.tolist()])
        return zs, rgammas

    def test_reciprocal_gamma(self, reference):
        zs, ref = reference
        ours = np.array([reciprocal_gamma(z) for z in zs.tolist()])
        assert np.max(np.abs(ours / ref - 1.0)) <= self.RTOL

    def test_reciprocal_gamma_array(self, reference):
        zs, ref = reference
        assert np.max(np.abs(reciprocal_gamma_array(zs) / ref - 1.0)) <= self.RTOL

    def test_gamma(self, reference):
        zs, ref = reference
        ours = np.array([gamma(z) for z in zs.tolist()])
        assert np.max(np.abs(ours * ref - 1.0)) <= self.RTOL


class TestKummer:
    def test_at_zero(self):
        for a, b in [(0.0, 1.7), (-1.0, 1.3), (-4.0, 0.4), (-9.0, 2.0)]:
            assert kummer_1f1(a, b, 0.0) == pytest.approx(1.0, rel=1e-14)
            # next to zero on either side: 1 - m x / b
            for x in (-1e-200, 5e-324, 1e-300):
                assert kummer_1f1(a, b, x) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("a", [0.7, -2.5, 3.0, -1.0 + 1e-15])
    def test_non_terminating_a_refused(self, a):
        # no profile needs a 1F1 that grows like e^x
        with pytest.raises(ValueError, match="only the terminating 1F1"):
            kummer_1f1(a, 1.3, 2.0)

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

    def test_ode_residual(self):
        # Kummer's equation x M'' + (b - x) M' + m M = 0 on the Laguerre
        # path, by five-point central differences relative to max(1, |M|)
        h = 6e-3
        for a in (-1.0, -4.0, -9.0):
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
        # U(a, a + 1, x) = x^{-a} (DLMF 13.6.4): the expansion terminates,
        # also where a - b + 1 is zero only up to the rounding of 0.9 and 1.9,
        # and the march below x = 30 keeps it
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
        # the terms grow at small x and no smallest-term cut may drop one;
        # below x = 30 the march keeps it, the x^{1-b} solution at the origin
        for x in (0.01, 0.5, 5.0, 29.0, 40.0):
            with mpmath.workdps(40):
                ref = float(mpmath.hyperu(0.5, 3.5, x))
            assert tricomi_u(0.5, 3.5, x) == pytest.approx(ref, rel=1e-14)

    def test_series_asymptotic_crossover(self):
        # U at X_SWITCH against U just above it
        below = tricomi_u(0.5, 2.0, X_SWITCH)
        above = tricomi_u(0.5, 2.0, math.nextafter(X_SWITCH, math.inf))
        assert above == pytest.approx(below, rel=1e-12)

    def test_crossover_more_parameters(self):
        # judged against the peak of x^{|j|} e^{-x/2} U, as the profiles are
        grid = np.geomspace(1e-3, X_SWITCH, 200)
        above = math.nextafter(X_SWITCH, math.inf)
        for a, b in [(0.3, 1.4), (-0.55, 1.1), (-1.6, 1.4),
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

    @pytest.mark.parametrize("a, b", [(0.0, 1.4), (-1.0, 1.6), (-3.0, 3.5), (-40.0, 1.2)])
    def test_nonpositive_integer_a_refused(self, a, b):
        # U(-m, b, x) is a multiple of the polynomial 1F1(-m, b, x), recessive
        # at the origin, where the march follows the x^{1-b} solution
        with pytest.raises(ValueError, match="nonpositive integer a"):
            tricomi_u(a, b, np.array([0.5, 40.0]))

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
    ladder through 1F1, and through U the finite-lambda states and the
    irregular ladder, whose a - b + 1 = 1 - n."""
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


@pytest.mark.parametrize("aj", [0.05, 0.3, 0.45, 10.3, 100.3])
@pytest.mark.parametrize("n", [2, 15, 25, 40, 60])
def test_ladder_polynomials_against_mpmath(n, aj):
    """The terminating 1F1 of the regular ladder and U of the irregular one
    (|j| < 1/2, a - b + 1 = 1 - n, by the expansion and the march), on the
    x range of their profiles, judged by absolute error against the peak of
    x^{|j|} e^{-x/2} f, as the profiles are.  U's power sum lost 3.3e-7 of
    the peak at n = 25 and all of it at n = 40."""
    x = np.geomspace(2e-4, max(70.0, 10.0 * (n - 0.5 + aj)), 4000)[::7]
    cases = [("1f1", 1.0 - n, 1.0 + 2.0 * aj)]
    if aj < 0.5:
        cases.append(("u", 1.0 - n + 2.0 * aj, 1.0 + 2.0 * aj))
    for fn, a, b in cases:
        ours = (kummer_1f1 if fn == "1f1" else tricomi_u)(a, b, x)
        with mpmath.workdps(30):
            mp_f = mpmath.hyp1f1 if fn == "1f1" else mpmath.hyperu
            # in mpmath throughout: x^{|j|} overflows a float at |j| = 100.3
            envelope = [mpmath.exp(aj * mpmath.log(v) - v / 2) for v in x.tolist()]
            ref = [mp_f(a, b, v) for v in x.tolist()]
            peak = max(abs(e * r) for e, r in zip(envelope, ref))
            worst = max(abs(e * (o - r)) for e, o, r in zip(envelope, ours.tolist(), ref)) / peak
        assert worst <= 1e-10, (fn, float(worst))


def _profile_meshes():
    """(lambda, |j|, root, a, b, x) of the finite-lambda profiles: x = 2 kappa r
    on build_profile's 4000-point mesh, for every state the solver returns."""
    meshes = []
    for lam in (-1e-2, 1e-2, -1.0, 1.0, -1e2, 1e2, 1e3):
        for aj in (0.003, 0.1, 0.3, 0.45, 0.499):
            try:
                roots = solve_secular(lam, aj, ATOMIC, 3)
            except RootSearchError:  # lambda = -0.01, |j| = 0.003: kappa beyond floats
                continue
            for index, root in enumerate(roots, start=1):
                kp = KummerParams.for_state(root.kappa, aj, ATOMIC)
                profile = build_profile(normalizable_coefficients(kp), root.kappa, aj, ATOMIC)
                meshes.append((lam, aj, index, kp.a, kp.b, 2.0 * root.kappa * profile.r))
    return meshes


PROFILE_MESHES = _profile_meshes()


def _envelope_peak(aj, x, u):
    envelope = x**aj * np.exp(-0.5 * x)
    return envelope, np.max(np.abs(envelope * u))


def test_profile_meshes_cover_the_origin_node_start():
    # a lambda < 0 mesh starts at r0/100, below 1e-4/kappa (x = 2e-4)
    assert len(PROFILE_MESHES) >= 90
    assert min(x[0] for *_, x in PROFILE_MESHES) < 1e-10


@pytest.mark.parametrize(
    "lam, aj, root, a, b, x", PROFILE_MESHES, ids=[f"{m[0]}-{m[1]}-{m[2]}" for m in PROFILE_MESHES]
)
def test_u_on_profile_meshes_against_mpmath(lam, aj, root, a, b, x):
    """U on a whole 4000-point profile mesh, the march below the
    expansion's start and the Horner expansion beyond, against 30-digit
    mpmath at every 53rd sample, within 2e-11 of the peak of
    x^{|j|} e^{-x/2} U."""
    ours = tricomi_u(a, b, x)
    envelope, peak = _envelope_peak(aj, x, ours)
    sample = slice(0, None, 53)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.hyperu(a, b, v)) for v in x[sample].tolist()])
    assert np.max(np.abs(envelope[sample] * (ours[sample] - ref))) <= 2e-11 * peak


@pytest.mark.parametrize("lam, aj, root", [(1.0, 0.3, 10), (0.01, 0.1, 7)])
def test_u_where_hyperu_is_not_finite(lam, aj, root):
    """scipy's hyperu is nan at a few samples of these profile meshes
    (a <~ -6).  Those samples and every 53rd are within 2e-11 of the peak
    of x^{|j|} e^{-x/2} U against 30-digit mpmath."""
    from scipy import special

    kappa = solve_secular(lam, aj, ATOMIC, root)[-1].kappa
    kp = KummerParams.for_state(kappa, aj, ATOMIC)
    x = 2.0 * kappa * build_profile(normalizable_coefficients(kp), kappa, aj, ATOMIC).r
    unfinished = ~np.isfinite(special.hyperu(kp.a, kp.b, x))
    assert unfinished.any()
    ours = tricomi_u(kp.a, kp.b, x)
    envelope, peak = _envelope_peak(aj, x, ours)
    sample = np.union1d(np.flatnonzero(unfinished), np.arange(0, x.size, 53))
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.hyperu(kp.a, kp.b, v)) for v in x[sample].tolist()])
    assert np.max(np.abs(envelope[sample] * (ours[sample] - ref))) <= 2e-11 * peak


@pytest.mark.parametrize("aj", [1e-9, 1e-6, 0.3, 0.49])
@pytest.mark.parametrize("lam", [1.0, -1.0])
def test_finite_lambda_profiles_through_root_30(lam, aj):
    """Roots 1, 3, 12, 20 and 30 of lambda = +-1 are built, and their U is
    within 1e-10 of the peak of x^{|j|} e^{-x/2} U against 30-digit mpmath
    at every 40th sample: the |j| -> 0 edge, where hyperu loses digits, and
    the high roots, where it is not finite."""
    roots = solve_secular(lam, aj, ATOMIC, 30)
    for index in (1, 3, 12, 20, 30):
        kappa = roots[index - 1].kappa
        kp = KummerParams.for_state(kappa, aj, ATOMIC)
        profile = build_profile(normalizable_coefficients(kp), kappa, aj, ATOMIC)
        x = 2.0 * kappa * profile.r
        ours = tricomi_u(kp.a, kp.b, x)
        envelope, peak = _envelope_peak(aj, x, ours)
        sample = slice(0, None, 40)
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.hyperu(kp.a, kp.b, v)) for v in x[sample].tolist()])
        assert np.max(np.abs(envelope[sample] * (ours[sample] - ref))) <= 1e-10 * peak, index


@pytest.mark.parametrize(
    "a, b, x", [(0.3, 1.4, [1e-3, 1.0, 300.0, 1e4]), (-28.7, 1.4, [0.01, 30.0, 100.0, 600.0])]
)
def test_u_on_mixed_arrays_against_mpmath(a, b, x):
    """One array with x far below and far above the expansion's start
    (x_s = 45 and 513 here) against 30-digit mpmath, within 1e-13 of
    |U| + x|U'|/(1 + |a|).  That is |U| up to a factor of about 2, except
    next to a zero of U (x = 100 at a = -28.7, where U is 1/300 of its
    neighbours).  At a = -28.7 the expansion at x = 30 cancels to 1e-4."""
    ours = tricomi_u(a, b, np.array(x))
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.hyperu(a, b, v)) for v in x])
        slope = np.array([float(-a * v * mpmath.hyperu(a + 1, b + 1, v)) for v in x])
    scale = np.abs(ref) + np.abs(slope) / (1.0 + abs(a))
    assert np.max(np.abs(ours - ref) / scale) <= 1e-13


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [-99.5, -85.3])
def test_u_below_an_expansion_start_beyond_the_float_range(a):
    """U(a, 1.6, x_s) is beyond the float range (x_s = 5 839 and 3 892,
    U about 1e375 and 1e306), U on a profile's x range is not: marched from
    a mantissa and a binary exponent it is within 1e-12 of the peak of
    x^{|j|} e^{-x/2} U against 30-digit mpmath, with no overflow on the way."""
    b = 1.6
    aj = 0.5 * (b - 1.0)
    x = np.geomspace(1e-4, 10.0 * (0.5 + aj - a), 120)
    ours = tricomi_u(a, b, x)
    envelope, peak = _envelope_peak(aj, x, ours)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.hyperu(a, b, v)) for v in x.tolist()])
    assert np.max(np.abs(envelope * (ours - ref))) <= 1e-12 * peak


def test_array_call_agrees_with_calls_on_its_pieces():
    """A mesh in one call and in pieces of a few hundred samples, each with
    its own smallest and largest x, agree within 2e-11 of the peak."""
    for lam, aj, root, a, b, x in PROFILE_MESHES[::17]:
        ours = tricomi_u(a, b, x)
        pieces = np.concatenate([tricomi_u(a, b, chunk) for chunk in np.array_split(x, 13)])
        envelope, peak = _envelope_peak(aj, x, ours)
        assert np.max(np.abs(envelope * (ours - pieces))) <= 2e-11 * peak, (lam, aj, root)


def test_u_near_b_one_where_hyperu_is_noisy():
    """Near b = 1 scipy's hyperu is noisy at x = 10-30 (1e-4 off relative
    at a = 0.95, b = 1.006, x = 17).  On this |j| = 0.001 profile mesh U is
    within 1e-10 of the peak of x^{|j|} e^{-x/2} U there."""
    aj = 0.001
    a, b = 0.5 + aj - 1.85, 1.0 + 2.0 * aj
    x = np.geomspace(2e-4, 70.0, 4000)
    ours = tricomi_u(a, b, x)
    envelope, peak = _envelope_peak(aj, x, ours)
    sample = np.flatnonzero((x >= 10.0) & (x <= X_SWITCH))[::2]
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.hyperu(a, b, v)) for v in x[sample].tolist()])
    assert np.max(np.abs(envelope[sample] * (ours[sample] - ref))) <= 1e-10 * peak


def test_u_calls_nothing_in_scipy_special(monkeypatch):
    """U, with a terminating expansion or not, on profile meshes and on
    arrays that mix small and large x, is computed with scipy.special out of
    reach: its hyperu
    raises, and importing it fails."""
    import sys

    import scipy
    from scipy import special

    def refuse(*args):
        raise AssertionError("scipy.special.hyperu called")

    monkeypatch.setattr(special, "hyperu", refuse)
    monkeypatch.delattr(scipy, "special", raising=False)
    monkeypatch.setitem(sys.modules, "scipy.special", None)
    for *_, a, b, x in PROFILE_MESHES[::9]:
        assert np.all(np.isfinite(tricomi_u(a, b, x)))
    assert np.all(np.isfinite(tricomi_u(-28.7, 1.4, np.array([0.01, 30.0, 100.0, 600.0]))))
    assert math.isfinite(tricomi_u(0.5, 3.5, 2.0))


@pytest.mark.parametrize(
    "a, b",
    [(-1.0 + 1e-15, 1.6), (0.3, 1.4), (-0.55, 1.1), (-1.6, 1.4), (0.9, 1.9), (0.6, 1.2),
     (0.002, 1.2), (-2.49, 1.9), (-5.3, 1.5), (-7.5, 1.6), (0.5, 1.998)],
)
def test_asymptotic_expansion_against_mpmath(a, b):
    """x^{-a} times the large-x sum by Horner, one order for the whole
    array, within 1e-14 relative of 30-digit mpmath on (30, 120].  At
    a = -1 + 1e-15, b = 1.6 hyperu is off by up to 7e5 times the value at
    x = 55-70."""
    x = np.linspace(120.0, X_SWITCH, 60, endpoint=False)[::-1]
    ours = x ** (-a) * specfun._asymptotic_alg_sum(a, b, x)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.hyperu(a, b, v)) for v in x.tolist()])
    assert np.max(np.abs(ours / ref - 1.0)) <= 1e-14
