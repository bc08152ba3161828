import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre

from abcoulomb.model import PhysicalParams, SectorError
from abcoulomb.secular import (
    KummerParams,
    SolutionCoefficients,
    normalizable_coefficients,
    solve_secular,
)
from abcoulomb.wavefunction import (
    RadialProfile,
    ResolutionError,
    TruncationError,
    _radial_values,
    _state_terms,
    boundary_closure_residual,
    build_profile,
    normalize_and_count_nodes,
)

ATOMIC = PhysicalParams()


def longdouble_series_value(r, a_m, b_m, kappa, j, params=ATOMIC, nterms=200):
    """Independent high-resolution oracle: extended-precision power series."""
    aj = abs(j)
    t = params.q / kappa
    x = np.longdouble(2.0 * kappa * r)

    def series(a, b):
        term = np.longdouble(1.0)
        total = np.longdouble(1.0)
        for k in range(nterms):
            term = term * (a + k) * x / ((b + k) * (k + 1))
            total += term
        return total

    a = np.longdouble(0.5 + aj - t)
    b = np.longdouble(1.0 + 2 * aj)
    ap = np.longdouble(0.5 - aj - t)
    bp = np.longdouble(1.0 - 2 * aj)
    value = a_m * x ** np.longdouble(aj) * np.exp(-x / 2) * series(a, b)
    value += b_m * x ** np.longdouble(-aj) * np.exp(-x / 2) * series(ap, bp)
    return float(value)


def radial_solution(r, coeffs, kp):
    """The bound state that ``coeffs`` give at radius r, from the package's
    array path."""
    return float(_radial_values(np.array([2.0 * kp.kappa * r]), _state_terms(coeffs, kp))[0])


def _state(lam, j, index):
    """kappa and the normalizable coefficients of root ``index`` of lambda."""
    kappa = solve_secular(lam, j, ATOMIC, index)[-1].kappa
    return kappa, normalizable_coefficients(_kp(kappa, j))


def small_r_expansion(r, coeffs, kp):
    """Quadratic-order product expansion of the radial solution near the
    origin, the independent reference for its origin behavior; valid for
    x = 2 kappa r <= 0.1."""
    x = 2.0 * kp.kappa * r
    assert x <= 0.1, f"the small-r expansion requires x <= 0.1, got x = {x}"
    aj = kp.abs_j
    shared = x * x - 4.0 * x + 8.0
    value = 0.0
    for coeff, a, b, power in ((coeffs.a_m, kp.a, kp.b, aj),
                               (coeffs.b_m, kp.a_prime, kp.b_prime, -aj)):
        if coeff != 0.0:
            quad = (a * a + a) * x * x + 2.0 * (a * x + b) * (b + 1.0)
            value += coeff * shared * x**power * quad / (16.0 * b * (b + 1.0))
    return value


class TestRadialSolution:
    def test_regular_branch_vanishes_at_origin(self):
        # the n = 2 regular ladder state
        kp = KummerParams.for_state(1.0 / 1.8, 0.3, ATOMIC)
        coeffs = SolutionCoefficients(1.0, 0.0)
        values = [radial_solution(r, coeffs, kp) for r in (1e-5, 1e-7, 1e-9)]
        ratios = [values[i + 1] / values[i] for i in range(2)]
        # r^{|j|} decay: each factor-100 step scales by 100^{-0.3}
        for ratio in ratios:
            assert ratio == pytest.approx(100.0**-0.3, rel=1e-4)

    def test_terminating_ground_state_shape(self):
        # n=1 regular state: a = 0, so F = x^{|j|} e^{-x/2}
        j = 0.2
        kappa = 1.0 / (0.5 + j)
        kp = KummerParams.for_state(kappa, j, ATOMIC)
        coeffs = SolutionCoefficients(1.0, 0.0)
        for r in (0.01, 0.5, 2.0, 9.0):
            x = 2 * kappa * r
            assert radial_solution(r, coeffs, kp) == pytest.approx(
                x**j * math.exp(-x / 2), rel=1e-12
            )

    def test_against_highres_series(self):
        # the lambda = 1 ground state at j = 0.2 and r = 1
        frozen = -0.030397982302751734  # longdouble series, 200 terms
        kappa, coeffs = _state(1.0, 0.2, 1)
        value = radial_solution(1.0, coeffs, _kp(kappa, 0.2))
        assert value == pytest.approx(frozen, rel=1e-10)
        assert value == pytest.approx(
            longdouble_series_value(1.0, coeffs.a_m, coeffs.b_m, kappa, 0.2), rel=1e-10
        )

    def test_mixed_state_random_points(self):
        # both pieces of the second lambda = -1 state at j = 0.35, out to
        # x = 20, where each grows like e^{x/2} and their sum decays
        kappa, coeffs = _state(-1.0, 0.35, 2)
        for r in (0.03, 0.7, 3.1, 11.0):
            ours = radial_solution(r, coeffs, _kp(kappa, 0.35))
            ref = longdouble_series_value(r, coeffs.a_m, coeffs.b_m, kappa, 0.35)
            assert ours == pytest.approx(ref, rel=1e-9)


def _kp(kappa, j):
    return KummerParams.for_state(kappa, j, ATOMIC)


class TestSmallRExpansion:
    """The array path against the test-local small-r expansion."""

    def test_regular_matches_full(self):
        # the n = 2 ladder states
        coeffs = SolutionCoefficients(1.0, 0.0)
        kp = _kp(1.0 / 1.7, 0.2)
        full = radial_solution(0.01, coeffs, kp)
        approx = small_r_expansion(0.01, coeffs, kp)
        assert approx == pytest.approx(full, rel=1e-6)

    def test_irregular_matches_full(self):
        coeffs = SolutionCoefficients(0.0, 1.0)
        kp = _kp(1.0 / 1.3, 0.2)
        full = radial_solution(0.01, coeffs, kp)
        approx = small_r_expansion(0.01, coeffs, kp)
        assert approx == pytest.approx(full, rel=1e-6)

    def test_cubic_order_agreement(self):
        # the second lambda = 1 state at j = 0.3, with both pieces; kappa =
        # 0.78 keeps x = 2 kappa r below 0.1
        kappa, coeffs = _state(1.0, 0.3, 2)
        kp = _kp(kappa, 0.3)
        errors = []
        for r in (0.04, 0.02, 0.01):
            full = radial_solution(r, coeffs, kp)
            approx = small_r_expansion(r, coeffs, kp)
            errors.append(abs(approx / full - 1.0))
        # halving x should shrink the relative error by about 8 (O(x^3))
        assert errors[1] < errors[0] / 4.0
        assert errors[2] < errors[1] / 4.0


class TestBoundaryValues:
    """The closure residual of the origin coefficients f0 = b_m (2 kappa)^{-|j|}
    and f1 = a_m (2 kappa)^{|j|}."""

    def test_pure_regular_has_zero_f0(self):
        # f0 = 0 = lambda f1 holds at lambda = 0 only
        coeffs, kp = SolutionCoefficients(1.3, 0.0), _kp(0.8, 0.2)
        assert boundary_closure_residual(coeffs, kp, 0.0) == 0.0
        assert boundary_closure_residual(coeffs, kp, 0.5) == 1.0
        # f0 / f1 = (b_m / a_m) 1.6^{-0.4} at 2 kappa = 1.6
        closed = SolutionCoefficients(1.3, 0.5 * 1.3 * 1.6**0.4)
        assert boundary_closure_residual(closed, kp, 0.5) <= 4e-16

    def test_unit_scale(self):
        # at 2 kappa = 1, f0 = b_m and f1 = a_m
        kp, coeffs = _kp(0.5, 0.2), SolutionCoefficients(2.0, 1.0)
        assert boundary_closure_residual(coeffs, kp, 0.5) == 0.0
        assert boundary_closure_residual(coeffs, kp, 1.0) == 0.5

    def test_sector_guard(self):
        with pytest.raises(SectorError):
            boundary_closure_residual(SolutionCoefficients(1.0, 0.5), _kp(1.0, 0.6), 1.0)

    def test_closure_at_secular_roots(self):
        for lam in (-1.0, 1.0, -2.5, 0.7):
            for j in (0.2, 0.4):
                for root in solve_secular(lam, j, ATOMIC, 2):
                    kp = _kp(root.kappa, j)
                    coeffs = normalizable_coefficients(kp)
                    assert boundary_closure_residual(coeffs, kp, lam) < 1e-8

    def test_closure_fails_off_root(self):
        lam, j = 1.0, 0.2
        root = solve_secular(lam, j, ATOMIC, 1)[0]
        kp = _kp(root.kappa * 1.05, j)
        coeffs = normalizable_coefficients(kp)
        assert boundary_closure_residual(coeffs, kp, lam) > 1e-3

    def test_infinite_lambda_rejected(self):
        kp = _kp(1.0, 0.2)
        with pytest.raises(ValueError):
            boundary_closure_residual(SolutionCoefficients(1.0, 0.0), kp, math.inf)


class TestProfiles:
    def test_node_counts_regular_ladder(self):
        # normalizable_coefficients on both ladders, where one coefficient
        # must be exactly zero; (1, 0) at j = 0, where both vanish, and at
        # j = 1/2, where Gamma(b') has a pole.
        cases = [(1, j, None) for j in (0.03, 0.2, 0.41, 1.3, 2.6, -2.4)]
        cases += [(-1, j, None) for j in (0.1, 0.26, 0.45)]
        cases += [(1, j, SolutionCoefficients(1.0, 0.0)) for j in (0.0, 0.5)]
        for sign, j, coeffs in cases:
            power = sign * abs(j)
            for n in (1, 2, 3, 4):
                kappa = 1.0 / (n - 0.5 + power)
                ladder_coeffs = coeffs or normalizable_coefficients(_kp(kappa, j))
                for points in (2000, 4000):
                    profile = build_profile(ladder_coeffs, kappa, j, ATOMIC, points=points)
                    norm, nodes = normalize_and_count_nodes(profile)
                    assert nodes == n - 1, (j, n, points)
                    assert norm > 0.0 and math.isfinite(norm)
                    x = 2.0 * kappa * profile.r
                    laguerre = x**power * np.exp(-0.5 * x) * eval_genlaguerre(n - 1, 2.0 * power, x)
                    scale = np.dot(profile.values, laguerre) / np.dot(laguerre, laguerre)
                    deviation = np.max(np.abs(profile.values - scale * laguerre))
                    assert deviation <= 1e-8 * np.max(np.abs(profile.values)), (j, n, points)

    def test_irregular_profile_normalizable(self):
        kappa = 1.0 / (1 - 0.5 - 0.45)
        profile = build_profile(SolutionCoefficients(0.0, 1.0), kappa, 0.45, ATOMIC)
        norm, nodes = normalize_and_count_nodes(profile)
        assert norm > 0.0 and math.isfinite(norm)
        assert nodes == 0

    def test_norm_converges_under_refinement(self):
        root = solve_secular(-1.0, 0.2, ATOMIC, 1)[0]
        kp = _kp(root.kappa, 0.2)
        coeffs = normalizable_coefficients(kp)
        coarse, _ = normalize_and_count_nodes(
            build_profile(coeffs, root.kappa, 0.2, ATOMIC, points=4000)
        )
        fine, _ = normalize_and_count_nodes(
            build_profile(coeffs, root.kappa, 0.2, ATOMIC, points=8000)
        )
        assert coarse == pytest.approx(fine, rel=1e-9)

    def test_exponential_tail(self):
        j = 0.3
        root = solve_secular(1.5, j, ATOMIC, 1)[0]
        kp = _kp(root.kappa, j)
        coeffs = normalizable_coefficients(kp)
        profile = build_profile(coeffs, root.kappa, j, ATOMIC)
        tail = profile.r >= 30.0 / root.kappa
        r0 = profile.r[tail][0]
        envelope = (
            2.0
            * abs(profile.values[tail][0])
            * np.exp(-0.5 * root.kappa * (profile.r[tail] - r0))
        )
        assert np.all(np.abs(profile.values[tail]) <= envelope)

    def test_origin_node_below_deep_ground_state(self):
        # With the ground state at kappa ~ 3e14, the excited states vanish
        # near r0 = (-lambda)^{1/(2|j|)} ~ 4e-15, far inside 1e-4/kappa.
        lam, j = -0.455, 0.0118
        roots = solve_secular(lam, j, ATOMIC, 3)
        assert roots[0].kappa > 1e14
        for index, root in enumerate(roots, start=1):
            coeffs = normalizable_coefficients(_kp(root.kappa, j))
            profile = build_profile(coeffs, root.kappa, j, ATOMIC)
            assert normalize_and_count_nodes(profile)[1] == index - 1

    def test_origin_node_beyond_float_range(self):
        # at |j| = 0.003 the origin node (-f0/f1)^{1/(2|j|)} of the lambda =
        # -100 states overflows a float; the mesh then starts at 1e-4/kappa
        for index, root in enumerate(solve_secular(-100.0, 0.003, ATOMIC, 3), start=1):
            coeffs = normalizable_coefficients(_kp(root.kappa, 0.003))
            profile = build_profile(coeffs, root.kappa, 0.003, ATOMIC)
            assert profile.r[0] == pytest.approx(1e-4 / root.kappa, rel=1e-12)
            assert normalize_and_count_nodes(profile)[1] == index - 1

    @pytest.mark.parametrize("aj", [0.05, 0.3, 0.45])
    @pytest.mark.parametrize("n", [15, 25, 40])
    def test_high_irregular_ladder_matches_laguerre(self, n, aj):
        # U's power sum lost 7.8e-12 of the peak at n = 15, 3.3e-7 at n = 25
        # and all of it at n = 40 (|j| = 0.3).  8000 points: at 4000 the
        # sign changes of n >= 30 jump by more than 10% of the local
        # amplitude on either ladder, and ResolutionError asks for more.
        kappa = 1.0 / (n - 0.5 - aj)
        coeffs = normalizable_coefficients(_kp(kappa, aj))
        profile = build_profile(coeffs, kappa, aj, ATOMIC, points=8000)
        x = 2.0 * kappa * profile.r
        laguerre = x**-aj * np.exp(-0.5 * x) * eval_genlaguerre(n - 1, -2.0 * aj, x)
        scale = np.dot(profile.values, laguerre) / np.dot(laguerre, laguerre)
        deviation = np.max(np.abs(profile.values - scale * laguerre))
        assert deviation <= 1e-10 * np.max(np.abs(profile.values))
        assert normalize_and_count_nodes(profile)[1] == n - 1

    def test_irregular_ladder_past_the_normalizable_coefficients(self):
        # n = 150: the ladder's own piece, where the N of -2|j| alpha N, of
        # order 149!, left the float range.  The 10% rule (ROADMAP item 5)
        # asks for 32 000 points to count its nodes.
        kappa = 1.0 / (150 - 0.5 - 0.3)
        for points in (8000, 16000):
            profile = build_profile(SolutionCoefficients(0.0, 1.0), kappa, 0.3, ATOMIC,
                                    points=points)
            with pytest.raises(ResolutionError):
                normalize_and_count_nodes(profile)
        profile = build_profile(SolutionCoefficients(0.0, 1.0), kappa, 0.3, ATOMIC, points=32000)
        assert normalize_and_count_nodes(profile)[1] == 149

    @pytest.mark.parametrize(
        "lam, aj, index",
        [(-1.0, 0.45, 1), (1.0, 0.3, 2), (-7.0, 0.2, 3), (0.3, 0.4, 1), (0.0, 0.499, 1),
         (math.inf, 0.499, 1)],
    )
    def test_origin_norm_matches_series_quadrature(self, lam, aj, index):
        # the closed form below the first sample, through first order in r,
        # against the long-double series integrated over ln r below it; its
        # leading order alone is 5e-5 to 5e-4 off here
        if lam in (0.0, math.inf):
            kappa = 1.0 / (index - 0.5 + (aj if lam == 0.0 else -aj))
            coeffs = SolutionCoefficients(*((1.0, 0.0) if lam == 0.0 else (0.0, 1.0)))
        else:
            kappa = solve_secular(lam, aj, ATOMIC, index)[-1].kappa
            coeffs = normalizable_coefficients(_kp(kappa, aj))
        profile = build_profile(coeffs, kappa, aj, ATOMIC)
        r0 = profile.r[0]

        def integrand(s):
            r = r0 * math.exp(s)
            return (longdouble_series_value(r, coeffs.a_m, coeffs.b_m, kappa, aj) * r) ** 2

        reference = math.sqrt(quad(integrand, -80.0, 0.0, epsabs=0.0, epsrel=1e-12, limit=200)[0])
        assert profile.origin_norm == pytest.approx(reference, rel=1e-6)

    @pytest.mark.parametrize("aj", [1.3, 2.6])
    def test_norm_refused_where_the_origin_piece_diverges(self, aj):
        # F ~ f0 r^{-|j|} is not square integrable at the origin for |j| >= 1:
        # the normalizable solution at kappa = 1, N ~ x^{-|j|}
        coeffs = normalizable_coefficients(_kp(1.0, aj))
        profile = build_profile(coeffs, 1.0, aj, ATOMIC)
        assert profile.origin_norm == math.inf
        with pytest.raises(ValueError, match="no finite norm"):
            normalize_and_count_nodes(profile)

    @pytest.mark.parametrize("origin_norm", [-1.0, math.nan])
    def test_profile_origin_norm_validated(self, origin_norm):
        r = np.geomspace(1e-4, 40.0, 50)
        with pytest.raises(ValueError, match="origin_norm"):
            RadialProfile(r, np.exp(-r), 1.0, origin_norm)

    # the refusal names the pair to pass instead
    NAMED = r"normalizable_coefficients\(KummerParams\.for_state\(kappa, j, params\)\)"

    @pytest.mark.parametrize("lam", [1.0, -1.0, 0.3, -7.0, 1e-2, 1e2])
    def test_boundary_condition_pairs_refused(self, lam):
        # (1, lambda (2 kappa)^{2|j|}), the boundary condition's pair at a
        # secular root, is the state only up to rounding, which leaves a
        # piece that grows like e^{x/2}.  It is refused unless it is an
        # exact multiple of the normalizable pair, and is then that state.
        refused = 0
        for j in (0.1, 0.2, 0.4):
            for index, root in enumerate(solve_secular(lam, j, ATOMIC, 4), start=1):
                kappa = root.kappa
                normalizable = normalizable_coefficients(_kp(kappa, j))
                state = build_profile(normalizable, kappa, j, ATOMIC)
                assert normalize_and_count_nodes(state)[1] == index - 1, (j, index)
                pair = SolutionCoefficients(1.0, lam * (2.0 * kappa) ** (2.0 * j))
                alpha = pair.b_m / normalizable.b_m
                if pair.a_m == alpha * normalizable.a_m:
                    values = build_profile(pair, kappa, j, ATOMIC).values
                    np.testing.assert_allclose(values, alpha * state.values, rtol=1e-15)
                    continue
                with pytest.raises(ValueError, match=self.NAMED):
                    build_profile(pair, kappa, j, ATOMIC)
                refused += 1
        assert refused >= 10

    @pytest.mark.parametrize(
        "kappa, coeffs",
        [(1.0, SolutionCoefficients(1.0, 0.0)),  # off the ladders
         (1.0 / 1.8, SolutionCoefficients(0.0, 1.0)),  # regular ladder, I does not terminate
         (1.0 / 1.2, SolutionCoefficients(1.0, 1.0)),  # irregular ladder, R does not
         (1.0 / 1.2, SolutionCoefficients(1.0, 0.0))],
    )
    def test_pairs_that_are_not_the_state_refused(self, kappa, coeffs):
        with pytest.raises(ValueError, match=self.NAMED):
            build_profile(coeffs, kappa, 0.3, ATOMIC)

    def test_normalizable_pair_off_by_one_rounding_refused(self):
        kappa, coeffs = _state(1.0, 0.3, 2)
        off = SolutionCoefficients(math.nextafter(coeffs.a_m, math.inf), coeffs.b_m)
        with pytest.raises(ValueError, match=self.NAMED):
            build_profile(off, kappa, 0.3, ATOMIC)

    def test_multiple_of_the_state_is_the_state(self):
        kappa, coeffs = _state(-1.0, 0.3, 3)
        state = build_profile(coeffs, kappa, 0.3, ATOMIC)
        double = build_profile(SolutionCoefficients(2.0 * coeffs.a_m, 2.0 * coeffs.b_m),
                               kappa, 0.3, ATOMIC)
        assert np.array_equal(double.values, 2.0 * state.values)
        assert normalize_and_count_nodes(double)[1] == 2

    def test_points_validated(self):
        # 100.0 once raised a bare TypeError, and True was refused only as
        # "points must be >= 16, got True"
        kappa = 1.0 / (0.5 + 0.3)
        coeffs = SolutionCoefficients(1.0, 0.0)
        for points in (15, 100.0, True, "100"):
            with pytest.raises(ValueError, match="points must be an integer >= 16"):
                build_profile(coeffs, kappa, 0.3, ATOMIC, points=points)
        assert build_profile(coeffs, kappa, 0.3, ATOMIC, points=np.int64(16)).r.size == 16

    def test_unrepresentable_range_refused(self):
        # the origin node (-f0/f1)^(1/(2|j|)) of the normalizable solution at
        # |j| = 0.004, with a 1e-5 below the pole at 0, is about 1e-363: it
        # underflows to a start at r = 0
        kappa = 1.0 / (0.5 + 0.004 + 1e-5)
        coeffs = normalizable_coefficients(_kp(kappa, 0.004))
        with pytest.raises(ValueError, match="need 0 < r_min < r_max"):
            build_profile(coeffs, kappa, 0.004, ATOMIC)
        # the regular ladder's ground state, where 35/kappa overflows while
        # 1e-4/kappa does not
        weak = PhysicalParams(eta=1e-307)
        with pytest.raises(OverflowError, match="float range"):
            build_profile(SolutionCoefficients(1.0, 0.0), 1e-307 / 0.7, 0.2, weak)

    def test_coarse_mesh_raises_resolution_error(self):
        # 40 points cannot resolve the sign changes of an n=4 state
        j = 0.2
        kappa = 1.0 / (4 - 0.5 + j)
        profile = build_profile(
            SolutionCoefficients(1.0, 0.0), kappa, j, ATOMIC, points=40
        )
        with pytest.raises(ResolutionError):
            normalize_and_count_nodes(profile)

    def test_node_count_matches_scalar_reference(self):
        # smooth, under-resolved (ResolutionError) and noise-floor samples
        def scalar_count(values):
            floor = 1e-13 * float(np.max(np.abs(values)))
            significant = [i for i, v in enumerate(values) if abs(v) > floor]
            nodes = 0
            for prev, cur in zip(significant[:-1], significant[1:]):
                if values[prev] * values[cur] >= 0.0:
                    continue
                window = values[max(0, prev - 25) : cur + 26]
                if abs(values[cur] - values[prev]) > 0.10 * float(np.max(np.abs(window))):
                    return "ResolutionError"
                nodes += 1
            return nodes

        rng = np.random.default_rng(11)
        r = np.geomspace(1e-4, 40.0, 300)
        for _ in range(300):
            values = np.sin(rng.uniform(0.05, 1.0) * r + rng.uniform(0, 2 * np.pi))
            values *= np.exp(-0.5 * r)  # below 1e-6 of the peak at r = 40
            dips = rng.random(r.size) < 0.02
            values[dips] = rng.normal(0.0, 1e-14, dips.sum())
            profile = RadialProfile(r, values, 1.0, origin_norm=0.0)
            try:
                got = normalize_and_count_nodes(profile)[1]
            except ResolutionError:
                got = "ResolutionError"
            assert got == scalar_count(values)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("aj", [60, 100, 140])
    def test_norm_of_large_j_ladder_ground_state(self, aj):
        # the samples reach 5e98, 5e186 and 6e281, whose squares overflow a
        # double; the unscaled trapezoid in ln r in long double is the
        # reference, and the origin piece underflows to 0 beside the peak
        profile = build_profile(SolutionCoefficients(1.0, 0.0), 1.0 / (aj + 0.5), aj, ATOMIC)
        norm, nodes = normalize_and_count_nodes(profile)
        values, r = profile.values.astype(np.longdouble), profile.r.astype(np.longdouble)
        reference = float(np.sqrt(np.trapezoid(values * values * r * r, np.log(r))))
        assert math.isfinite(norm) and nodes == 0
        assert norm == pytest.approx(reference, rel=1e-13)

    def test_norm_beyond_float_range_raises(self):
        # at |j| = 150 the samples still fit (peak 3e306), their norm
        # sqrt(Gamma(302)) / (2 kappa) ~ 1e311 does not
        profile = build_profile(SolutionCoefficients(1.0, 0.0), 1.0 / 150.5, 150, ATOMIC)
        with pytest.raises(OverflowError, match="float range"):
            normalize_and_count_nodes(profile)

    @pytest.mark.parametrize("aj", [10.2, 30.3, 40.1, 100.3])
    def test_large_j_ladder_ground_state_is_not_truncated(self, aj):
        # x^{|j|} e^{-x/2} peaks at x = 2|j|, beyond x = 70 from |j| = 35 on
        kappa = 1.0 / (aj + 0.5)
        profile = build_profile(SolutionCoefficients(1.0, 0.0), kappa, aj, ATOMIC)
        norm, nodes = normalize_and_count_nodes(profile)
        # |F|^2 r dr = x^{2|j|+1} e^{-x} dx / (2 kappa)^2; the trapezoid in
        # ln r on the default mesh is good to about 1e-13 here
        exact = math.exp(0.5 * math.lgamma(2.0 * aj + 2.0)) / (2.0 * kappa)
        assert nodes == 0
        assert norm == pytest.approx(exact, rel=1e-9)
        # cut at x = 70, the end of the mesh before it followed t
        kept = profile.r <= 35.0 / kappa
        with pytest.raises(TruncationError):
            normalize_and_count_nodes(RadialProfile(profile.r[kept], profile.values[kept], kappa,
                                                    profile.origin_norm))

    @pytest.mark.parametrize(
        "branch, aj",
        [("irregular", 0.3), ("irregular", 0.45), ("irregular", 0.49), ("irregular", 0.499),
         ("regular", 0.3)],
    )
    def test_ladder_ground_state_norm_matches_closed_form(self, branch, aj):
        # the n = 1 profile is c x^{+-|j|} e^{-x/2}, whose norm is
        # |c| sqrt(Gamma(2 +- 2|j|)) / (2 kappa); without the piece below
        # r_min the sampled range alone is up to 1e-4 off toward |j| = 1/2
        sign = 1.0 if branch == "regular" else -1.0
        kappa = 1.0 / (0.5 + sign * aj)
        coeffs = normalizable_coefficients(_kp(kappa, aj))
        profile = build_profile(coeffs, kappa, aj, ATOMIC)
        x = 2.0 * kappa * profile.r
        c = profile.values / (x ** (sign * aj) * np.exp(-0.5 * x))
        assert np.ptp(c) <= 1e-13 * abs(c[0])
        exact = abs(c[0]) * math.sqrt(math.gamma(2.0 + 2.0 * sign * aj)) / (2.0 * kappa)
        norm, nodes = normalize_and_count_nodes(profile)
        assert nodes == 0
        assert norm == pytest.approx(exact, rel=1e-9)
