"""Self-check suite: every module invariant as a named check with a
numeric residual and tolerance, runnable as a whole or by group.

Checks call the special functions and ``spectrum.closed_form_energy``
through the module object on purpose, so an injected perturbation (say a
patched gamma) is caught rather than bypassed via stale local references.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import oracle as oracle_mod
from . import specfun, spectrum
from .model import (
    IRREGULAR,
    PhysicalParams,
    QuantumState,
    admissible_m,
    decompose_flux,
    effective_j,
    is_singular_sector,
)
from .secular import (
    KummerParams,
    RootSearchError,
    SolutionCoefficients,
    normalizable_coefficients,
    solve_secular,
)
from .spectrum import detect_degeneracies, kappa_of_energy, rotation_parts
from .wavefunction import (
    boundary_closure_residual,
    build_profile,
    normalize_and_count_nodes,
)

__all__ = ["CheckResult", "GROUPS", "run_checks", "build_report"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    error: str | None = None  # "Type: message" of the exception a check group raised
    seconds: float = 0.0  # wall time of the run of the check's group


def _check(name: str, residual: float, tolerance: float) -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(residual <= tolerance),
        residual=float(residual),
        tolerance=float(tolerance),
    )


def _check_flag(name: str, ok: bool) -> CheckResult:
    return _check(name, 0.0 if ok else 1.0, 0.0)


def _worst(residuals) -> float:
    """The largest residual, nan if any is: Python's max drops a nan that is
    not first (max(0.0, nan) is 0.0), and the check would pass on it."""
    return float(np.max(np.fromiter(residuals, dtype=float), initial=0.0))


# ----------------------------------------------------------------- specfun


def _checks_specfun() -> list[CheckResult]:
    out = []
    zs = np.linspace(0.1, 20.0, 397)
    rec = _worst(
        abs(specfun.gamma(z + 1.0) / (z * specfun.gamma(z)) - 1.0) for z in zs
    )
    out.append(_check("specfun.gamma_recurrence", rec, 1e-12))

    prod = _worst(
        abs(specfun.reciprocal_gamma(z) * specfun.gamma(z) - 1.0)
        for z in np.linspace(0.2, 30.0, 153)
    )
    out.append(_check("specfun.reciprocal_gamma_product", prod, 1e-12))

    # The Laguerre path of every ladder profile against scipy's (cephes)
    # Laguerre polynomials, which share no code with specfun's recurrence:
    # 1F1(-m, alpha + 1, x) = L_m^{(alpha)}(x) / binom(m + alpha, m) (DLMF
    # 13.6.19), alpha = +-2|j|, on the profiles' x range, by absolute error
    # against the peak of x^{alpha/2} e^{-x/2} 1F1, as the profiles are judged.
    from scipy import special

    laguerre = []
    for aj in (0.05, 0.3, 0.45, 0.499, 1.3, 10.3):
        for alpha in (2.0 * aj, -2.0 * aj) if aj < 0.5 else (2.0 * aj,):
            for n in (1, 2, 8, 25, 60):
                x = np.geomspace(2e-4, max(70.0, 10.0 * (n - 0.5 + 0.5 * alpha)), 400)
                envelope = np.exp(0.5 * alpha * np.log(x) - 0.5 * x)
                ours = envelope * specfun.kummer_1f1(1.0 - n, 1.0 + alpha, x)
                ref = envelope * special.eval_genlaguerre(n - 1, alpha, x)
                ref /= special.binom(n - 1 + alpha, n - 1)
                laguerre.append(np.max(np.abs(ours - ref)) / np.max(np.abs(ref)))
    out.append(_check("specfun.kummer_1f1_laguerre", _worst(laguerre), 1e-10))

    # W{M, U} = M U' - M' U = -Gamma(b)/Gamma(a) x^{-b} e^x (DLMF 13.2.34,
    # 13.3.15, 13.3.22) relative to its two products; M is scipy's hyp1f1,
    # which shares no code with U.  (a, b) span the finite-lambda states'
    # U, from the edge b = 1 to the twentieth root.
    x = np.geomspace(1e-3, 70.0, 400)
    wronskian = []
    for b in (1.006, 1.2, 1.6, 1.998):
        for a in (-20.3, -12.45, -3.7, -2.45, -1.3, -0.55, 0.2, 0.65, 0.95):
            m_du = -a * special.hyp1f1(a, b, x) * specfun.tricomi_u(a + 1.0, b + 1.0, x)
            dm_u = a / b * special.hyp1f1(a + 1.0, b + 1.0, x) * specfun.tricomi_u(a, b, x)
            exact = -specfun.gamma(b) * specfun.reciprocal_gamma(a) * x ** (-b) * np.exp(x)
            wronskian.append(np.max(np.abs(m_du - dm_u - exact) / (np.abs(m_du) + np.abs(dm_u))))
    out.append(_check("specfun.tricomi_u_wronskian", _worst(wronskian), 1e-10))
    return out


# ------------------------------------------------------------------- model


def _checks_model() -> list[CheckResult]:
    out = []
    phis = np.linspace(-12.3, 12.3, 247)
    rt = _worst(
        abs(decompose_flux(p).n_integer + decompose_flux(p).beta - p) for p in phis
    )
    out.append(_check("model.flux_round_trip", rt, 1e-12))

    ok = True
    for phi in phis:
        ms = admissible_m(phi)
        ok &= len(ms) <= 1
        ok &= all(is_singular_sector(effective_j(m, phi)) for m in ms)
    out.append(_check_flag("model.admissible_m_sector", ok))
    return out


# ---------------------------------------------------------------- spectrum


def _checks_spectrum() -> list[CheckResult]:
    out = []
    atomic = PhysicalParams()
    ground = spectrum.closed_form_energy(QuantumState(1, 0, 1), atomic, decompose_flux(0.0))
    out.append(_check("spectrum.ground_state_anchor", abs(ground.energy + 2.0), 1e-12))

    blowup = spectrum.closed_form_energy(
        QuantumState(1, 0, 1, IRREGULAR), atomic, decompose_flux(0.49)
    )
    out.append(
        _check("spectrum.irregular_anchor", abs(blowup.energy / -5000.0 - 1.0), 1e-6)
    )

    # E(Omega) = E_coulomb + orbit + spin with the parts read back from the
    # result, against the independent form -hbar*Omega*j - s*hbar*Omega/2;
    # every sum is exact, so the tolerances are 0.
    rng = np.random.default_rng(2024)
    parts_ok = True
    affinity, splitting = [], []
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(-8, 9))
        s = int(rng.choice((-1, 1)))
        flux = decompose_flux(float(rng.uniform(-5.0, 5.0)))
        j = m + flux.phi
        zero = spectrum.closed_form_energy(QuantumState(n, m, s), atomic, flux)
        for omega in (-2.0, 1.0, 3.0):
            rot = PhysicalParams(omega=omega)
            hw = rot.hbar * rot.omega
            res = spectrum.closed_form_energy(QuantumState(n, m, s), rot, flux)
            orbit, spin = rotation_parts(rot, j, s)
            parts_ok &= res.rotation_energy == orbit + spin
            parts_ok &= res.energy == res.coulomb_energy + res.rotation_energy
            affine = math.fsum(
                [
                    res.coulomb_energy, orbit, spin,
                    -zero.coulomb_energy, -zero.rotation_energy,
                    hw * j, s * (hw / 2.0),
                ]
            )
            affinity.append(abs(affine))
            up = spectrum.closed_form_energy(QuantumState(n, m, 1), rot, flux)
            dn = spectrum.closed_form_energy(QuantumState(n, m, -1), rot, flux)
            up_orbit, up_spin = rotation_parts(rot, j, 1)
            dn_orbit, dn_spin = rotation_parts(rot, j, -1)
            parts_ok &= up.coulomb_energy == dn.coulomb_energy and up_orbit == dn_orbit
            split = math.fsum(
                [
                    up.coulomb_energy, up_orbit, up_spin,
                    -dn.coulomb_energy, -dn_orbit, -dn_spin,
                    hw,
                ]
            )
            splitting.append(abs(split))
    out.append(_check_flag("spectrum.energy_parts", parts_ok))
    out.append(_check("spectrum.rotation_affinity", _worst(affinity), 0.0))
    out.append(_check("spectrum.spin_splitting", _worst(splitting), 0.0))

    kappas = []
    for phi in (0.0, 0.3, 2.7):
        flux = decompose_flux(phi)
        for n in (1, 2, 4):
            st = QuantumState(n, 0, 1)
            res = spectrum.closed_form_energy(st, atomic, flux)
            back = kappa_of_energy(res.energy, st, atomic, flux)
            kappas.append(abs(back / res.kappa - 1.0))
    out.append(_check("spectrum.kappa_consistency", _worst(kappas), 1e-12))

    # integer flux: levels group by |m + phi|, both spins together at
    # Omega = 0, and the detector agrees with a pairwise clustering
    states = [QuantumState(1, m, s) for m in range(-10, 11) for s in (1, -1)]
    degeneracy_ok = True
    for k in (0, 1, 5):
        flux = decompose_flux(float(k))
        detected = {
            frozenset(g.members)
            for g in detect_degeneracies(states, atomic, flux, tol=1e-12)
        }
        by_abs_j: dict[float, set] = {}
        for st in states:
            by_abs_j.setdefault(abs(st.m + flux.phi), set()).add(st)
        expected = {frozenset(c) for c in by_abs_j.values() if len(c) > 1}
        brute = _brute_force_groups(states, atomic, flux, tol=1e-12)
        degeneracy_ok &= detected == expected == brute
        degeneracy_ok &= all(
            any({QuantumState(1, m, 1), QuantumState(1, m, -1)} <= g for g in detected)
            for m in range(-10, 11)
        )
    out.append(_check_flag("spectrum.integer_flux_degeneracy", degeneracy_ok))
    return out


def _brute_force_groups(states, params, flux, tol):
    energies = [spectrum.closed_form_energy(s, params, flux).energy for s in states]
    n = len(states)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for k in range(i + 1, n):
            if abs(energies[i] - energies[k]) <= tol:
                parent[find(i)] = find(k)
    clusters: dict[int, set] = {}
    for i in range(n):
        clusters.setdefault(find(i), set()).add(states[i])
    return {frozenset(c) for c in clusters.values() if len(c) > 1}


# ----------------------------------------------------------------- secular


def _checks_secular() -> list[CheckResult]:
    out = []
    params = PhysicalParams()
    # lambda -> 0 and lambda -> +-inf, where the finite-lambda roots meet
    # the ladders t = n - 1/2 +- |j|; for lambda < 0 root 1 is the deep
    # state, and roots 2-6 meet the regular ladder
    limits = {1.0: [], -1.0: []}
    for j in (0.05, 0.2, 0.45):
        for lam, sign in ((1e-12, 1.0), (-1e-12, 1.0), (1e12, -1.0), (-1e12, -1.0)):
            roots = solve_secular(lam, j, params, 6)
            for n, root in enumerate(roots[1:] if lam == -1e-12 else roots[:5], start=1):
                k_ladder = params.q / (n - 0.5 + sign * j)
                limits[sign].append(abs(root.kappa / k_ladder - 1.0))
    out.append(_check("secular.limit_regular", _worst(limits[1.0]), 1e-10))
    out.append(_check("secular.limit_irregular", _worst(limits[-1.0]), 1e-10))

    free = PhysicalParams(eta=0.0)
    out.append(
        _check_flag("secular.no_coupling_no_roots", solve_secular(0.0, 0.2, free, 3) == [])
    )

    short = solve_secular(-1.0, 0.3, params, 2)
    longer = solve_secular(-1.0, 0.3, params, 4)
    prefix_ok = all(
        abs(a.kappa - b.kappa) <= 1e-12 * abs(b.kappa) for a, b in zip(short, longer)
    )
    out.append(_check_flag("secular.prefix_stability", prefix_ok))

    brackets_ok = True
    residuals = []
    for lam in (-1e3, -7.0, -1.0, -0.3, -1e-3, 1e-3, 0.3, 1.0, 7.0, 1e3):
        for j in (0.05, 0.2, 0.45):
            roots = solve_secular(lam, j, params, 5)
            residuals += [r.residual for r in roots]
            ts = [1.0 / r.kappa for r in roots]
            brackets_ok &= all(a < b for a, b in zip(ts, ts[1:]))
            for n, t in enumerate(ts, start=1):
                lo, hi = _interlacing_bracket(lam, j, n)
                brackets_ok &= lo - 1e-12 * t <= t <= hi + 1e-12 * t
                below = _secular_reference(t * (1.0 - 1e-9), lam, j)
                above = _secular_reference(t * (1.0 + 1e-9), lam, j)
                brackets_ok &= below * above < 0.0
    out.append(_check_flag("secular.interlacing_brackets", brackets_ok))
    out.append(_check("secular.root_residuals", _worst(residuals), 1e-10))

    # kappa ~ 1.1e15 and 1.1e50 against the small-t limit of F on scipy's
    # (cephes) gamma, which shares no code with specfun's math.gamma; kappa
    # ~ 1e339 is beyond the float range and must be refused, not relabelled.
    from scipy import special

    deep = []
    for lam, j in ((-0.001, 0.1), (-0.1, 0.01)):
        ratio = -(
            special.gamma(1.0 + 2.0 * j) * special.gamma(0.5 - j)
            / (lam * special.gamma(1.0 - 2.0 * j) * special.gamma(0.5 + j))
        )
        expected = 0.5 * ratio ** (1.0 / (2.0 * j))
        kappa = solve_secular(lam, j, params, 1)[0].kappa
        deep.append(abs(kappa / expected - 1.0))
    try:
        solve_secular(-0.06, 0.0018, params, 1)
        deep.append(math.inf)
    except RootSearchError:
        pass
    out.append(_check("secular.deep_ground_state", _worst(deep), 1e-9))
    return out


def _interlacing_bracket(lam: float, aj: float, n: int) -> tuple[float, float]:
    """Interval in t = q/kappa that holds root n of a finite lam != 0."""
    if lam > 0.0:
        return n - 0.5 - aj, n - 0.5 + aj
    return (0.0 if n == 1 else n - 1.5 + aj), n - 0.5 - aj


def _secular_reference(t: float, lam: float, aj: float) -> float:
    """The finite-lambda secular function in t on scipy's (cephes) gamma
    and rgamma, which share no code with specfun's math.gamma (atomic
    units)."""
    from scipy import special

    irregular = special.gamma(1.0 - 2.0 * aj) * special.rgamma(0.5 - aj - t)
    regular = special.gamma(1.0 + 2.0 * aj) * special.rgamma(0.5 + aj - t)
    return regular + lam * (2.0 / t) ** (2.0 * aj) * irregular


# ------------------------------------------------------------ wavefunction


def _checks_wavefunction() -> list[CheckResult]:
    out = []
    params = PhysicalParams()
    closure = []
    nodes_ok = True
    norm_change = []
    decay_ok = True
    # lambda = +-1 cannot tell f0 = lambda f1 from lambda f0 = f1
    for lam in (-1.0, 1.0, 0.3, -7.0):
        for j in (0.2, 0.4):
            roots = solve_secular(lam, j, params, 3)
            nodes_ok &= len(roots) == 3
            for index, root in enumerate(roots, start=1):
                kp = KummerParams.for_state(root.kappa, j, params)
                coeffs = normalizable_coefficients(kp)
                closure.append(boundary_closure_residual(coeffs, kp, lam))
                profile = build_profile(coeffs, root.kappa, j, params)
                norm, nodes = normalize_and_count_nodes(profile)
                nodes_ok &= nodes == index - 1 and norm > 0.0 and math.isfinite(norm)
                refined = build_profile(
                    coeffs, root.kappa, j, params, points=2 * len(profile.r)
                )
                norm2, _ = normalize_and_count_nodes(refined)
                norm_change.append(abs(norm / norm2 - 1.0))
                tail = profile.r >= 30.0 / root.kappa
                r0 = profile.r[tail][0]
                bound = (
                    2.0
                    * max(abs(profile.values[tail][0]), 1e-280)
                    * np.exp(-0.5 * root.kappa * (profile.r[tail] - r0))
                )
                decay_ok &= bool(np.all(np.abs(profile.values[tail]) <= bound))
    out.append(_check("wavefunction.boundary_closure", _worst(closure), 1e-8))
    out.append(_check_flag("wavefunction.node_counts", nodes_ok))
    out.append(_check("wavefunction.norm_convergence", _worst(norm_change), 1e-9))
    out.append(_check_flag("wavefunction.decay_envelope", decay_ok))
    out.append(_check("wavefunction.ladder_norm", _worst(_ladder_norm_errors(params)), 1e-9))
    return out


def _ladder_norm_errors(params: PhysicalParams) -> list[float]:
    """Relative norm errors of the ladder states c x^{alpha/2} e^{-x/2}
    L_{n-1}^{(alpha)}(x), alpha = +-2|j|, on the CLI's 2000 points, against
    |c| sqrt(Gamma(n + alpha) (2n - 1 + alpha) / (n - 1)!) / (2 kappa)
    (DLMF 18.3 with x L_n of 18.9.13); c is fitted against scipy's (cephes) Laguerre polynomials,
    which share no code with specfun's recurrence."""
    from scipy import special

    errors = []
    for sign, coeffs in ((1.0, SolutionCoefficients(1.0, 0.0)),
                         (-1.0, SolutionCoefficients(0.0, 1.0))):
        for aj in (0.05, 0.3, 0.45, 0.499):
            for n in (1, 2, 4, 8):
                alpha = 2.0 * sign * aj
                kappa = params.q / (n - 0.5 + sign * aj)
                profile = build_profile(coeffs, kappa, aj, params, points=2000)
                x = 2.0 * kappa * profile.r
                ladder = special.eval_genlaguerre(n - 1, alpha, x)
                ladder *= x ** (0.5 * alpha) * np.exp(-0.5 * x)
                c = np.dot(profile.values, ladder) / np.dot(ladder, ladder)
                square = math.exp(special.gammaln(n + alpha) - special.gammaln(n))
                exact = abs(c) * math.sqrt(square * (2 * n - 1 + alpha)) / (2.0 * kappa)
                errors.append(abs(normalize_and_count_nodes(profile)[0] / exact - 1.0))
    return errors


# ------------------------------------------------------------------ oracle


def _checks_oracle() -> list[CheckResult]:
    params = PhysicalParams()
    errors = []
    # the last three need a box well beyond 200 Coulomb lengths, and the
    # last one's highest levels a two-grid gap near the accuracy bound
    for j, n_max in ((0.0, 3), (0.25, 3), (0.75, 3), (1.5, 3), (0.3, 10), (6.0, 7), (0.3, 30)):
        levels = oracle_mod.oracle_regular_spectrum(j, params, n_max)
        if len(levels) != n_max:
            errors.append(math.inf)
        for ev in levels:
            exact = params.q / (ev.index - 0.5 + abs(j))
            errors.append(abs(ev.kappa / exact - 1.0))
    return [_check("oracle.closed_form_agreement", _worst(errors), 1e-6)]


GROUPS = {
    "specfun": _checks_specfun,
    "model": _checks_model,
    "spectrum": _checks_spectrum,
    "secular": _checks_secular,
    "wavefunction": _checks_wavefunction,
    "oracle": _checks_oracle,
}


def run_checks(only: list[str] | None = None) -> list[CheckResult]:
    selected = list(GROUPS) if not only else list(only)
    unknown = [g for g in selected if g not in GROUPS]
    if unknown:
        raise ValueError(f"unknown check groups {unknown}; available: {list(GROUPS)}")
    results: list[CheckResult] = []
    for group in selected:
        started = time.perf_counter()
        try:
            checks = GROUPS[group]()
        except Exception as exc:  # a crash fails the gate; the other groups still run
            error = f"{type(exc).__name__}: {exc}"
            checks = [CheckResult(f"{group}.error", False, math.inf, 0.0, error)]
        seconds = time.perf_counter() - started
        results.extend(replace(check, seconds=seconds) for check in checks)
    return results


def build_report(results: list[CheckResult]) -> dict:
    return {
        "checks": [
            {
                "name": r.name,
                "pass": r.passed,
                "residual": r.residual,
                "tolerance": r.tolerance,
                "seconds": r.seconds,
                **({"error": r.error} if r.error is not None else {}),
            }
            for r in results
        ],
        "pass": all(r.passed for r in results),
    }
