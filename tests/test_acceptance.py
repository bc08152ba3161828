"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with its measured residual and runtime."""

import math
import time

import numpy as np
import pytest

from abcoulomb import cli
from abcoulomb.model import (
    IRREGULAR,
    PhysicalParams,
    QuantumState,
    decompose_flux,
)
from abcoulomb.oracle import oracle_regular_spectrum
from abcoulomb.secular import (
    INFINITE_EXTENSION,
    KummerParams,
    normalizable_coefficients,
    solve_secular,
)
from abcoulomb.spectrum import (
    detect_degeneracies,
    energy_irregular,
    energy_regular,
    rotation_parts,
)
from abcoulomb.verify import run_checks
from abcoulomb.wavefunction import (
    boundary_values,
    build_profile,
    normalize_and_count_nodes,
)

ATOMIC = PhysicalParams()


def _report(number, label, started, ok, detail=""):
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} {status} {label} ({elapsed:.2f} s){suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


def test_criterion_1_ground_state_anchor():
    started = time.time()
    res = energy_regular(QuantumState(1, 0, 1), ATOMIC, decompose_flux(0.0))
    residual = abs(res.energy - (-2.0))
    _report(1, "ground-state anchor E = -2.0", started,
            residual <= 1e-12, f"|dE| = {residual:.2e}")


def test_criterion_2_irregular_blowup_anchor():
    started = time.time()
    res = energy_irregular(
        QuantumState(1, 0, 1, IRREGULAR), ATOMIC, decompose_flux(0.49)
    )
    residual = abs(res.energy / -5000.0 - 1.0)
    _report(2, "irregular anchor E = -5000", started,
            residual <= 1e-6, f"rel = {residual:.2e}")


def test_criterion_3_secular_limit_consistency():
    started = time.time()
    worst = 0.0
    for j in (0.05, 0.2, 0.45):
        regular = solve_secular(0.0, j, ATOMIC, 5)
        irregular = solve_secular(INFINITE_EXTENSION, j, ATOMIC, 5)
        for n in range(1, 6):
            k_reg = 1.0 / (n - 0.5 + j)
            k_irr = 1.0 / (n - 0.5 - j)
            worst = max(
                worst,
                abs(regular[n - 1].kappa / k_reg - 1.0),
                abs(irregular[n - 1].kappa / k_irr - 1.0),
            )
    _report(3, "secular roots match closed forms at lambda = 0, inf", started,
            worst <= 1e-10, f"worst rel = {worst:.2e}")


def test_criterion_4_oracle_equivalence():
    started = time.time()
    worst = 0.0
    for j in (0.0, 0.25, 0.75, 1.5):
        eigenvalues = oracle_regular_spectrum(j, ATOMIC, 3)
        assert len(eigenvalues) == 3
        for ev in eigenvalues:
            exact = 1.0 / (ev.index - 0.5 + abs(j))
            worst = max(worst, abs(ev.kappa / exact - 1.0))
    _report(4, "finite-difference eigenvalues match the kappa ladder", started,
            worst <= 1e-6, f"worst rel = {worst:.2e}")


def test_criterion_5_rotation_affinity():
    started = time.time()
    rng = np.random.default_rng(2024)
    worst_affine = 0.0
    worst_split = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(-8, 9))
        s = int(rng.choice((-1, 1)))
        phi = float(rng.uniform(-5.0, 5.0))
        flux = decompose_flux(phi)
        j = m + flux.phi
        zero = energy_regular(QuantumState(n, m, s), ATOMIC, flux)
        for omega in (-2.0, 1.0, 3.0):
            rot = PhysicalParams(omega=omega)
            res = energy_regular(QuantumState(n, m, s), rot, flux)
            orbit, spin = rotation_parts(rot, j, s)
            assert res.rotation_energy == orbit + spin
            assert res.energy == res.coulomb_energy + res.rotation_energy
            # E(Omega) - E(0) + hbar*Omega*(j + s/2) over exact parts
            affine = math.fsum(
                [
                    res.coulomb_energy, orbit, spin,
                    -zero.coulomb_energy, -zero.rotation_energy,
                    (rot.hbar * rot.omega) * j, s * (rot.hbar * rot.omega / 2.0),
                ]
            )
            worst_affine = max(worst_affine, abs(affine))
            up = energy_regular(QuantumState(n, m, 1), rot, flux)
            dn = energy_regular(QuantumState(n, m, -1), rot, flux)
            up_orbit, up_spin = rotation_parts(rot, j, 1)
            dn_orbit, dn_spin = rotation_parts(rot, j, -1)
            assert up.coulomb_energy == dn.coulomb_energy
            assert up_orbit == dn_orbit
            # E(s=+1) - E(s=-1) + hbar*Omega over exact parts
            split = math.fsum(
                [up.coulomb_energy, up_orbit, up_spin,
                 -dn.coulomb_energy, -dn_orbit, -dn_spin,
                 rot.hbar * rot.omega]
            )
            worst_split = max(worst_split, abs(split))
    ok = worst_affine == 0.0 and worst_split == 0.0
    _report(5, "rotation affinity and spin splitting are exact", started,
            ok, f"affine = {worst_affine:.1e}, split = {worst_split:.1e}")


def test_criterion_6_integer_flux_degeneracy():
    started = time.time()
    ok = True
    for k in (0, 1, 5):
        flux = decompose_flux(float(k))
        states = [
            QuantumState(1, m, s) for m in range(-10, 11) for s in (1, -1)
        ]
        detected = {
            frozenset(g.members)
            for g in detect_degeneracies(states, ATOMIC, flux, tol=1e-12)
        }
        # expected: grouped by |m + phi|, both spins merged at Omega = 0
        by_absj: dict[float, set] = {}
        for st in states:
            by_absj.setdefault(abs(st.m + flux.phi), set()).add(st)
        expected = {frozenset(c) for c in by_absj.values() if len(c) > 1}
        # brute-force pairwise comparison
        energies = {st: energy_regular(st, ATOMIC, flux).energy for st in states}
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
        ok &= detected == expected == brute
        spin_pairs_grouped = all(
            any(
                {QuantumState(1, m, 1), QuantumState(1, m, -1)} <= set(group)
                for group in detected
            )
            for m in range(-10, 11)
        )
        ok &= spin_pairs_grouped
    _report(6, "integer-flux degeneracy groups match brute force", started, ok)


def test_criterion_7_boundary_closure():
    started = time.time()
    worst = 0.0
    checks_ok = True
    # lambda = +-1 cannot tell f0 = lambda f1 from lambda f0 = f1
    for lam in (-1.0, 1.0, 0.3, -7.0):
        for j in (0.2, 0.4):
            roots = solve_secular(lam, j, ATOMIC, 3)
            for index, root in enumerate(roots, start=1):
                kp = KummerParams.for_state(root.kappa, j, ATOMIC)
                coeffs = normalizable_coefficients(kp)
                bv = boundary_values(coeffs, kp)
                closure = abs(bv.f0 - lam * bv.f1) / max(
                    abs(bv.f0), abs(lam * bv.f1)
                )
                worst = max(worst, closure)
                profile = build_profile(coeffs, root.kappa, j, ATOMIC)
                norm, nodes = normalize_and_count_nodes(profile)
                checks_ok &= nodes == index - 1
                checks_ok &= norm > 0.0 and math.isfinite(norm)
    ok = worst <= 1e-8 and checks_ok
    _report(7, "secular-root wavefunctions close the boundary condition",
            started, ok, f"worst closure = {worst:.2e}")


def _scan_rows(capsys_text):
    rows = []
    lines = capsys_text.strip().split("\n")
    assert lines[0] == cli.CSV_HEADER
    for line in lines[1:]:
        parts = line.split(",")
        rows.append(
            {
                "scan_value": float(parts[1]),
                "n": int(parts[2]),
                "m": int(parts[3]),
                "s": int(parts[4]),
                "energy": float(parts[6]),
            }
        )
    return rows


def test_criterion_8_figure_scan_properties(capsys):
    started = time.time()
    # energy vs flux, m >= 0: nondecreasing for every m
    assert cli.main(["scan", "--scan", "flux:0:10:201", "--m", "0..5"]) == 0
    rows = _scan_rows(capsys.readouterr().out)
    monotone = True
    for m in range(0, 6):
        energies = [r["energy"] for r in rows if r["m"] == m]
        monotone &= all(b >= a for a, b in zip(energies, energies[1:]))

    # energy vs flux, m in -5..-1: global minimum -2.0 at integer flux
    assert cli.main(["scan", "--scan", "flux:0:10:101", "--m=-5..-1"]) == 0
    rows = _scan_rows(capsys.readouterr().out)
    lowest = min(rows, key=lambda r: r["energy"])
    min_ok = (
        abs(lowest["energy"] + 2.0) <= 1e-12
        and abs(lowest["scan_value"] - round(lowest["scan_value"])) <= 1e-12
    )

    # energy vs rotation frequency for the irregular branch: affine
    assert cli.main(
        ["scan", "--scan", "omega:0:3:31", "--branch", "irregular",
         "--m", "0", "--flux", "0.2"]
    ) == 0
    rows = _scan_rows(capsys.readouterr().out)
    omegas = np.array([r["scan_value"] for r in rows])
    energies = np.array([r["energy"] for r in rows])
    coeffs = np.polyfit(omegas, energies, 1)
    fit_residual = float(np.max(np.abs(np.polyval(coeffs, omegas) - energies)))

    ok = monotone and min_ok and fit_residual < 1e-10
    _report(8, "flux/rotation scan shapes", started, ok,
            f"fit residual = {fit_residual:.2e}")


def test_criterion_9_special_function_suite():
    started = time.time()
    results = run_checks(["specfun"])
    failing = [r.name for r in results if not r.passed]
    worst = max(r.residual / r.tolerance for r in results if r.tolerance > 0)
    _report(9, "gamma and Kummer invariant suite", started,
            not failing, f"worst residual/tol = {worst:.2e}; failing = {failing}")
