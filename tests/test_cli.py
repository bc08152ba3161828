import dataclasses
import hashlib
import importlib.util
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy.special import eval_genlaguerre

import abcoulomb.specfun as specfun
from abcoulomb import cli, oracle, spectrum
from abcoulomb.model import (
    IRREGULAR,
    REGULAR,
    FloatRangeError,
    PhysicalParams,
    QuantumState,
    decompose_flux,
    is_singular_sector,
)
from abcoulomb.secular import solve_secular
from abcoulomb.spectrum import closed_form_energy
from abcoulomb.wavefunction import RadialProfile, normalize_and_count_nodes


def run_cli(capsys, argv):
    """(exit code, stdout, stderr) of ``abcoulomb *argv``, argparse's exits included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_rows(text):
    lines = text.strip().split("\n")
    assert lines[0] == cli.CSV_HEADER
    rows = []
    for line in lines[1:]:
        var, value, n, m, s, branch, energy, kappa, exists = line.split(",")
        rows.append(
            {
                "scan_var": var,
                "scan_value": float(value),
                "n": int(n),
                "m": int(m),
                "s": int(s),
                "branch": branch,
                "energy": float(energy),
                "kappa": float(kappa),
                "exists": exists == "true",
            }
        )
    return rows


class TestSpectrumCommand:
    def test_ground_state(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["spectrum", "--branch", "regular", "--n", "1", "--m", "0",
             "--spin", "+1", "--flux", "0", "--omega", "0"],
        )
        assert code == 0
        rows = parse_rows(out)
        assert len(rows) == 1
        assert rows[0]["energy"] == pytest.approx(-2.0, abs=1e-12)

    def test_irregular_blowup(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["spectrum", "--branch", "irregular", "--n", "1", "--m", "0",
             "--flux", "0.49", "--omega", "0"],
        )
        assert code == 0
        rows = parse_rows(out)
        assert rows[0]["energy"] == pytest.approx(-5000.0, rel=1e-6)

    def test_strict_sector_violation_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["spectrum", "--branch", "irregular", "--m", "1", "--flux", "0",
             "--strict"],
        )
        assert code == 3
        assert "1/2" in err

    def test_nonstrict_marks_exists_false(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["spectrum", "--branch", "irregular", "--m", "1", "--flux", "0"],
        )
        assert code == 0
        rows = parse_rows(out)
        assert rows[0]["exists"] is False
        assert math.isnan(rows[0]["energy"])
        assert "note" in err

    def test_bad_flags_exit_2(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["spectrum", "--branch", "bogus"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", [["spectrum"], ["scan", "--scan", "omega:0:1:2"]])
    def test_subnormal_kappa_refused(self, capsys, command):
        # q = 3e-308 is normal, kappa = q/(n - 1/2) = 3e-313 is not: the row
        # is refused as wavefunction refuses the state, not written as a
        # 3-digit kappa beside an energy of -0.0
        argv = [*command, "--eta", "3e-308", "--n", "1,100000"]
        kappa = 3e-308 / (100000 - 0.5)
        where = "n=100000, m=0, s=1, phi=0.0" + (", omega=0.0" if command[0] == "scan" else "")
        code, out, err = run_cli(capsys, argv)
        assert code == 0
        assert err == (f"note: refused rows marked exists=false (first at {where}: "
                       f"kappa = {kappa!r} is beyond the float range)\n")
        rows = parse_rows(out)
        assert [row["exists"] for row in rows] == [True, False] * (len(rows) // 2)
        assert all(math.isnan(row["energy"]) and math.isnan(row["kappa"]) for row in rows[1::2])
        code, out, err = run_cli(capsys, [*argv, "--strict"])
        assert (code, out) == (3, "")
        assert err == f"error: kappa = {kappa!r} is beyond the float range ({where})\n"

    @pytest.mark.parametrize("argv, reason, where", [
        (["--omega", "1e308", "--hbar", "10", "--branch", "both"],
         "the energy at kappa = 0.02", "n=1, m=0, s=1, phi=0.0"),
        (["--omega", "1e308", "--hbar", "10", "--lambda", "0", "--flux", "0.3"],
         "the energy at kappa = 0.012499999999999999", "n=1, m=0, s=1, phi=0.3"),
        (["--mass", "1e300", "--eta", "1e10", "--hbar", "10", "--branch", "both"],
         "kappa = inf", "n=1, m=0, s=1, phi=0.0"),
    ], ids=["rotation", "rotation-lambda0", "kappa"])
    def test_rows_beyond_the_float_range_refused(self, capsys, argv, reason, where):
        # the rotation shift (nan or -inf energy) or q / t (inf kappa)
        # overflows: each bound ladder row is refused, as a finite lambda's is
        reason += " is beyond the float range"
        code, out, err = run_cli(capsys, ["spectrum", *argv])
        assert (code, err) == (0, f"note: refused rows marked exists=false (first at {where}: "
                                  f"{reason})\n")
        rows = parse_rows(out)
        assert rows and not any(row["exists"] for row in rows)
        assert all(math.isnan(row["energy"]) and math.isnan(row["kappa"]) for row in rows)
        code, out, err = run_cli(capsys, ["spectrum", *argv, "--strict"])
        assert (code, out, err) == (3, "", f"error: {reason} ({where})\n")

    def test_energy_unit_below_the_float_range(self, capsys):
        # m_e eta^2 / (2 hbar^2) formed as q eta / 2 where eta^2 underflows:
        # E = -2e-100 beside kappa = 2e100, once -0.0
        code, out, err = run_cli(capsys, ["spectrum", "--mass", "1e300", "--eta", "1e-200"])
        assert (code, err) == (0, "")
        (row,) = parse_rows(out)
        assert (row["energy"], row["kappa"], row["exists"]) == (-2e-100, 2e100, True)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, ["spectrum", "--n", "1,2", "--format", "json"]
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["n"] for r in rows] == [1, 2]

    def test_determinism(self, capsys):
        argv = ["spectrum", "--n", "1..3", "--m=-2..2", "--spin", "+1,-1",
                "--flux", "0.37", "--omega", "0.21"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_rows_round_trip(self, capsys):
        omega = 0.43
        _, out, _ = run_cli(
            capsys,
            ["spectrum", "--n", "1..3", "--m=-3..3", "--spin", "+1,-1",
             "--branch", "both", "--flux", "0.31", "--omega", str(omega)],
        )
        params = PhysicalParams(omega=omega)
        for row in parse_rows(out):
            if not row["exists"]:
                continue
            state = QuantumState(row["n"], row["m"], row["s"], row["branch"])
            res = closed_form_energy(state, params, decompose_flux(row["scan_value"]))
            assert res.energy == row["energy"]
            assert res.kappa == row["kappa"]


class TestScanCommand:
    def test_flux_scan_sorted_and_monotone(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["scan", "--scan", "flux:0:10:201", "--n", "1", "--m", "0..5"],
        )
        assert code == 0
        rows = parse_rows(out)
        values = [(r["scan_value"], r["n"], r["m"], r["s"]) for r in rows]
        assert values == sorted(values)
        for m in range(0, 6):
            energies = [r["energy"] for r in rows if r["m"] == m]
            assert all(b >= a for a, b in zip(energies, energies[1:]))

    def test_flux_scan_negative_m_minimum_at_integer_flux(self, capsys):
        code, out, _ = run_cli(
            capsys, ["scan", "--scan", "flux:0:10:101", "--m=-5..-1"]
        )
        assert code == 0
        lowest = min(parse_rows(out), key=lambda r: r["energy"])
        assert lowest["energy"] == pytest.approx(-2.0, abs=1e-12)
        assert lowest["scan_value"] == pytest.approx(round(lowest["scan_value"]), abs=1e-12)

    def test_m_scan(self, capsys):
        code, out, _ = run_cli(
            capsys, ["scan", "--scan", "m:-3:3:7", "--flux", "0.2"]
        )
        assert code == 0
        rows = parse_rows(out)
        assert [r["m"] for r in rows] == list(range(-3, 4))

    def test_omega_scan_affine(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["scan", "--scan", "omega:0:3:31", "--branch", "irregular",
             "--m", "0", "--flux", "0.2"],
        )
        assert code == 0
        rows = parse_rows(out)
        omegas = [r["scan_value"] for r in rows]
        energies = [r["energy"] for r in rows]
        slope = (energies[-1] - energies[0]) / (omegas[-1] - omegas[0])
        for w, e in zip(omegas, energies):
            assert e == pytest.approx(energies[0] + slope * w, abs=1e-10)

    def test_bad_scan_spec_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["scan", "--scan", "flux:5:1:10"])
        assert excinfo.value.code == 2

    def test_m_scan_needs_integer_stride(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["scan", "--scan", "m:0:3:5"])
        assert excinfo.value.code == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, out, _ = run_cli(
            capsys, ["scan", "--scan", "flux:0:1:3", "--out", str(target)]
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith(cli.CSV_HEADER)

    def test_one_note_per_scan(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["scan", "--scan", "flux:0:10:401", "--omega", "1", "--n", "2,3",
             "--m", "0..5", "--branch", "both"],
        )
        assert code == 0
        notes = [line for line in err.splitlines() if line.startswith("note:")]
        assert notes == [
            "note: refused rows marked exists=false (first at n=2, m=1, s=1, phi=0.0: "
            "irregular state needs |j| < 1/2 but m + phi = 1.0)"
        ]


def reference_output(argv):
    """Output of ``spectrum``/``scan`` from the row-by-row evaluator: one
    QuantumState and closed_form_energy per row, in the loop order of the
    increasing scan values and the sorted n, m, s and branch lists, and
    json.dumps for JSON.  A row is refused (nan, nan, false) outside the
    irregular ladder's |j| < 1/2, and where it is bound (kappa > 0) but its
    kappa is not a normal float or its energy not finite.  Returns the text
    written, or the error line under --strict, which names the first refused
    row of that order."""
    args = cli._build_parser().parse_args(argv)
    params = PhysicalParams(m_e=args.mass, hbar=args.hbar, eta=args.eta, omega=args.omega)
    branches = [REGULAR, IRREGULAR] if args.branch == "both" else [args.branch]
    if args.command == "spectrum":
        points = [("flux", args.flux, params, args.flux, args.m)]
    else:
        var = args.scan.variable
        points = [
            (var, value,
             dataclasses.replace(params, omega=value) if var == "omega" else params,
             value if var == "flux" else args.flux,
             [int(value)] if var == "m" else args.m)
            for value in args.scan.values()
        ]
    rows = []
    for var, value, point_params, phi, ms in points:
        flux = decompose_flux(phi)
        for n, m, s, branch in itertools.product(
                sorted(args.n), sorted(ms), sorted(args.spin), sorted(branches)):
            where = f"n={n}, m={m}, s={s}, phi={phi}" + (
                f", omega={value}" if var == "omega" else "")
            if branch == IRREGULAR and not is_singular_sector(m + flux.phi):
                if args.strict:
                    return (
                        f"error: irregular state needs |j| < 1/2 but m + phi = "
                        f"{m + flux.phi} ({where})\n"
                    )
                rows.append((var, value, n, m, s, branch, math.nan, math.nan, False))
                continue
            res = closed_form_energy(QuantumState(n, m, s, branch), point_params, flux)
            normal = sys.float_info.min <= res.kappa <= sys.float_info.max
            if res.kappa > 0.0 and not (normal and math.isfinite(res.energy)):
                if args.strict:
                    what = "the energy at kappa" if normal else "kappa"
                    return f"error: {what} = {res.kappa!r} is beyond the float range ({where})\n"
                rows.append((var, value, n, m, s, branch, math.nan, math.nan, False))
                continue
            rows.append((var, value, n, m, s, branch, res.energy, res.kappa, res.exists))
    if args.format == "json":
        keys = cli.CSV_HEADER.split(",")
        return json.dumps([dict(zip(keys, row)) for row in rows], indent=2) + "\n"
    lines = [cli.CSV_HEADER] + [
        f"{var},{value!r},{n},{m},{s},{branch},{energy!r},{kappa!r},"
        f"{'true' if exists else 'false'}"
        for var, value, n, m, s, branch, energy, kappa, exists in rows
    ]
    return "\n".join(lines) + "\n"


def random_argv(seed):
    """A seeded scan or spectrum: flux, omega or m sweeps that may cross
    negative flux, unsorted lists of distinct entries, spins of both signs,
    every branch choice, and random physics flags."""
    rng = random.Random(seed)

    def int_list(lo, hi):
        return ",".join(map(str, rng.sample(range(lo, hi + 1), rng.randint(1, 4))))

    command = rng.choice(["spectrum", "flux", "omega", "m"])
    argv = ["spectrum"] if command == "spectrum" else ["scan"]
    if command in ("flux", "omega"):
        start = round(rng.uniform(-3.0, 1.0), rng.choice([1, 3, 17]))
        stop = start + rng.uniform(0.1, 5.0)
        argv.append(f"--scan={command}:{start!r}:{stop!r}:{rng.randint(2, 40)}")
    elif command == "m":
        start, stride, steps = rng.randint(-6, 2), rng.randint(1, 3), rng.randint(2, 6)
        argv.append(f"--scan=m:{start}:{start + stride * (steps - 1)}:{steps}")
    argv += [
        f"--n={int_list(1, 5)}",
        f"--m={int_list(-3, 3)}",
        "--spin=" + ",".join(rng.sample(["+1", "-1"], rng.randint(1, 2))),
        "--branch", rng.choice([REGULAR, IRREGULAR, "both"]),
        f"--flux={rng.uniform(-2.0, 2.0)!r}",
        f"--omega={rng.choice([0.0, rng.uniform(-2.0, 2.0)])!r}",
        f"--eta={rng.choice([1.0, 0.0, rng.uniform(0.1, 3.0)])!r}",
        f"--mass={rng.uniform(0.2, 3.0)!r}",
        f"--hbar={rng.uniform(0.2, 3.0)!r}",
    ]
    if rng.random() < 0.25:
        argv.append("--strict")
    return argv


FIXED_ARGV = [
    # rotation beyond the float range: every row refused, its energy inf or
    # nan beside a finite kappa
    ["spectrum", "--omega", "1e308", "--hbar", "10", "--m=-1..1", "--spin=+1,-1",
     "--branch", "both"],
    # and from omega = 4e307 on, where hbar * omega overflows; below it the
    # rows are written
    ["scan", "--scan", "omega:1e307:1e308:4", "--hbar", "10", "--m=-1,1,0", "--spin=-1,+1",
     "--branch", "both", "--flux", "0.2"],
    ["scan", "--scan", "flux:0:10:401", "--omega", "1", "--n", "2,3", "--m", "0..5",
     "--branch", "both"],
    ["scan", "--scan", "flux:-0.49:0.49:197", "--branch", "irregular", "--n", "1..4",
     "--m", "0", "--spin", "+1,-1", "--omega", "1"],
    ["scan", "--scan", "m:-10:10:21", "--flux", "0.6", "--omega", "1", "--spin", "+1,-1",
     "--branch", "both"],
    ["spectrum", "--branch", "irregular", "--m", "1", "--flux", "0", "--strict"],
    # repeated entries on the key axes, refused (FIXED_REFUSALS)
    ["scan", "--scan", "flux:-0.4:0.4:5", "--n", "3,1,3", "--m=2,-1,2", "--spin=+1,-1,+1",
     "--branch", "both"],
    # and on the value axis: the linspace steps underflow to repeated values
    ["scan", "--scan", "flux:0:2e-323:9", "--n", "3,1", "--m=2,-1", "--spin=+1,-1",
     "--branch", "both"],
    # an energy unit beyond the float range: every row refused, its energy
    # -inf, and its kappa inf too at t = 1/2
    ["scan", "--scan", "omega:1e307:1e308:3", "--hbar", "10", "--mass", "1e300", "--eta", "1e10",
     "--m=0,-1", "--spin=+1,-1", "--branch", "both"],
    # the error names m=-2, the first offending row of the output, not m=3,
    # the first in the given order
    ["scan", "--scan", "flux:0:0.4:3", "--m=3,-2,1", "--branch", "irregular", "--strict"],
    # no Coulomb attraction: rows with kappa = 0 are not bound, so their inf,
    # -inf and nan energies are written (JSON's Infinity, -Infinity and NaN)
    ["spectrum", "--eta", "0", "--omega", "1e308", "--hbar", "10", "--m=-2..1", "--spin=+1,-1",
     "--branch", "both"],
]
# The error line of each FIXED_ARGV entry refused at parse time, with exit 2.
FIXED_REFUSALS = {
    6: "argument --n: 3 is listed more than once",
    7: "argument --scan: steps below the float spacing repeat 0.0",
}
COLUMNAR_CASES = [(random_argv(seed), None) for seed in range(48)] + [
    (argv, FIXED_REFUSALS.get(i)) for i, argv in enumerate(FIXED_ARGV)]


def assert_same_text(out, expected):
    """``out == expected``, reported by its first differing line: pytest's
    diff of two long, nearly equal texts takes minutes."""
    if out == expected:
        return
    got, want = out.split("\n"), expected.split("\n")
    for number, (line, reference) in enumerate(zip(got, want), start=1):
        if line != reference:
            pytest.fail(f"line {number} differs: {line!r} != {reference!r}")
    pytest.fail(f"{len(got)} lines written, {len(want)} expected")


class TestColumnarRows:
    """``spectrum`` and ``scan`` write exactly the bytes of the row-by-row
    evaluator."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv, refusal", COLUMNAR_CASES,
        ids=[f"seed{seed}" for seed in range(48)] + [f"fixed{i}" for i in range(len(FIXED_ARGV))],
    )
    def test_matches_row_by_row_reference(self, capsys, argv, refusal, fmt):
        argv = argv + ["--format", fmt]
        code, out, err = run_cli(capsys, argv)
        if refusal is not None:
            assert (code, out) == (2, "")
            assert err.splitlines()[-1].endswith(f": error: {refusal}")
            return
        expected = reference_output(argv)
        if expected.startswith("error:"):
            assert (code, err) == (3, expected)
            assert_same_text(out, "")
        else:
            assert code == 0
            assert_same_text(out, expected)

    def test_fixed_cases_write_every_json_spelling_of_a_nonfinite_float(self, capsys):
        spellings = set()
        for argv in FIXED_ARGV[:2] + FIXED_ARGV[8:9] + FIXED_ARGV[10:11]:
            code, out, _ = run_cli(capsys, argv + ["--format", "json"])
            assert code == 0
            rows = json.loads(out)
            spellings |= {(key, repr(row[key])) for row in rows for key in ("energy", "kappa")
                          if not math.isfinite(row[key])}
        assert spellings >= {("energy", "inf"), ("energy", "-inf"), ("energy", "nan"),
                             ("kappa", "nan")}

    def test_random_cases_cover_every_kind(self):
        argvs = [random_argv(seed) for seed in range(48)]
        kinds = {argv[1].split(":")[0] if argv[0] == "scan" else "spectrum" for argv in argvs}
        assert kinds == {"--scan=flux", "--scan=omega", "--scan=m", "spectrum"}
        assert any("--strict" in argv for argv in argvs)
        assert {argv[argv.index("--branch") + 1] for argv in argvs} == {REGULAR, IRREGULAR, "both"}


# SHA-256 of each file scripts/run_scans.py writes, recorded from the
# row-by-row evaluator; identical flags give byte-identical files.
RUN_SCANS_SHA256 = {
    "irregular_vs_flux_n1to4.csv":
        "6f3276ef09e810489d60a0f86458b0e4cfb80faca780a4fa7a606abfed9776d7",
    "irregular_vs_flux_n5to8.csv":
        "b9753b349d545e50fe4f1defef41d08e65641c1221eeca5ad20a63931cd5b779",
    "irregular_vs_flux_spin.csv":
        "b8a1a3dfed101a99b54d907d515c82248a244049f57a6c4b949fe896a888f8f4",
    "irregular_vs_omega.csv":
        "83e35d71566b84108fedfe1c320c1aaad32f97da87bd661a043276630ea7180e",
    "regular_vs_flux_m_neg_n1.csv":
        "ad2a5c44cb60c50e09bc89ed2bac90b621cac3a9aa217fdd83ed98387c65db04",
    "regular_vs_flux_m_neg_n2.csv":
        "e67643bc94cd74fdc9686a6da3cfd51b10afa2355094bbff7ad3231a202577bd",
    "regular_vs_flux_m_nonneg_n1.csv":
        "91a665612919334cf9c0c407443ee6b237879cc284476b32804d58f5e1a6883b",
    "regular_vs_flux_m_nonneg_n2.csv":
        "0df53e9e2bd7ec72cc078e47c19eae00b3e13c74ed523e1e4ac072a3bea54861",
    "regular_vs_flux_rotating_n1.csv":
        "29bca55feb8d9f95a41ea1160a8cd42b57a981a992c3767bbe413d654912007e",
    "regular_vs_flux_rotating_n2n3.csv":
        "daabdaf005d0d737439a5bdb638152859b35ed244a32cdd91fa00d2f2a08a7d9",
    "regular_vs_m_flux0p6.csv":
        "ff50fe06cff543b2688d8a43296beed873dbcd25a9b5daee4c6c6129bb70db73",
    "regular_vs_m_flux1.csv":
        "17a3d5d3360648b12a0e98673f50bb7acb51abbff2a49946a816220eade3add6",
    "regular_vs_m_flux5.csv":
        "01fa4a17945db7c4d45c0123a8e8b64ccc9a4b88cc7143358579e44c70363de0",
    "regular_vs_omega_n1.csv":
        "02b02b373584adeeac3adad5c69c81a818e2b878a90af55e566c6bd1599de67d",
    "regular_vs_omega_n2.csv":
        "b29f081b72ebb403209d7d266643a2d4fc20b10e54c16a88148f7cb7ccff83a6",
}


def test_run_scans_golden_digests(tmp_path, monkeypatch, capsys):
    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_scans.py"
    spec = importlib.util.spec_from_file_location("run_scans", script)
    run_scans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_scans)
    assert {name for name, _ in run_scans.RECIPES} == set(RUN_SCANS_SHA256)
    monkeypatch.setattr("sys.argv", ["run_scans.py", "--outdir", str(tmp_path)])
    assert run_scans.main() == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert digests == RUN_SCANS_SHA256


def test_export_wavefunctions_writes_every_profile(tmp_path, monkeypatch, capsys):
    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "export_wavefunctions.py"
    spec = importlib.util.spec_from_file_location("export_wavefunctions", script)
    export = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(export)
    monkeypatch.setattr("sys.argv", ["export_wavefunctions.py", "--outdir", str(tmp_path)])
    assert export.main() == 0
    assert {path.name for path in tmp_path.iterdir()} == {name for name, _ in export.PROFILES}
    assert len(export.PROFILES) == 8
    for name, argv in export.PROFILES:
        index = int(argv[argv.index("--n") + 1])
        lines = (tmp_path / name).read_text().split("\n")
        assert lines[0] == "r,F" and lines[-1] == ""
        values = np.array([float(line.split(",")[1]) for line in lines[1:-1]])
        assert values.size == 2000
        kept = values[np.abs(values) > 1e-13 * np.max(np.abs(values))]
        assert np.count_nonzero(kept[:-1] * kept[1:] < 0.0) == index - 1, name


class TestSecularCommand:
    """The levels of an extension, written by ``spectrum --lambda``: the
    closed-form ladders at lambda = 0 and inf, the secular roots elsewhere."""

    def test_regular_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, ["spectrum", "--lambda", "0", "--flux", "0.2", "--n", "1..3"]
        )
        assert code == 0
        rows = parse_rows(out)
        assert [r["branch"] for r in rows] == [REGULAR] * 3
        assert [r["kappa"] for r in rows] == pytest.approx([1 / 0.7, 1 / 1.7, 1 / 2.7], rel=1e-10)

    def test_infinity_parsing(self, capsys):
        code, out, _ = run_cli(capsys, ["spectrum", "--lambda", "inf", "--flux", "0.2"])
        assert code == 0
        (row,) = parse_rows(out)
        assert row["branch"] == IRREGULAR
        assert row["kappa"] == pytest.approx(1 / 0.3, rel=1e-10)

    @pytest.mark.parametrize("text", ["+inf", "Infinity", " +inf"])
    def test_infinity_spellings_give_the_irregular_ladder(self, capsys, text):
        code, out, _ = run_cli(
            capsys, ["spectrum", f"--lambda={text}", "--flux", "0.2", "--n", "1..3"]
        )
        assert code == 0
        kappas = [row["kappa"] for row in parse_rows(out)]
        assert kappas == [1.0 / (n - 0.5 - 0.2) for n in (1, 2, 3)]

    @pytest.mark.parametrize("flag", [["--lambda", "nan"], ["--lambda=-inf"]])
    def test_lambda_outside_its_range_exits_2(self, capsys, flag):
        # lambda lies in (-inf, +inf]: refused at parse time, before any solve
        for command in (["spectrum"], ["scan", "--scan", "flux:0:0.4:3"]):
            with pytest.raises(SystemExit) as excinfo:
                cli.main([*command, *flag, "--flux", "0.2"])
            assert excinfo.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "argument --lambda: invalid" in captured.err

    def test_energy_column(self, capsys):
        _, out, _ = run_cli(capsys, ["spectrum", "--lambda=-1", "--flux", "0.2", "--n", "1..3"])
        rows = parse_rows(out)
        assert [r["branch"] for r in rows] == [cli.EXTENSION] * 3
        for row in rows:
            assert row["energy"] == pytest.approx(-0.5 * row["kappa"] ** 2, rel=1e-12)

    @staticmethod
    def _energy_kappa(out, fmt):
        """The (energy, kappa) text of each row of ``spectrum``."""
        if fmt == "json":
            rows = json.loads(out, parse_float=str)
        else:
            header, *lines = out.strip().split("\n")
            rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        return [(row["energy"], row["kappa"]) for row in rows]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_ladder_energies_are_the_spectrum_bytes(self, capsys, fmt):
        # lambda = 0 and inf take the ladders' t: inside |j| < 1/2 their
        # rows are the --branch regular|irregular bytes, branch column
        # included, on single points and on flux and omega scans; where the
        # rotation shift or the energy unit overflows, both refuse every row
        # with the same note
        rng = random.Random(28)
        cases = []
        for _ in range(25):
            m = rng.randint(-3, 3)
            low = rng.uniform(-0.499, 0.3)
            sweep = rng.choice([
                [],
                ["--scan", f"flux:{low - m!r}:{rng.uniform(low + 0.01, 0.499) - m!r}:"
                           f"{rng.randint(2, 9)}"],
                ["--scan", f"omega:{rng.uniform(-3.0, 0.0)!r}:{rng.uniform(0.1, 3.0)!r}:"
                           f"{rng.randint(2, 9)}"],
            ])
            flags = [
                *sweep, "--mass", repr(10 ** rng.uniform(-2, 2)),
                "--hbar", repr(10 ** rng.uniform(-1, 1)), "--eta", repr(10 ** rng.uniform(-2, 2)),
                "--omega", repr(rng.uniform(-3.0, 3.0)), "--flux", repr(rng.uniform(-0.499, 0.499) - m),
                f"--m={m}", "--spin=" + ",".join(rng.sample(["+1", "-1"], rng.randint(1, 2))),
                f"--n=1..{rng.randint(1, 30)}", "--format", fmt,
            ]
            cases.append(("scan" if sweep else "spectrum", flags, False))
        for overflow in (["--omega", "1e308", "--hbar", "10"],
                         ["--mass", "1e300", "--eta", "1e10", "--hbar", "10"]):
            flags = [*overflow, "--spin=+1,-1", "--n=1..3", "--format", fmt]
            cases.append(("spectrum", flags, True))
        for command, flags, refused in cases:
            for lam, branch in (("0", REGULAR), ("inf", IRREGULAR)):
                code, extension, err = run_cli(capsys, [command, "--lambda", lam, *flags])
                assert code == 0
                note = "note: refused rows marked exists=false"
                assert err.startswith(note) if refused else err == ""
                assert run_cli(capsys, [command, "--branch", branch, *flags]) == (0, extension, err)

    def test_no_written_row_leaves_the_float_range(self, capsys):
        # log-uniform units and rotation across the float range: every row
        # written as bound has a normal kappa and a finite energy, on both
        # ladders and at finite lambda alike
        rng = random.Random(33)
        checked = 0
        for _ in range(400):
            mass, hbar, eta, omega = (10.0 ** rng.uniform(-307.0, 308.0) for _ in range(4))
            omega *= rng.choice([1.0, -1.0])
            try:
                PhysicalParams(m_e=mass, hbar=hbar, eta=eta, omega=omega)
            except FloatRangeError:
                continue
            flags = ["--mass", repr(mass), "--hbar", repr(hbar), "--eta", repr(eta),
                     f"--omega={omega!r}", f"--flux={rng.uniform(-0.45, 0.45)!r}",
                     "--m=-1..1", "--spin=+1,-1", "--n=1..3"]
            for kind in (["--branch", "both"], ["--lambda=0"], ["--lambda=inf"],
                         ["--lambda=-1"], ["--lambda=2"]):
                code, out, _ = run_cli(capsys, ["spectrum", *kind, *flags])
                assert code == 0
                for row in parse_rows(out):
                    if row["exists"]:
                        checked += 1
                        assert sys.float_info.min <= row["kappa"] <= sys.float_info.max, flags
                        assert math.isfinite(row["energy"]), flags
        assert checked > 100

    def test_default_ladder_energy_is_the_closed_forms(self, capsys):
        # both take the Coulomb term from t; from kappa^2 it rounds to -0.78125
        for argv in (["spectrum", "--lambda", "0"], ["spectrum"]):
            _, out, _ = run_cli(capsys, [*argv, "--flux", "0.3"])
            assert self._energy_kappa(out, "csv") == [("-0.7812499999999999", "1.25")]

    def test_zero_coupling_energy(self, capsys):
        # eta = 0 leaves one root at lambda < 0, at t = 0, where the Coulomb
        # term is -hbar^2 kappa^2 / (2 m_e); the shift is summed as
        # rotation_parts sums it
        code, out, err = run_cli(capsys, [
            "spectrum", "--eta", "0", "--lambda=-1", "--flux", "0.3", "--mass", "2",
            "--hbar", "0.5", "--omega", "0.7"])
        assert (code, err) == (0, "")
        ((energy, kappa),) = self._energy_kappa(out, "csv")
        params = PhysicalParams(m_e=2.0, hbar=0.5, eta=0.0, omega=0.7)
        (root,) = solve_secular(-1.0, 0.3, params, 3)
        assert float(kappa) == root.kappa and root.t == 0.0
        orbit, spin = spectrum.rotation_parts(params, 0.3, 1)
        assert float(energy) == -(0.5**2) * root.kappa * root.kappa / (2.0 * 2.0) + (orbit + spin)

    def test_deep_root_of_subnormal_t_squared(self, capsys):
        # root 1 at t = 1.4e-161, where t*t is subnormal: the Coulomb term
        # on t would be 4.4e-3 off, and on kappa it is at rounding
        mass, hbar = 0.16439672947206355, 45.41963010757421
        code, out, err = run_cli(capsys, [
            "spectrum", "--lambda=-0.0015793999370947848", "--flux", "0.00927038015712793",
            "--mass", repr(mass), "--hbar", repr(hbar), "--eta", "2.498914864749128e-06"])
        assert (code, err) == (0, "")
        ((energy, kappa),) = self._energy_kappa(out, "csv")
        with mpmath.workdps(40):
            exact = -mpmath.mpf(hbar) ** 2 * mpmath.mpf(kappa) ** 2 / (2 * mpmath.mpf(mass))
            assert abs(float(energy) - exact) <= 4e-16 * abs(exact)

    def test_huge_hbar_energy_exits_3(self, capsys):
        # hbar^2 overflows: the parameters are refused before any root is solved
        code, out, err = run_cli(
            capsys, ["spectrum", "--lambda=-1", "--hbar", "1e160", "--flux", "0.3"])
        assert code == 3 and out == ""
        assert err == "error: hbar^2 at hbar = 1e+160 is beyond the float range\n"
        # an energy beyond the float range, here from the rotation shift, is
        # refused at its root: exit 3 under --strict, else an exists=false
        # row and a note
        argv = ["spectrum", "--lambda=-1", "--hbar", "10", "--omega", "1e308", "--flux", "0.3"]
        code, out, err = run_cli(capsys, [*argv, "--strict"])
        assert code == 3 and out == ""
        assert err.startswith("error: the energy at kappa = ") and "float range" in err
        assert err.endswith(" (n=1, m=0, s=1, phi=0.3)\n")
        code, out, err = run_cli(capsys, argv)
        assert code == 0 and err.startswith("note: refused rows marked exists=false")
        (row,) = parse_rows(out)
        assert not row["exists"] and math.isnan(row["energy"]) and math.isnan(row["kappa"])

    def test_sector_violation_exit_3(self, capsys):
        code, _, err = run_cli(capsys, ["spectrum", "--lambda", "1", "--flux", "0.7", "--strict"])
        assert code == 3
        assert err == ("error: lambda = 1.0 state needs |j| < 1/2 but m + phi = 0.7 "
                       "(n=1, m=0, s=1, phi=0.7)\n")

    @pytest.mark.parametrize(
        "lam, j",
        [("-0.1", "0.003"),  # kappa ~ 5e166 is a float, kappa^2 is not
         ("-0.06", "0.0018")],  # kappa ~ 1e339
    )
    def test_beyond_float_range_exits_3(self, capsys, lam, j):
        argv = ["spectrum", f"--lambda={lam}", "--flux", j, "--n", "1,2"]
        code, out, err = run_cli(capsys, [*argv, "--strict"])
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "float range" in err and err.count("\n") == 1
        # without --strict the root is an exists=false row, named by the note
        code, out, err = run_cli(capsys, argv)
        assert code == 0
        assert err.startswith("note: refused rows marked exists=false (first at n=1,")
        rows = parse_rows(out)
        assert not rows[0]["exists"] and math.isnan(rows[0]["kappa"])

    @pytest.mark.parametrize("lam, sign", [("0", 1.0), ("inf", -1.0)])
    def test_ladder_past_root_171(self, capsys, lam, sign):
        # 1/Gamma(a) overflows for a < -171; every ladder level is still a
        # float, t = n - 1/2 +- |j| needing no gamma function
        code, out, err = run_cli(
            capsys, ["spectrum", "--lambda", lam, "--flux", "0.3", "--n", "1..300"]
        )
        assert (code, err) == (0, "")
        rows = parse_rows(out)
        assert [row["n"] for row in rows] == list(range(1, 301))
        assert all(row["exists"] for row in rows)
        exact = [1.0 / (n - 0.5 + sign * 0.3) for n in range(1, 301)]
        assert [row["kappa"] for row in rows] == pytest.approx(exact, rel=1e-13)

    def test_secular_command_is_gone(self, capsys):
        # its levels are spectrum --lambda's: one spectrum command
        code, out, err = run_cli(capsys, ["secular", "--lambda", "1", "--count", "3"])
        assert (code, out) == (2, "")
        assert "invalid choice: 'secular'" in err

    def test_count_below_one_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["spectrum", "--lambda", "0", "--n", "0"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("j", ["0.5", "1", "0.7"])
    def test_infinite_lambda_outside_sector_exits_3(self, capsys, j):
        # the irregular ladder needs |j| < 1/2, as `spectrum --branch irregular`
        code, out, err = run_cli(capsys, ["spectrum", "--lambda", "inf", "--flux", j, "--strict"])
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "1/2" in err

    def test_j_zero_finite_lambda_exits_3(self, capsys):
        for lam in ("-1", "2"):
            code, out, err = run_cli(
                capsys, ["spectrum", f"--lambda={lam}", "--flux", "0", "--n", "1..3", "--strict"]
            )
            assert code == 3
            assert out == ""
            assert "log r" in err

    @pytest.mark.parametrize(
        "sweep",
        [["spectrum", "--flux", "0.3", "--m=-1..1"],
         ["scan", "--scan", "flux:-0.45:0.4:6", "--m=-1..1"],
         ["scan", "--scan", "omega:-1:2:4", "--flux", "0.2"],
         ["scan", "--scan", "m:-2:2:5", "--flux", "1.7"]],
        ids=["spectrum", "flux", "omega", "m"],
    )
    @pytest.mark.parametrize("lam", ["-3.5", "-0.01", "0.2", "40"])
    def test_rows_are_the_roots_of_each_j(self, capsys, sweep, lam):
        # each row's kappa is its root's, and its energy the closed form's
        # formula at the root's t with the shift summed as rotation_parts
        # sums it; rows outside |j| < 1/2 are refused, with a note
        flags = ["--n", "1..4", "--spin", "+1,-1", "--omega", "0.3", "--mass", "1.3", "--eta", "0.7"]
        code, out, err = run_cli(capsys, [*sweep, f"--lambda={lam}", *flags])
        assert code == 0
        rows = parse_rows(out)
        assert {row["branch"] for row in rows} == {cli.EXTENSION}
        refused = 0
        for row in rows:
            j = row["m"] + (row["scan_value"] if row["scan_var"] == "flux" else 0.0)
            if row["scan_var"] != "flux":
                j += float(sweep[sweep.index("--flux") + 1])
            omega = row["scan_value"] if row["scan_var"] == "omega" else 0.3
            params = PhysicalParams(m_e=1.3, eta=0.7, omega=omega)
            if not is_singular_sector(j):
                refused += 1
                assert not row["exists"] and math.isnan(row["energy"])
                continue
            root = solve_secular(float(lam), j, params, 4)[row["n"] - 1]
            orbit, spin = spectrum.rotation_parts(params, j, row["s"])
            assert row["exists"] and row["kappa"] == root.kappa
            assert row["energy"] == -params.energy_unit / (root.t * root.t) + (orbit + spin)
        assert bool(refused) == err.startswith("note: refused rows marked exists=false (first at ")
        assert bool(refused) == (f": lambda = {float(lam)!r} state needs |j| < 1/2" in err)

    def test_rows_past_the_last_root_exist_false_without_a_note(self, capsys):
        # with no Coulomb attraction lambda > 0 has no root and lambda < 0
        # one, as the closed form's rows at eta = 0 are exists=false
        for lam, roots in (("1", 0), ("-1", 1)):
            code, out, err = run_cli(
                capsys, ["spectrum", f"--lambda={lam}", "--eta", "0", "--flux", "0.2", "--n", "1..3"])
            assert (code, err) == (0, "")
            rows = parse_rows(out)
            assert [row["exists"] for row in rows] == [True] * roots + [False] * (3 - roots)
            assert all(math.isnan(row["kappa"]) for row in rows[roots:])

    def test_flux_scan_every_root_exists(self, capsys):
        code, out, err = run_cli(
            capsys, ["scan", "--scan", "flux:0.05:0.45:9", "--lambda=-1", "--n", "1..3"])
        assert (code, err) == (0, "")
        rows = parse_rows(out)
        assert len(rows) == 27 and all(row["exists"] for row in rows)
        # root 1 of lambda < 0 is the deep state, below the irregular ladder
        for row in rows:
            if row["n"] == 1:
                assert row["kappa"] > 1.0 / (0.5 - row["scan_value"])


class TestWavefunctionCommand:
    def test_default_state(self, capsys):
        # flux 0, m 0: j = 0, where normalizable_coefficients vanishes
        code, out, err = run_cli(capsys, ["wavefunction", "--n", "1"])
        assert code == 0, err
        assert len(out.strip().split("\n")) == 2001

    @pytest.mark.parametrize(
        "branch, n, m, flux",
        [("regular", 1, 0, 0.0), ("regular", 3, 0, 0.0), ("regular", 2, 0, 0.5),
         ("regular", 2, -1, 0.5), ("regular", 3, 1, 0.0), ("regular", 2, 2, 0.3),
         ("irregular", 1, 0, 0.0), ("irregular", 3, 0, 0.3)],
    )
    def test_closed_form_states_match_laguerre(self, capsys, branch, n, m, flux):
        # integer 2|j| puts Gamma(1 - 2|j|) on a pole; the ladder's own
        # piece x^{+-|j|} e^{-x/2} L_{n-1}^{(+-2|j|)} needs no such factor
        code, out, err = run_cli(
            capsys,
            ["wavefunction", "--branch", branch, "--n", str(n), f"--m={m}",
             "--flux", str(flux), "--points", "500"],
        )
        assert code == 0, err
        r, values = np.array(
            [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]]
        ).T
        power = (1.0 if branch == "regular" else -1.0) * abs(m + flux)
        kappa = 1.0 / (n - 0.5 + power)
        x = 2.0 * kappa * r
        laguerre = x**power * np.exp(-0.5 * x) * eval_genlaguerre(n - 1, 2.0 * power, x)
        scale = np.dot(values, laguerre) / np.dot(laguerre, laguerre)
        assert np.max(np.abs(values - scale * laguerre)) <= 1e-12 * np.max(np.abs(values))

    def test_closed_form_profile(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["wavefunction", "--branch", "regular", "--n", "1", "--m", "0",
             "--flux", "0.2", "--points", "64"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "r,F"
        assert len(lines) == 65
        radii = [float(line.split(",")[0]) for line in lines[1:]]
        assert radii == sorted(radii)

    def test_secular_state_profile(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["wavefunction", "--lambda", "-1", "--m", "0", "--flux", "0.2",
             "--n", "1", "--points", "64"],
        )
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
        assert all(math.isfinite(v) for v in values)

    @pytest.mark.parametrize(
        "lam, flux, root", [("1", "0.3", 10), ("0.01", "0.1", 7), ("1", "0.3", 12), ("1", "0.3", 20)]
    )
    def test_secular_state_where_hyperu_is_not_finite(self, capsys, lam, flux, root):
        # hyperu is nan at a few of these samples (at most of them from root
        # 12 on); the state is written, with one sign change per node
        code, out, err = run_cli(
            capsys,
            ["wavefunction", f"--lambda={lam}", "--flux", flux, "--n", str(root),
             "--points", "4000"],
        )
        assert code == 0, err
        rows = np.array([[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]])
        r, values = rows.T
        assert values.size == 4000 and np.all(np.isfinite(values))
        assert np.count_nonzero(values[:-1] * values[1:] < 0.0) == root - 1
        kappa = solve_secular(float(lam), float(flux), PhysicalParams(), root)[-1].kappa
        # origin_norm only enters the norm, not the node count
        profile = RadialProfile(r=r, values=values, kappa=kappa, origin_norm=0.0)
        assert normalize_and_count_nodes(profile)[1] == root - 1

    @pytest.mark.parametrize(
        "argv",
        [["--lambda=1", "--flux", "1e-15", "--n", "2"],
         ["--lambda=1e-300", "--flux", "1e-16"],
         ["--lambda=1e300", "--flux", "1e-16"],
         ["--lambda=-1", "--flux", "5e-17", "--n", "2"]],
    )
    def test_finite_lambda_at_the_j_zero_limit_exits_3(self, capsys, argv):
        # 2|j| is below the rounding of a and a', both are one integer, and
        # both normalizable coefficients vanish: refused, as j = 0 is
        code, out, err = run_cli(capsys, ["wavefunction", *argv])
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "j = 0 limit" in err and "log r" in err

    @pytest.mark.parametrize("root", [1, 3])
    @pytest.mark.parametrize(
        "m, flux", [(0, "0"), (-1, "1"), (0, "1e-16"), (0, "0.3"), (0, "0.45")])
    @pytest.mark.parametrize("lam, branch", [("0", "regular"), ("inf", "irregular")])
    def test_ladder_extension_where_the_ladders_meet(self, capsys, lam, branch, m, flux, root):
        # lambda = 0 and inf write their closed-form ladder state byte for
        # byte: at j = 0, where 2|j| is lost in the rounding of a and a' and
        # both normalizable coefficients vanish, and away from it
        common = [f"--m={m}", "--flux", flux, "--points", "300"]
        code, out, err = run_cli(
            capsys, ["wavefunction", f"--lambda={lam}", "--n", str(root), *common])
        assert code == 0, err
        assert run_cli(capsys, ["wavefunction", "--branch", branch, "--n", str(root), *common]) \
            == (0, out, "")

    def test_irregular_ladder_past_the_normalizable_coefficients(self, capsys):
        # -2|j| alpha N paired alpha ~ 1/(n - 1)! with an N of order (n - 1)!,
        # which left the float range from n = 105; the ladder's own piece
        # carries neither
        common = ["--flux", "0.3", "--points", "8000"]
        code, out, err = run_cli(capsys, ["wavefunction", "--branch", "irregular", "--n", "150",
                                          *common])
        assert code == 0, err
        assert run_cli(capsys, ["wavefunction", "--lambda", "inf", "--n", "150", *common]) \
            == (0, out, "")
        values = np.array([float(line.split(",")[1]) for line in out.strip().split("\n")[1:]])
        assert values.size == 8000
        assert np.count_nonzero(values[:-1] * values[1:] < 0.0) == 149

    def test_secular_state_where_u_at_the_expansion_start_overflows(self, capsys):
        # U(a, b, x_s) ~ 1e375 at x_s = 5 839, while U on the mesh is a float
        code, out, err = run_cli(
            capsys, ["wavefunction", "--lambda=1", "--flux", "0.3", "--n", "90",
                     "--points", "8000"])
        assert code == 0, err
        values = np.array([float(line.split(",")[1]) for line in out.strip().split("\n")[1:]])
        assert values.size == 8000 and np.all(np.isfinite(values))
        assert np.count_nonzero(values[:-1] * values[1:] < 0.0) == 89

    @pytest.mark.parametrize(
        "argv",
        [["--eta", "0"],  # kappa = 0: no closed-form bound state
         ["--lambda", "1", "--flux", "0.2", "--eta", "0"]],  # no secular root
    )
    def test_no_bound_state_exits_3(self, capsys, argv):
        code, out, err = run_cli(capsys, ["wavefunction", *argv])
        assert code == 3
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("flux", ["1e300", "-1e300"])
    def test_beyond_float_range_exits_3(self, capsys, flux):
        code, out, err = run_cli(capsys, ["wavefunction", f"--flux={flux}"])
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "float range" in err

    def test_subnormal_kappa_exits_3(self, capsys):
        # q = 3e-308 is normal, kappa = q/(n - 1/2) = 3e-313 is not: t = q/kappa
        # lost the ladder's integer, and the command once refused its own
        # coefficients with a traceback
        code, out, err = run_cli(
            capsys, ["wavefunction", "--eta", "3e-308", "--n", "100000", "--points", "16"])
        assert code == 3 and out == ""
        assert err == (f"error: kappa = {3e-308 / (100000 - 0.5)!r} is beyond the float range "
                       "(n=100000, m=0, s=1, phi=0.0)\n")

    @pytest.mark.parametrize("m", [100, 150])
    def test_large_m_ladder_profile(self, capsys, m):
        # Gamma(1 + 2|j|) and (2 kappa)^{-2|j|} overflow, the profile does not
        code, out, err = run_cli(capsys, ["wavefunction", "--m", str(m), "--points", "200"])
        assert code == 0, err
        values = np.array([float(line.split(",")[1]) for line in out.strip().split("\n")[1:]])
        assert values.size == 200
        assert np.all(np.isfinite(values)) and np.any(values != 0.0)

    @pytest.mark.parametrize("m", [300, 1000])
    def test_large_m_profile_beyond_float_range_exits_3(self, capsys, m):
        code, out, err = run_cli(capsys, ["wavefunction", "--m", str(m)])
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "float range" in err

    @pytest.mark.xfail(strict=True, reason="U in -2|j|N overflows before the envelope scales it")
    def test_secular_state_past_root_105(self, capsys):
        # spectrum --strict writes root 106 of lambda = 2 at flux 0.2, and root
        # 105's profile (104 sign changes, peak 3.0e165) is written; root 106's
        # is refused as beyond the float range, since U in -2|j|N overflows
        # before the large-x envelope scales it
        code, out, err = run_cli(
            capsys, ["wavefunction", "--lambda=2", "--flux", "0.2", "--n", "106",
                     "--points", "8000"])
        assert code == 0, err
        values = np.array([float(line.split(",")[1]) for line in out.strip().split("\n")[1:]])
        assert values.size == 8000 and np.all(np.isfinite(values))
        assert np.count_nonzero(values[:-1] * values[1:] < 0.0) == 105

    @pytest.mark.parametrize(
        "argv",
        [["wavefunction", "--lambda", "1", "--n", "0"],
         ["wavefunction", "--points", "15"],
         ["wavefunction", "--format", "json"]],  # profiles are CSV only
    )
    def test_bad_flags_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2


def random_state_flags(rng):
    """One state's flags: a ladder or an extension, and n, m and flux from
    lists that cross |j| = 1/2, root 171 and the j = 0 limit; mass, eta and
    hbar each 1 or log-uniform over the floats, and eta sometimes 0."""
    kind = rng.choice([["--branch", REGULAR], ["--branch", IRREGULAR],
                       *(["--lambda=" + lam] for lam in ("0", "inf", "-1", "2", "1e-300"))])
    flags = [*kind, f"--n={rng.choice([1, 2, 5, 106, 200, 100000])}",
             f"--m={rng.choice([-1, 0, 1, 150, 300])}",
             f"--flux={rng.choice([0.0, 1e-16, 0.003, 0.2, -0.45, 0.7])!r}"]
    for name in ("mass", "eta", "hbar"):
        scale = 10.0 ** rng.uniform(-307.0, 308.0)
        flags.append(f"--{name}={rng.choice([1.0, scale] + [0.0] * (name == 'eta'))!r}")
    return flags


def test_wavefunction_refuses_as_spectrum_strict(capsys):
    # wavefunction's state is the s = 1 row of `spectrum --strict` with its
    # flags: where that exits 3, wavefunction exits 3 with the same line;
    # where the row is unbound it has no state; where the row is written the
    # profile is too, or refused by the profile's own reasons
    rng = random.Random(34)
    outcomes = set()
    for _ in range(200):
        flags = random_state_flags(rng)
        code, out, err = run_cli(capsys, ["spectrum", *flags, "--strict"])
        wave = run_cli(capsys, ["wavefunction", *flags, "--points", "64"])
        if code == 3:
            assert wave == (3, "", err), flags
            outcomes.add("refused")
            continue
        (row,) = parse_rows(out)
        where = f" (n={row['n']}, m={row['m']}, phi={row['scan_value']})\n"
        if not row["exists"]:
            assert wave == (3, "", f"error: no bound state{where}"), flags
            outcomes.add("unbound")
        elif wave[0] == 0:
            assert wave[1].startswith("r,F\n") and wave[2] == "", flags
            outcomes.add("written")
        else:
            assert wave[:2] == (3, "") and wave[2].endswith(where), flags
            assert "the profile at j = " in wave[2] or "j = 0 limit" in wave[2], flags
            outcomes.add("profile")
    assert outcomes == {"refused", "unbound", "written", "profile"}


SPECTRUM, SCAN = ["spectrum"], ["scan", "--scan", "flux:0:1:3"]
FINITE = ["spectrum", "--lambda", "1", "--flux", "0.3"]
WAVEFUNCTION = ["wavefunction", "--flux", "0.3", "--points", "64"]
# For each option of each subcommand, a pair of argv that differ only in it:
# the command with its common flags, the first's own flags, the second's.
FLAG_PAIRS = [
    *[(command, [], flag) for command in (SPECTRUM, SCAN, FINITE, WAVEFUNCTION)
      for flag in (["--eta", "2"], ["--mass", "2"], ["--hbar", "2"])],
    *[(command, [], flag) for command in (SPECTRUM, SCAN, FINITE)
      for flag in (["--omega", "1"], ["--format", "json"])],
    *[(command + ["--omega", "1"], [], ["--spin", "-1"]) for command in (SPECTRUM, SCAN, FINITE)],
    *[(command, [], flag) for command in (SPECTRUM, SCAN)
      for flag in (["--n", "2"], ["--m", "1"], ["--branch", "both"])],
    *[(command + ["--branch", "irregular", "--m", "1"], [], ["--strict"])
      for command in (SPECTRUM, SCAN)],
    (SPECTRUM, [], ["--flux", "0.3"]),
    (["scan", "--scan", "omega:0:1:3"], [], ["--flux", "0.3"]),
    (["scan"], ["--scan", "flux:0:1:3"], ["--scan", "flux:0:2:3"]),
    # j is m + flux: both move the roots, or the state out of |j| < 1/2
    (["spectrum", "--lambda", "1"], ["--flux", "0.2"], ["--flux", "0.3"]),
    (["spectrum", "--lambda", "1", "--flux", "0.7"], [], ["--m=-1"]),
    (["spectrum", "--flux", "0.3"], ["--lambda", "1"], ["--lambda=-1"]),
    (FINITE, [], ["--n", "2"]),
    (["scan", "--scan", "flux:0.1:0.3:3"], [], ["--lambda=1"]),
    (["wavefunction", "--points", "64"], [], ["--flux", "0.3"]),
    (WAVEFUNCTION, [], ["--m=-1"]),
    (WAVEFUNCTION, [], ["--branch", "irregular"]),
    (WAVEFUNCTION, [], ["--lambda=1"]),
    # --n is the level of a ladder state and of an extension's
    (WAVEFUNCTION, [], ["--n", "3"]),
    (WAVEFUNCTION + ["--lambda=1"], [], ["--n", "3"]),
    (["wavefunction"], [], ["--points", "64"]),
    (["verify", "--only", "model"], [], ["--only", "spectrum"]),
]
UNCHANGED = {
    # where the output goes, not what it is
    "--out", "-h", "--help",
    # not listed: scan's --flux, --omega and --m on a sweep of that same
    # variable, which the sweep overrides; their pairs above sweep another
}


def test_every_flag_has_a_pair():
    # a flag added without a pair fails here, before it can be ignored unseen
    (commands,) = [a.choices for a in cli._build_parser()._actions if isinstance(a.choices, dict)]
    options = {f"{name} {flag}" for name, sub in commands.items()
               for action in sub._actions for flag in action.option_strings}
    paired = {f"{command[0]} {second[0].split('=')[0]}" for command, _, second in FLAG_PAIRS}
    unpaired = {o for o in options - paired if not UNCHANGED & {o, o.split()[1]}}
    assert not unpaired
    assert paired <= options


@pytest.mark.parametrize(
    "command, first, second", FLAG_PAIRS,
    ids=[" ".join(command + first + ["|"] + second) for command, first, second in FLAG_PAIRS],
)
def test_each_flag_changes_the_output(capsys, command, first, second):
    before, after = run_cli(capsys, command + first), run_cli(capsys, command + second)
    assert 2 not in (before[0], after[0]), before[2] + after[2]
    assert before != after


@pytest.mark.parametrize(
    "argv, message",
    [(["wavefunction", "--lambda=1", "--flux", "0.3", "--branch", "irregular"],
      "argument --branch: not allowed with argument --lambda"),
     (["wavefunction", "--branch", "regular", "--lambda", "0"],
      "argument --lambda: not allowed with argument --branch"),
     (["wavefunction", "--branch", "irregular", "--flux", "0.3", "--root", "4"],
      "unrecognized arguments: --root 4"),
     (["wavefunction", "--flux", "0.3", "--root", "4"], "unrecognized arguments: --root 4"),
     (["wavefunction", "--spin", "-1"], "unrecognized arguments: --spin -1"),
     (["wavefunction", "--omega", "1"], "unrecognized arguments: --omega 1"),
     (["spectrum", "--lambda", "1", "--j", "0.2", "--flux", "0.3"],
      "unrecognized arguments: --j 0.2"),
     (["spectrum", "--lambda", "1", "--j", "0.2", "--m", "5"], "unrecognized arguments: --j 0.2"),
     (["spectrum", "--lambda=1", "--flux", "0.3", "--branch", "regular"],
      "argument --branch: not allowed with argument --lambda"),
     (["scan", "--scan", "flux:0:0.4:3", "--branch", "both", "--lambda", "0"],
      "argument --lambda: not allowed with argument --branch")],
    ids=["lambda-then-branch", "branch-then-lambda", "root-with-branch", "root", "wavefunction-spin",
         "wavefunction-omega", "j-with-flux", "j-with-m", "spectrum-lambda-then-branch",
         "scan-branch-then-lambda"],
)
def test_flags_that_would_be_ignored_exit_2(capsys, argv, message):
    # --branch picks a ladder and --lambda an extension, whose --n-th state
    # (whose levels, on spectrum and scan) is written; the other would be
    # ignored without a word, also where its value is the default.  Each input has one spelling: --n is the level of
    # both (no --root), j is m + flux (no --j), and the profile, the same
    # for both spins and every rotation (that of kappa), has no --spin and
    # no --omega
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert message in err


def test_wavefunction_routes_load_no_scipy(tmp_path):
    # both ladders, lambda = 0 and inf, and finite lambda of either sign:
    # the Laguerre recurrence and U's expansion and march, no scipy module
    routes = [
        ["--branch", "regular", "--n", "3", "--flux", "0.3"],
        ["--branch", "irregular", "--n", "3", "--flux", "0.3"],
        ["--lambda", "0", "--n", "2", "--flux", "0.3"],
        ["--lambda", "inf", "--n", "2", "--flux", "0.3"],
        ["--lambda=1", "--n", "3", "--flux", "0.3"],
        ["--lambda=-1", "--n", "3", "--flux", "0.2"],
    ]
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import json, sys\n"
        "from abcoulomb.cli import main\n"
        "codes = [main(['wavefunction', *argv, '--out', sys.argv[1] + f'/{i}.csv'])\n"
        "         for i, argv in enumerate(json.loads(sys.argv[2]))]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), json.dumps(routes)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    codes, scipy_modules = json.loads(proc.stdout)
    assert codes == [0] * len(routes)
    assert scipy_modules == []


@pytest.mark.parametrize(
    "command, many, one",
    [(["wavefunction"], ["--n", "1,3"], ["--n", "3"]),
     (["wavefunction"], ["--n", "1..2"], ["--n", "2"]),
     (["wavefunction"], ["--m=-5,-4"], ["--m=-5"]),
     (["wavefunction", "--lambda=1", "--flux", "0.3"], ["--n", "1,3"], ["--n", "3"]),
     (["wavefunction", "--lambda", "1", "--flux", "0.7"], ["--m=-1,0"], ["--m=-1"]),
     (["wavefunction", "--branch", "irregular", "--flux", "0.3"], ["--n", "2..3"], ["--n", "3"])],
)
def test_one_state_commands_refuse_lists(capsys, command, many, one):
    # one profile or one set of energies: a list once lost all but its
    # first entry without a word; a single entry, in the --m=-5 form too,
    # is read
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*command, *many])
    assert excinfo.value.code == 2
    listed = many[-1].split("=")[-1]
    assert f"invalid single value: {listed!r}" in capsys.readouterr().err
    code, _, err = run_cli(capsys, [*command, *one])
    assert code == 0, err


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--eta", "1e200"],  # eta**2 overflows
     ["scan", "--scan", "flux:0:1:3", "--eta", "1e200"],
     ["spectrum", "--hbar", "1e-200"],  # hbar**2 underflows to 0
     ["spectrum", "--lambda", "1", "--flux", "0.3", "--hbar", "1e-200"],
     ["wavefunction", "--hbar", "1e-200"],
     # q = m_e eta / hbar^2 underflows to 0: a Coulomb problem once solved
     # as a free one, with no rows or exists=false
     ["spectrum", "--lambda", "1", "--flux", "0.3", "--hbar", "1e200"],
     ["scan", "--scan", "flux:0.1:0.3:3", "--lambda", "1", "--mass", "1e-300", "--eta", "1e-300"],
     ["spectrum", "--mass", "1e-300", "--eta", "1e-300"],
     # q is subnormal: kappa with 3 digits, or a traceback
     ["spectrum", "--lambda", "1", "--flux", "0.3", "--eta", "1e-300", "--hbar", "1e10"],
     ["wavefunction", "--eta", "1e-300", "--hbar", "1e10", "--points", "16"]],
)
def test_coulomb_scale_beyond_float_range_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "float range" in err


BEYOND_FLOAT = "1" + "0" * 400


class TestPhysicsFlags:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["spectrum", "--n", "0"], "n entries must be >= 1"),
            (["wavefunction", "--n", "0"], "n entries must be >= 1"),
            (["scan", "--scan", "flux:0:1:3", "--n", "1,0"], "n entries must be >= 1"),
            (["spectrum", "--eta", "-1"], "eta must be nonnegative"),
            (["wavefunction", "--eta", "-1"], "eta must be nonnegative"),
            (["scan", "--scan", "flux:0:1:3", "--eta", "-1"], "eta must be nonnegative"),
            (["spectrum", "--lambda", "1", "--mass", "0"], "m_e must be positive"),
            (["spectrum", "--hbar", "-1"], "hbar must be positive"),
            (["scan", "--scan", "flux:0:1:3", "--omega", "inf"], "omega must be finite"),
            (["spectrum", "--flux", "inf"], "flux must be finite"),
            (["spectrum", "--flux", "nan"], "flux must be finite"),
            (["scan", "--scan", "flux:0:inf:3"], "scan endpoints and their span must be finite"),
            (["scan", "--scan", "m:0:inf:3"], "scan endpoints and their span must be finite"),
            (["scan", "--scan", "flux:-1e308:1e308:3"],
             "scan endpoints and their span must be finite"),
            # integers that no float holds: they once exited 3 blaming the
            # Coulomb scale, or 1 with an OverflowError traceback
            (["spectrum", f"--m={BEYOND_FLOAT}"], "argument --m: entries must lie within"),
            (["spectrum", f"--n={BEYOND_FLOAT}"], "argument --n: entries must lie within"),
            (["scan", "--scan", "flux:0:1:3", f"--m=-{BEYOND_FLOAT}..0"],
             "argument --m: entries must lie within"),
            # secular-m-huge, secular-j-nan and secular-j-inf: the flags of
            # finite-lambda (secular root) rows
            (["spectrum", "--lambda", "1", f"--m={BEYOND_FLOAT}"],
             "argument --m: entries must lie within"),
            (["wavefunction", f"--m={BEYOND_FLOAT}"], "argument --m: entries must lie within"),
            (["wavefunction", f"--n={BEYOND_FLOAT}"], "argument --n: entries must lie within"),
            # j = m + flux nan or inf: once exited 3 as a sector refusal
            (["spectrum", "--lambda", "1", "--flux", "nan"],
             "argument --flux: flux must be finite, got nan"),
            (["spectrum", "--lambda", "1", "--flux", "1e400"],
             "argument --flux: flux must be finite, got inf"),
            (["spectrum", "--m=-50000..50000"],
             "argument --m: '-50000..50000' takes the list beyond 100000 entries"),
            (["scan", "--scan", "flux:0:1:3", "--n", "1..99999,7,8"],
             "argument --n: '8' takes the list beyond 100000 entries"),
            # an entry listed twice, whose rows were once written twice:
            # overlapping ranges, a range's entry listed again, a spin spelled
            # two ways, a sweep whose steps fall below the float spacing, and
            # a --only group, whose checks were once reported twice
            (["spectrum", "--m", "0..5,3"], "argument --m: 3 is listed more than once"),
            (["scan", "--scan", "flux:0:1:3", "--n", "2,1..3"],
             "argument --n: 2 is listed more than once"),
            (["spectrum", "--spin=+1,-1,1"], "argument --spin: 1 is listed more than once"),
            (["scan", "--scan", "m:9007199254740992:9007199254740996:5"],
             "argument --scan: steps below the float spacing repeat 9007199254740992.0"),
            (["verify", "--only", "model", "--only", "model"],
             "argument --only: model is listed more than once"),
        ],
        ids=["spectrum-n", "wavefunction-n", "scan-n", "spectrum-eta", "wavefunction-eta",
             "scan-eta", "mass", "hbar", "omega", "flux-inf", "flux-nan", "scan-inf",
             "m-scan-inf", "scan-span-overflow", "spectrum-m-huge", "spectrum-n-huge",
             "scan-m-huge", "secular-m-huge", "wavefunction-m-huge", "wavefunction-n-huge",
             "secular-j-nan", "secular-j-inf", "spectrum-m-range-too-long", "scan-n-list-too-long",
             "m-overlapping-ranges", "n-in-a-range", "spin-spelled-twice", "m-scan-below-spacing",
             "only-twice"],
    )
    def test_rejected_at_parse_time_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_repeated_entry_writes_nothing(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, err = run_cli(
            capsys, ["scan", "--scan", "flux:0:1:3", "--m", "0..5,3", "--out", str(target)])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "abcoulomb scan: error: argument --m: 3 is listed more than once"
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [(["scan", "--scan", "omega:0:1:100001"], "--scan"),
         (["wavefunction", "--n", "100001"], "--n"),
         (["wavefunction", "--lambda", "1", "--flux", "0.3", "--n", "100001"], "--n"),
         (["wavefunction", "--points", "100001"], "--points"),
         (["scan", "--scan", "flux:0:1:100001"], "--scan")],
    )
    def test_work_sizes_capped_at_parse_time(self, capsys, argv, flag):
        # each sets how much work is done; refused by argparse, so before any
        # work, above the cap on integer lists
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err and "100000, got 100001" in err

    @staticmethod
    def run_within_1gb(argv):
        """``abcoulomb *argv`` in a process limited to 1 GB of address space."""
        resource = pytest.importorskip("resource")  # POSIX only
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys; from abcoulomb.cli import main; sys.exit(main(sys.argv[1:]))"
        return subprocess.run(
            [sys.executable, "-c", code, *argv],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
        )

    def test_oversized_range_refused_before_it_is_expanded(self):
        # a billion entries would take tens of GB; under a 1 GB address-space
        # limit expanding the range fails with MemoryError (exit 1), so the
        # refusal, exit 2, shows the range was never expanded
        proc = self.run_within_1gb(["spectrum", "--m", "0..1000000000"])
        assert proc.returncode == 2, proc.stderr
        assert "argument --m: '0..1000000000' takes the list beyond 100000 entries" in proc.stderr

    @pytest.mark.parametrize(
        "argv, rows",
        [(["spectrum", "--n", "1..20000", "--m", "0..20000"], 400_020_000),  # 2.98 GiB of floats
         (["scan", "--scan", "flux:0:1:100000", "--m", "0..1000"], 100_100_000)],  # 764 MiB
    )
    def test_oversized_grid_refused_before_it_is_built(self, argv, rows):
        # each list is within its cap, their product is not: under a 1 GB
        # address-space limit building the grid fails with numpy's
        # MemoryError (exit 1), so the refusal, exit 2, shows it was never built
        proc = self.run_within_1gb(argv)
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert proc.stderr == f"error: the grid has {rows} rows, more than {cli.MAX_ROWS}\n"


def test_cached_parser_leaks_no_state(capsys):
    # main reuses one parser: defaults and --only's append list must not
    # carry over from one call to the next
    calls = [
        ["scan", "--scan", "flux:0:1:3", "--n", "1,2", "--m=-1..1", "--format", "json"],
        ["spectrum", "--branch", "both", "--spin", "-1"],
        ["verify", "--only", "model", "--only", "specfun"],
        ["scan", "--scan", "omega:0:1:4"],
        ["spectrum"],
        ["verify", "--only", "spectrum"],
    ]

    def untimed(argv):
        # verify's group wall times differ from run to run; all else must not
        code, out, err = run_cli(capsys, argv)
        if argv[0] == "verify":
            report = json.loads(out)
            for check in report["checks"]:
                assert check.pop("seconds") >= 0.0
            out = report
        return code, out, err

    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(untimed(argv))
    cli._build_parser.cache_clear()
    for _ in range(2):
        for argv, expected in zip(calls, fresh):
            assert untimed(argv) == expected
    assert cli._build_parser.cache_info().misses == 1


class TestVerifyCommand:
    def test_default_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify"])
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert {"name", "pass", "residual", "tolerance"} <= set(report["checks"][0])

    def test_group_wall_time_reported(self, capsys):
        # every check carries the wall time of its group's run, the same for
        # all checks of a group
        code, out, _ = run_cli(capsys, ["verify", "--only", "model", "--only", "spectrum"])
        assert code == 0
        seconds = {}
        for check in json.loads(out)["checks"]:
            assert check["seconds"] >= 0.0
            seconds.setdefault(check["name"].split(".")[0], set()).add(check["seconds"])
        assert set(seconds) == {"model", "spectrum"}
        assert all(len(times) == 1 for times in seconds.values())

    def test_only_filter(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--only", "secular"])
        assert code == 0
        report = json.loads(out)
        assert all(c["name"].startswith("secular.") for c in report["checks"])

    def test_uniform_scale_fault_detected(self, capsys, monkeypatch):
        original = specfun.gamma
        monkeypatch.setattr(specfun, "gamma", lambda z: original(z) * 1.001)
        code, out, err = run_cli(capsys, ["verify", "--only", "specfun"])
        assert code == 1
        report = json.loads(out)
        assert not report["pass"]
        assert "FAIL" in err

    def test_energy_assembly_fault_detected(self, capsys, monkeypatch):
        original = spectrum.closed_form_energy

        def scaled_rotation(*args):
            res = original(*args)
            return dataclasses.replace(
                res, energy=res.coulomb_energy + 1.01 * res.rotation_energy
            )

        monkeypatch.setattr(spectrum, "closed_form_energy", scaled_rotation)
        code, out, _ = run_cli(capsys, ["verify", "--only", "spectrum"])
        assert code == 1
        failing = {c["name"] for c in json.loads(out)["checks"] if not c["pass"]}
        assert "spectrum.energy_parts" in failing

    def test_dropped_oracle_level_detected(self, capsys, monkeypatch):
        original = oracle.oracle_regular_spectrum
        monkeypatch.setattr(
            oracle, "oracle_regular_spectrum", lambda *args: original(*args)[:-1]
        )
        code, out, _ = run_cli(capsys, ["verify", "--only", "oracle"])
        assert code == 1
        assert not json.loads(out)["pass"]

    def test_crashing_group_fails_and_the_others_run(self, capsys, monkeypatch):
        def refuse(*args):
            raise oracle.GridConvergenceError("level 3 not resolved")

        monkeypatch.setattr(oracle, "oracle_regular_spectrum", refuse)
        code, out, err = run_cli(capsys, ["verify", "--only", "oracle", "--only", "model"])
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["oracle.error"]["pass"] is False
        assert checks["oracle.error"]["residual"] == math.inf
        assert checks["oracle.error"]["error"] == "GridConvergenceError: level 3 not resolved"
        model = [c for name, c in checks.items() if name.startswith("model.")]
        assert model and all(c["pass"] for c in model)
        assert "FAIL oracle.error: GridConvergenceError: level 3 not resolved" in err

    @pytest.mark.parametrize(
        "kernel, check",
        [("kummer_1f1", "specfun.kummer_1f1_laguerre"), ("tricomi_u", "specfun.tricomi_u_wronskian")],
    )
    def test_nan_residual_fails_its_check(self, capsys, monkeypatch, kernel, check):
        # a kernel that returns nan at one point: the check's residual is nan,
        # not the largest of the others
        original = getattr(specfun, kernel)

        def nan_near_25(a, b, x):
            values = np.array(original(a, b, x), dtype=float)
            values[np.abs(np.asarray(x) - 25.0) < 0.5] = math.nan
            return values if values.ndim else float(values)

        monkeypatch.setattr(specfun, kernel, nan_near_25)
        code, out, err = run_cli(capsys, ["verify", "--only", "specfun"])
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks[check]["pass"] is False and math.isnan(checks[check]["residual"])
        assert f"FAIL {check}" in err

    def test_argument_dependent_fault_fails_recurrence(self, capsys, monkeypatch):
        original = specfun.gamma
        monkeypatch.setattr(
            specfun, "gamma", lambda z: original(z) * (1.0 + 1e-3 * math.sin(z))
        )
        code, out, _ = run_cli(capsys, ["verify", "--only", "specfun"])
        assert code == 1
        report = json.loads(out)
        failing = {c["name"] for c in report["checks"] if not c["pass"]}
        assert "specfun.gamma_recurrence" in failing
