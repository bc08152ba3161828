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

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

import abcoulomb.specfun as specfun
from abcoulomb import cli, oracle, spectrum
from abcoulomb.model import (
    IRREGULAR,
    REGULAR,
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
            "note: irregular rows with |m + phi| >= 1/2 marked exists=false "
            "(first at m=1, phi=0.0)"
        ]


def reference_output(argv):
    """Output of ``spectrum``/``scan`` from the row-by-row evaluator: one
    QuantumState and closed_form_energy per row, a stable sort of the rows,
    and json.dumps for JSON.  Returns the text written, or the error line
    under --strict."""
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
        for n, m, s, branch in itertools.product(args.n, ms, args.spin, branches):
            if branch == IRREGULAR and not is_singular_sector(m + flux.phi):
                if args.strict:
                    return (
                        f"error: irregular state needs |j| < 1/2 but m + phi = "
                        f"{m + flux.phi} (m={m}, phi={flux.phi})\n"
                    )
                rows.append((var, value, n, m, s, branch, math.nan, math.nan, False))
                continue
            res = closed_form_energy(QuantumState(n, m, s, branch), point_params, flux)
            rows.append((var, value, n, m, s, branch, res.energy, res.kappa, res.exists))
    rows.sort(key=lambda row: row[1:6])
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
    negative flux, unsorted lists with repeats, spins of both signs, every
    branch choice, and random physics flags."""
    rng = random.Random(seed)

    def int_list(lo, hi):
        return ",".join(str(rng.randint(lo, hi)) for _ in range(rng.randint(1, 4)))

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
        "--spin=" + ",".join(rng.choice(["+1", "-1"]) for _ in range(rng.randint(1, 3))),
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
    # rotation beyond the float range: inf and nan energies
    ["spectrum", "--omega", "1e308", "--hbar", "10", "--m=-1..1", "--spin=+1,-1",
     "--branch", "both"],
    ["scan", "--scan", "omega:1e307:1e308:4", "--hbar", "10", "--m=-1,1,0", "--spin=-1,+1",
     "--branch", "both", "--flux", "0.2"],
    ["scan", "--scan", "flux:0:10:401", "--omega", "1", "--n", "2,3", "--m", "0..5",
     "--branch", "both"],
    ["scan", "--scan", "flux:-0.49:0.49:197", "--branch", "irregular", "--n", "1..4",
     "--m", "0", "--spin", "+1,-1", "--omega", "1"],
    ["scan", "--scan", "m:-10:10:21", "--flux", "0.6", "--omega", "1", "--spin", "+1,-1",
     "--branch", "both"],
    ["spectrum", "--branch", "irregular", "--m", "1", "--flux", "0", "--strict"],
    # repeated and unsorted entries on every key axis: a repeated key's rows
    # are adjacent across every m, s and branch
    ["scan", "--scan", "flux:-0.4:0.4:5", "--n", "3,1,3", "--m=2,-1,2", "--spin=+1,-1,+1",
     "--branch", "both"],
    # and on the value axis too: the linspace steps underflow to repeated values
    ["scan", "--scan", "flux:0:2e-323:9", "--n", "3,1,3", "--m=2,-1,2", "--spin=+1,-1,+1",
     "--branch", "both"],
    # JSON writes -Infinity and NaN energies, Infinity and NaN kappas
    ["scan", "--scan", "omega:1e307:1e308:3", "--hbar", "10", "--mass", "1e300", "--eta", "1e10",
     "--m=0,-1", "--spin=+1,-1", "--branch", "both"],
    # the error names m=3, the first offending row in the given order, not m=-2
    ["scan", "--scan", "flux:0:0.4:3", "--m=3,-2,1", "--branch", "irregular", "--strict"],
]


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
        "argv", [random_argv(seed) for seed in range(48)] + FIXED_ARGV,
        ids=[f"seed{seed}" for seed in range(48)] + [f"fixed{i}" for i in range(len(FIXED_ARGV))],
    )
    def test_matches_row_by_row_reference(self, capsys, argv, fmt):
        argv = argv + ["--format", fmt]
        expected = reference_output(argv)
        code, out, err = run_cli(capsys, argv)
        if expected.startswith("error:"):
            assert (code, err) == (3, expected)
            assert_same_text(out, "")
        else:
            assert code == 0
            assert_same_text(out, expected)

    def test_fixed_cases_write_every_json_spelling_of_a_nonfinite_float(self, capsys):
        spellings = set()
        for argv in FIXED_ARGV[:2] + FIXED_ARGV[8:9]:
            code, out, _ = run_cli(capsys, argv + ["--format", "json"])
            assert code == 0
            rows = json.loads(out)
            spellings |= {(key, repr(row[key])) for row in rows for key in ("energy", "kappa")
                          if not math.isfinite(row[key])}
        assert spellings >= {("energy", "inf"), ("energy", "-inf"), ("energy", "nan"),
                             ("kappa", "inf"), ("kappa", "nan")}

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
    def test_regular_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, ["secular", "--lambda", "0", "--flux", "0.2", "--count", "3"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "index,kappa,energy,residual"
        kappas = [float(line.split(",")[1]) for line in lines[1:]]
        assert kappas == pytest.approx([1 / 0.7, 1 / 1.7, 1 / 2.7], rel=1e-10)

    def test_infinity_parsing(self, capsys):
        code, out, _ = run_cli(
            capsys, ["secular", "--lambda", "inf", "--flux", "0.2", "--count", "1"]
        )
        assert code == 0
        kappa = float(out.strip().split("\n")[1].split(",")[1])
        assert kappa == pytest.approx(1 / 0.3, rel=1e-10)

    @pytest.mark.parametrize("text", ["+inf", "Infinity", " +inf"])
    def test_infinity_spellings_give_the_irregular_ladder(self, capsys, text):
        code, out, _ = run_cli(
            capsys, ["secular", f"--lambda={text}", "--flux", "0.2", "--count", "3"]
        )
        assert code == 0
        kappas = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
        assert kappas == [1.0 / (n - 0.5 - 0.2) for n in (1, 2, 3)]

    @pytest.mark.parametrize("flag", [["--lambda", "nan"], ["--lambda=-inf"]])
    def test_lambda_outside_its_range_exits_2(self, capsys, flag):
        # lambda lies in (-inf, +inf]: refused at parse time, before any solve
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["secular", *flag, "--flux", "0.2"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --lambda: invalid" in captured.err

    def test_energy_column(self, capsys):
        _, out, _ = run_cli(
            capsys, ["secular", "--lambda", "0", "--flux", "0.2", "--count", "1"]
        )
        _, kappa, energy, _ = out.strip().split("\n")[1].split(",")
        assert float(energy) == pytest.approx(-0.5 * float(kappa) ** 2, rel=1e-12)

    def test_sector_violation_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, ["secular", "--lambda", "1", "--flux", "0.7", "--count", "1"]
        )
        assert code == 3
        assert "1/2" in err

    @pytest.mark.parametrize(
        "lam, j",
        [("-0.1", "0.003"),  # kappa ~ 5e166 is a float, kappa^2 is not
         ("-0.06", "0.0018")],  # kappa ~ 1e339
    )
    def test_beyond_float_range_exits_3(self, capsys, lam, j):
        code, out, err = run_cli(
            capsys, ["secular", f"--lambda={lam}", "--flux", j, "--count", "1"]
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "float range" in err

    @pytest.mark.parametrize("lam, sign", [("0", 1.0), ("inf", -1.0)])
    def test_ladder_past_root_171(self, capsys, lam, sign):
        # 1/Gamma(a) overflows for a < -171; every ladder root is still a
        # float, with its one term evaluated at the exact a or a' = 1 - n
        code, out, err = run_cli(
            capsys, ["secular", "--lambda", lam, "--flux", "0.3", "--count", "300"]
        )
        assert code == 0, err
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [int(row[0]) for row in rows] == list(range(1, 301))
        kappas = [float(row[1]) for row in rows]
        exact = [1.0 / (n - 0.5 + sign * 0.3) for n in range(1, 301)]
        assert kappas == pytest.approx(exact, rel=1e-13)
        assert all(float(row[3]) == 0.0 for row in rows)

    def test_count_below_one_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["secular", "--lambda", "0", "--count", "0"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("j", ["0.5", "1", "0.7"])
    def test_infinite_lambda_outside_sector_exits_3(self, capsys, j):
        # the irregular ladder needs |j| < 1/2, as `spectrum --branch irregular`
        code, out, err = run_cli(capsys, ["secular", "--lambda", "inf", "--flux", j])
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "1/2" in err

    def test_j_zero_finite_lambda_exits_3(self, capsys):
        for lam in ("-1", "2"):
            code, out, err = run_cli(
                capsys, ["secular", f"--lambda={lam}", "--flux", "0", "--count", "3"]
            )
            assert code == 3
            assert out == ""
            assert "log r" in err


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


SPECTRUM, SCAN = ["spectrum"], ["scan", "--scan", "flux:0:1:3"]
SECULAR = ["secular", "--lambda", "1", "--flux", "0.3"]
WAVEFUNCTION = ["wavefunction", "--flux", "0.3", "--points", "64"]
# For each option of each subcommand, a pair of argv that differ only in it:
# the command with its common flags, the first's own flags, the second's.
FLAG_PAIRS = [
    *[(command, [], flag) for command in (SPECTRUM, SCAN, SECULAR, WAVEFUNCTION)
      for flag in (["--eta", "2"], ["--mass", "2"], ["--hbar", "2"])],
    *[(command, [], flag) for command in (SPECTRUM, SCAN, SECULAR)
      for flag in (["--omega", "1"], ["--format", "json"])],
    *[(command + ["--omega", "1"], [], ["--spin", "-1"]) for command in (SPECTRUM, SCAN, SECULAR)],
    *[(command, [], flag) for command in (SPECTRUM, SCAN)
      for flag in (["--n", "2"], ["--m", "1"], ["--branch", "both"])],
    *[(command + ["--branch", "irregular", "--m", "1"], [], ["--strict"])
      for command in (SPECTRUM, SCAN)],
    (SPECTRUM, [], ["--flux", "0.3"]),
    (["scan", "--scan", "omega:0:1:3"], [], ["--flux", "0.3"]),
    (["scan"], ["--scan", "flux:0:1:3"], ["--scan", "flux:0:2:3"]),
    # j is m + flux: both move the roots, or the state out of |j| < 1/2
    (["secular", "--lambda", "1"], ["--flux", "0.2"], ["--flux", "0.3"]),
    (["secular", "--lambda", "1", "--flux", "0.7"], [], ["--m=-1"]),
    (["secular", "--flux", "0.3"], ["--lambda", "1"], ["--lambda=-1"]),
    (SECULAR, [], ["--count", "1"]),
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
    # the profile is that of kappa, which Omega does not change; --omega
    # is one of the physics flags every command shares
    "wavefunction --omega",
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
     (["secular", "--lambda", "1", "--j", "0.2", "--flux", "0.3"],
      "unrecognized arguments: --j 0.2"),
     (["secular", "--lambda", "1", "--j", "0.2", "--m", "5"], "unrecognized arguments: --j 0.2")],
    ids=["lambda-then-branch", "branch-then-lambda", "root-with-branch", "root", "wavefunction-spin",
         "j-with-flux", "j-with-m"],
)
def test_flags_that_would_be_ignored_exit_2(capsys, argv, message):
    # --branch picks a ladder and --lambda an extension, whose --n-th state
    # is written; the other would be ignored without a word, also where its
    # value is the default.  Each input has one spelling: --n is the level of
    # both (no --root), j is m + flux (no --j), and the profile, the same
    # for both spins, has no --spin
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
     (["secular", "--lambda", "1", "--flux", "0.7"], ["--m=-1,0"], ["--m=-1"]),
     (["secular", "--lambda", "1", "--flux", "0.3"], ["--spin", "1,-1"], ["--spin", "-1"])],
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
     ["secular", "--lambda", "1", "--flux", "0.3", "--hbar", "1e-200"],
     ["wavefunction", "--hbar", "1e-200"]],
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
            (["secular", "--lambda", "1", "--mass", "0"], "m_e must be positive"),
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
            (["secular", "--lambda", "1", f"--m={BEYOND_FLOAT}"],
             "argument --m: entries must lie within"),
            (["wavefunction", f"--m={BEYOND_FLOAT}"], "argument --m: entries must lie within"),
            (["wavefunction", f"--n={BEYOND_FLOAT}"], "argument --n: entries must lie within"),
            # j = m + flux nan or inf: once exited 3 as a sector refusal
            (["secular", "--lambda", "1", "--flux", "nan"],
             "argument --flux: flux must be finite, got nan"),
            (["secular", "--lambda", "1", "--flux", "1e400"],
             "argument --flux: flux must be finite, got inf"),
            (["spectrum", "--m=-50000..50000"],
             "argument --m: '-50000..50000' takes the list beyond 100000 entries"),
            (["scan", "--scan", "flux:0:1:3", "--n", "1..99999,7,8"],
             "argument --n: '8' takes the list beyond 100000 entries"),
        ],
        ids=["spectrum-n", "wavefunction-n", "scan-n", "spectrum-eta", "wavefunction-eta",
             "scan-eta", "mass", "hbar", "omega", "flux-inf", "flux-nan", "scan-inf",
             "m-scan-inf", "scan-span-overflow", "spectrum-m-huge", "spectrum-n-huge",
             "scan-m-huge", "secular-m-huge", "wavefunction-m-huge", "wavefunction-n-huge",
             "secular-j-nan", "secular-j-inf", "spectrum-m-range-too-long", "scan-n-list-too-long"],
    )
    def test_rejected_at_parse_time_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [(["secular", "--lambda", "0", "--flux", "0.3", "--count", "100001"], "--count"),
         (["wavefunction", "--n", "100001"], "--n"),
         (["wavefunction", "--lambda", "1", "--flux", "0.3", "--n", "100001"], "--n"),
         (["wavefunction", "--points", "100001"], "--points"),
         (["scan", "--scan", "flux:0:1:100001"], "--scan")],
    )
    def test_work_sizes_capped_at_parse_time(self, capsys, argv, flag):
        # each sets how much work is done (secular --count 200000 took 0.8 s
        # and 107 MB); refused by argparse, so before any work, above the
        # cap on integer lists
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
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(capsys, argv))
    cli._build_parser.cache_clear()
    for _ in range(2):
        for argv, expected in zip(calls, fresh):
            assert run_cli(capsys, argv) == expected
    assert cli._build_parser.cache_info().misses == 1


class TestVerifyCommand:
    def test_default_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify"])
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert {"name", "pass", "residual", "tolerance"} <= set(report["checks"][0])

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
