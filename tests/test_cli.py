import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

import abcoulomb.specfun as specfun
from abcoulomb import cli, oracle, spectrum
from abcoulomb.model import IRREGULAR, PhysicalParams, QuantumState, decompose_flux
from abcoulomb.spectrum import closed_form_energy


def run_cli(capsys, argv):
    code = cli.main(argv)
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


class TestSecularCommand:
    def test_regular_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, ["secular", "--lambda", "0", "--j", "0.2", "--count", "3"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "index,kappa,energy,residual"
        kappas = [float(line.split(",")[1]) for line in lines[1:]]
        assert kappas == pytest.approx([1 / 0.7, 1 / 1.7, 1 / 2.7], rel=1e-10)

    def test_infinity_parsing(self, capsys):
        code, out, _ = run_cli(
            capsys, ["secular", "--lambda", "inf", "--j", "0.2", "--count", "1"]
        )
        assert code == 0
        kappa = float(out.strip().split("\n")[1].split(",")[1])
        assert kappa == pytest.approx(1 / 0.3, rel=1e-10)

    def test_energy_column(self, capsys):
        _, out, _ = run_cli(
            capsys, ["secular", "--lambda", "0", "--j", "0.2", "--count", "1"]
        )
        _, kappa, energy, _ = out.strip().split("\n")[1].split(",")
        assert float(energy) == pytest.approx(-0.5 * float(kappa) ** 2, rel=1e-12)

    def test_sector_violation_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, ["secular", "--lambda", "1", "--j", "0.7", "--count", "1"]
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
            capsys, ["secular", f"--lambda={lam}", "--j", j, "--count", "1"]
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "float range" in err

    def test_count_below_one_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["secular", "--lambda", "0", "--count", "0"])
        assert excinfo.value.code == 2

    def test_j_zero_finite_lambda_exits_3(self, capsys):
        for lam in ("-1", "2"):
            code, out, err = run_cli(
                capsys, ["secular", f"--lambda={lam}", "--j", "0", "--count", "3"]
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
             "--root", "1", "--points", "64"],
        )
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
        assert all(math.isfinite(v) for v in values)

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

    @pytest.mark.parametrize(
        "argv",
        [["wavefunction", "--lambda", "1", "--root", "0"],
         ["wavefunction", "--points", "15"],
         ["wavefunction", "--format", "json"]],  # profiles are CSV only
    )
    def test_bad_flags_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2


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
        ],
        ids=["spectrum-n", "wavefunction-n", "scan-n", "spectrum-eta", "wavefunction-eta",
             "scan-eta", "mass", "hbar", "omega"],
    )
    def test_rejected_at_parse_time_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err


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
        original = spectrum._assemble

        def scaled_rotation(*args):
            res = original(*args)
            return dataclasses.replace(
                res, energy=res.coulomb_energy + 1.01 * res.rotation_energy
            )

        monkeypatch.setattr(spectrum, "_assemble", scaled_rotation)
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
