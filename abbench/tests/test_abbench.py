"""Self-tests of the benchmark: seeded inputs repeat, every output check
accepts the package's real output and rejects a perturbed one, and the
tracer's counts repeat and leave the package as it found it."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from abcoulomb import cli, model, oracle, secular, specfun, spectrum, wavefunction  # noqa: E402

from abbench import checks, run, tracing  # noqa: E402
from abbench.workloads import (  # noqa: E402
    ATOMIC,
    WORKLOADS,
    ProfileCase,
    RootCase,
    scan_recipes,
)

MODULES = {"cli": cli, "model": model, "spectrum": spectrum, "secular": secular,
           "specfun": specfun, "wavefunction": wavefunction, "oracle": oracle}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    generate = WORKLOADS[name].generate
    assert repr(generate(7)) == repr(generate(7))
    assert repr(generate(7)) != repr(generate(8))


def _scan_output(recipe, tmp_path):
    workload = WORKLOADS["closed_form_scans"]
    (item,) = workload.prepare([recipe], tmp_path)
    code = workload.run(item)
    return code, item.out.read_text(encoding="utf-8")


def _shift_energy(text: str, fmt: str, row: int) -> str:
    if fmt == "json":
        rows = json.loads(text)
        rows[row]["energy"] *= 1.0 + 1e-9
        return json.dumps(rows)
    lines = text.split("\n")
    fields = lines[row + 1].split(",")
    fields[6] = repr(float(fields[6]) * (1.0 + 1e-9))
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_check_rejects_shifted_energy(tmp_path, fmt):
    # the m sweep in a rotating frame, and the sweep over both branches
    for template in (scan_recipes(3)[20], scan_recipes(3)[30]):
        recipe = replace(template, fmt=fmt)
        code, text = _scan_output(recipe, tmp_path)
        assert checks.check_scan_output(recipe, code, text) is None
        row = next(i for i, ref in enumerate(checks.expected_scan_rows(recipe)) if ref[8] and i >= 5)
        shifted = _shift_energy(text, fmt, row)
        assert checks.check_scan_output(recipe, code, shifted).startswith("scan_energy")
        assert checks.check_scan_output(recipe, 3, text).startswith("scan_exit")


def test_roots_check_rejects_dropped_and_relabelled_roots():
    case = RootCase(lam=-1.0, j=0.3, count=3)
    kappas = [r.kappa for r in WORKLOADS["extension_roots"].run(case)]
    check = checks.check_secular_roots
    assert check(case.lam, case.j, 3, kappas) is None
    assert check(case.lam, case.j, 3, kappas[1:]).startswith("roots_missing")
    # the ground state dropped and the rest relabelled one level down
    assert check(case.lam, case.j, 2, kappas[1:]).startswith("roots_bracket")
    swapped = [kappas[1], kappas[0], kappas[2]]
    assert check(case.lam, case.j, 3, swapped).startswith("roots_bracket")
    # inside the right bracket but not on a root
    nudged = [kappas[0] * (1.0 + 1e-6)] + kappas[1:]
    assert check(case.lam, case.j, 3, nudged).startswith("roots_sign")


@pytest.mark.parametrize("lam", [0.0, float("inf"), 5.0])
def test_roots_check_accepts_ladders_and_positive_lambda(lam):
    kappas = [r.kappa for r in WORKLOADS["extension_roots"].run(RootCase(lam, 0.2, 3))]
    assert checks.check_secular_roots(lam, 0.2, 3, kappas) is None


def test_profile_check_rejects_an_extra_node(tmp_path):
    workload = WORKLOADS["extension_profiles"]
    cases = [ProfileCase("regular", 2, 0.25, 2000), ProfileCase("finite", 2, 0.2, 4000, lam=-1.0)]
    for item in workload.prepare(cases, tmp_path):
        profile, norm, nodes = workload.run(item)
        assert workload.check(item, (profile, norm, nodes)) is None
        assert workload.check(item, (profile, norm, nodes + 1)).startswith("profile_nodes")
        values = profile.values.copy()
        outer = profile.r > np.median(profile.r)
        values[outer] *= -1.0
        reason = checks.check_profile(item.case.kind, item.case.index, abs(item.case.j),
                                      item.kappa, profile.r, values, norm, nodes)
        assert reason.startswith("profile_shape")


def test_oracle_check_rejects_perturbed_kappa():
    j, n_max = 0.05, 2
    levels = [(ev.index, ev.kappa) for ev in oracle.oracle_regular_spectrum(j, ATOMIC, n_max)]
    assert checks.check_oracle_levels(j, n_max, levels) is None
    perturbed = [(i, kappa * (1.0 + 1e-6)) for i, kappa in levels]
    assert checks.check_oracle_levels(j, n_max, perturbed).startswith("oracle_kappa")
    relabelled = [(2, levels[0][1]), (1, levels[1][1])]
    assert checks.check_oracle_levels(j, n_max, relabelled).startswith("oracle_index")
    assert checks.check_oracle_levels(j, n_max, levels[:1]).startswith("oracle_count")


def test_tracer_counts_repeat_and_originals_return():
    workload = WORKLOADS["extension_roots"]
    items = [RootCase(-1.0, 0.3, 2), RootCase(0.5, 0.1, 1), RootCase(float("inf"), 0.4, 1)]
    originals = {name: getattr(secular, name) for name in ("solve_secular", "reciprocal_gamma")}
    tracer = tracing.Tracer()
    runs = []
    for _ in range(2):
        tracer.install(MODULES)
        try:
            for index, item in enumerate(items):
                tracer.run_op(index, workload.run, item)
        finally:
            tracer.uninstall()
        runs.append(tracer.collect()[0])
    assert runs[0].calls == runs[1].calls
    assert runs[0].counters == runs[1].counters
    assert runs[0].calls["secular.solve_secular"] == 3
    assert runs[0].calls["specfun.reciprocal_gamma"] > 0  # reached through secular's namespace
    assert runs[0].counters["secular.roots_returned"] == 4
    assert all(getattr(secular, name) is fn for name, fn in originals.items())


def test_failures_count_distinct_inputs_whatever_the_run_length():
    workload = replace(
        WORKLOADS["extension_roots"], name="fake", run=lambda case: case.count,
        check=lambda case, output: "fake: two" if output == 2 else None,
    )
    items = [RootCase(0.0, 0.1, count) for count in (1, 2, 3)]
    log = run.FailureLog(workload)
    clock = run.ReferenceClock(workload.reference)
    wall, scaled = run.timed_loop(workload, items, 0.0, log, clock)
    assert [len(x) for x in wall] == [len(x) for x in scaled] == [run.MIN_REPEATS] * 3
    assert (log.attempted, log.failed, log.executions) == (3, 1, 3 * run.MIN_REPEATS)
    assert log.by_reason() == {"fake": 1}
    assert len(clock.slowness) == log.executions
    assert all(s > 0 for s in clock.slowness)


def test_run_refuses_without_package_sources(tmp_path):
    shutil.copytree(ROOT / "abbench", tmp_path / "abbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "abbench/run.py", "--workload", "extension_roots",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
