"""Acceptance gate: the release criteria are the checks of
``abcoulomb.verify.GROUPS``, the registry behind ``abcoulomb verify``.
Each group prints one PASS/FAIL line per check with its residual,
tolerance and the group's wall time. The ``test_criterion_*`` tests name
the checks that carry each of the paper's criteria, so a criterion fails
when one of its checks fails or is no longer in the registry. Criterion 8
(the CLI scan shapes) is covered by tests/test_cli.py::TestScanCommand,
because verify cannot import ``cli``."""

import functools

import pytest

from abcoulomb.verify import GROUPS, run_checks


@functools.lru_cache(maxsize=None)
def _run_group(group):
    return run_checks([group])


def _assert_checks_pass(group, names):
    results = {r.name: r for r in _run_group(group)}
    missing = [name for name in names if name not in results]
    assert not missing, f"checks not in verify.GROUPS[{group!r}]: {missing}"
    failing = [name for name in names if not results[name].passed]
    assert not failing, f"failing checks: {failing}"


@pytest.mark.parametrize("group", list(GROUPS))
def test_release_criteria(group):
    results = _run_group(group)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"ACCEPTANCE {r.name} {status} {r.residual:.2e}/{r.tolerance:.2e} ({r.seconds:.2f} s)")
    failing = [r.name for r in results if not r.passed]
    assert not failing, f"failing checks: {failing}"


def test_criterion_1_ground_state_anchor():
    _assert_checks_pass("spectrum", ["spectrum.ground_state_anchor"])


def test_criterion_2_irregular_blowup_anchor():
    _assert_checks_pass("spectrum", ["spectrum.irregular_anchor"])


def test_criterion_3_secular_limit_consistency():
    _assert_checks_pass("secular", ["secular.limit_regular", "secular.limit_irregular"])


def test_criterion_4_oracle_equivalence():
    _assert_checks_pass("oracle", ["oracle.closed_form_agreement"])


def test_criterion_5_rotation_affinity():
    _assert_checks_pass(
        "spectrum",
        ["spectrum.energy_parts", "spectrum.rotation_affinity", "spectrum.spin_splitting"],
    )


def test_criterion_6_integer_flux_degeneracy():
    _assert_checks_pass("spectrum", ["spectrum.integer_flux_degeneracy"])


def test_criterion_7_boundary_closure():
    _assert_checks_pass(
        "wavefunction", ["wavefunction.boundary_closure", "wavefunction.node_counts"]
    )


def test_criterion_9_special_function_suite():
    _assert_checks_pass(
        "specfun",
        [
            "specfun.gamma_recurrence",
            "specfun.reciprocal_gamma_product",
            "specfun.kummer_1f1_laguerre",
            "specfun.tricomi_u_wronskian",
        ],
    )
