"""The four workloads: seeded input generation, set-up, one operation, and
its output check.

Each workload drives one layer of abcoulomb through its public functions.
Inputs are drawn per seed from fixed strata (recipe templates, lambda
bands, j bins, level indices), so every seed has the same mix of costs and
only the values inside each stratum move.  Operations call the package
through module attributes at call time, so the traced run's wrappers see
them.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Callable

from abcoulomb import cli, oracle, secular, spectrum, wavefunction
from abcoulomb.model import PhysicalParams, QuantumState, decompose_flux

from . import checks

__all__ = ["Workload", "WORKLOADS", "ScanRecipe", "RootCase", "ProfileCase", "OracleCase"]

ATOMIC = PhysicalParams()

# log10 ranges of |lambda| for finite extension parameters.
LAMBDA_DECADES = ((-3.0, -1.0), (-1.0, 1.0), (1.0, 3.0))
# Operations run untimed in each set-up, so first-call costs stay out of
# the timed loop.  They are the first inputs of WARMUP_SEED whatever the
# run's seed, so the set-up time does not depend on which inputs a seed
# happens to put first.
WARMUP_OPS = 2
WARMUP_SEED = 0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _stratified(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k draws over (lo, hi), one in each of k equal sub-intervals, shuffled,
    so that every seed covers the range evenly."""
    width = (hi - lo) / k
    draws = [lo + width * (i + rng.random()) for i in range(k)]
    rng.shuffle(draws)
    return draws


def _lambda_strata(rng: random.Random) -> list[float]:
    """0, inf, and one log-uniform |lambda| per decade band and sign."""
    finite = [
        sign * 10.0 ** rng.uniform(lo, hi) for sign in (1.0, -1.0) for lo, hi in LAMBDA_DECADES
    ]
    return [0.0, math.inf] + finite


# ------------------------------------------------------ closed_form_scans


@dataclass(frozen=True)
class ScanRecipe:
    """One ``abcoulomb scan`` invocation."""

    var: str
    start: float
    stop: float
    steps: int
    ns: tuple[int, ...]
    ms: tuple[int, ...]
    spins: tuple[int, ...]
    branch: str
    flux: float = 0.0
    omega: float = 0.0
    fmt: str = "csv"

    def argv(self, out: str) -> list[str]:
        return [
            "scan", "--scan", f"{self.var}:{self.start!r}:{self.stop!r}:{self.steps}",
            "--n", ",".join(map(str, self.ns)),
            "--m=" + ",".join(map(str, self.ms)),
            "--spin", ",".join(f"{s:+d}" for s in self.spins),
            "--branch", self.branch,
            f"--flux={self.flux!r}", f"--omega={self.omega!r}",
            "--format", self.fmt, "--out", out,
        ]


# One copy of the sweep set per factor, with the step counts scaled by it
# (within STEP_JITTER), so the costs of the operations spread out instead of
# bunching per sweep while the cost of the whole set barely moves per seed.
STEP_SCALES = (0.55, 0.75, 0.95, 1.15)
STEP_JITTER = 0.03


def scan_recipes(seed: int) -> list[ScanRecipe]:
    """A jittered copy of the sweep set per step scale; each in CSV and JSON."""
    rng = _rng("closed_form_scans", seed)
    return [replace(t, fmt=fmt)
            for scale in STEP_SCALES
            for t in _scan_templates(rng, scale - STEP_JITTER, scale + STEP_JITTER)
            for fmt in ("csv", "json")]


def _scan_templates(rng: random.Random, scale_lo: float, scale_hi: float) -> list[ScanRecipe]:
    """The sweeps of ``scripts/run_scans.py`` with jittered ranges, flux and
    omega and step counts scaled by factors in (scale_lo, scale_hi), plus
    one sweep over both branches."""

    def steps(base: int) -> int:
        return round(base * rng.uniform(scale_lo, scale_hi))

    def u(lo: float, hi: float) -> float:
        return round(rng.uniform(lo, hi), 4)

    nonneg, neg, sym = tuple(range(0, 6)), tuple(range(-5, 0)), tuple(range(-5, 6))
    both_spins, low, high = (1, -1), (1, 2, 3, 4), (5, 6, 7, 8)
    window = u(0.40, 0.49)
    return [
        ScanRecipe("flux", 0.0, u(8, 10), steps(401), (1,), nonneg, (1,), "regular"),
        ScanRecipe("flux", 0.0, u(8, 10), steps(401), (2,), nonneg, (1,), "regular"),
        ScanRecipe("flux", 0.0, u(8, 10), steps(401), (1,), neg, (1,), "regular"),
        ScanRecipe("flux", 0.0, u(8, 10), steps(401), (2,), neg, (1,), "regular"),
        ScanRecipe("flux", 0.0, window, steps(197), low, (0,), (1,), "irregular"),
        ScanRecipe("flux", 0.0, window, steps(197), high, (0,), (1,), "irregular"),
        ScanRecipe("flux", 0.0, u(8, 10), steps(401), (1,), sym, both_spins, "regular",
                   omega=u(0.5, 1.5)),
        ScanRecipe("flux", 0.0, u(8, 10), steps(401), (2, 3), sym, (1,), "regular",
                   omega=u(0.5, 1.5)),
        ScanRecipe("omega", 0.0, u(2.5, 3.5), steps(301), (1,), sym, both_spins, "regular",
                   flux=u(0.1, 0.3)),
        ScanRecipe("omega", 0.0, u(2.5, 3.5), steps(301), (2,), sym, both_spins, "regular",
                   flux=u(0.1, 0.3)),
        ScanRecipe("m", -10.0, 10.0, 21, (1,), (0,), both_spins, "regular",
                   flux=float(rng.randint(1, 5)), omega=u(0.5, 1.5)),
        ScanRecipe("m", -10.0, 10.0, 21, (1,), (0,), both_spins, "regular",
                   flux=u(4, 6), omega=u(0.5, 1.5)),
        ScanRecipe("m", -10.0, 10.0, 21, (1,), (0,), both_spins, "regular",
                   flux=u(0.5, 0.7), omega=u(0.5, 1.5)),
        ScanRecipe("flux", -window, window, steps(197), low, (0,), both_spins, "irregular",
                   omega=u(0.5, 1.5)),
        ScanRecipe("omega", 0.0, u(2.5, 3.5), steps(301), low, (0,), both_spins, "irregular",
                   flux=u(0.1, 0.3)),
        ScanRecipe("flux", u(-1.2, -0.8), u(0.8, 1.2), steps(201), (1, 2), (-1, 0, 1),
                   both_spins, "both", omega=u(0.5, 1.5)),
    ]


@dataclass(frozen=True)
class ScanItem:
    recipe: ScanRecipe
    out: Path


def _scan_prepare(recipes: list[ScanRecipe], work: Path) -> list[ScanItem]:
    return [ScanItem(r, work / f"scan.{r.fmt}") for r in recipes]


def _scan_run(item: ScanItem) -> int:
    # Without --strict, irregular rows outside |j| < 1/2 print a note on
    # stderr; keep it out of the benchmark's output.
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(item.recipe.argv(str(item.out)))


def _scan_check(item: ScanItem, exit_code: int) -> str | None:
    return checks.check_scan_output(item.recipe, exit_code, item.out.read_text(encoding="utf-8"))


# ------------------------------------------------------- extension_roots


@dataclass(frozen=True)
class RootCase:
    lam: float
    j: float
    count: int


def _j_draws(rng: random.Random) -> list[float]:
    """Six j in (0, 1/2): one in each third of the interval, one
    log-uniform in (1e-3, 1e-1) near j = 0, and two within 1e-2 of the
    sector edge 1/2."""
    interior = _stratified(rng, 0.0, 0.5, 3)
    near_zero = [10.0 ** rng.uniform(-3.0, -1.0)]
    edge = [0.5 - 10.0 ** rng.uniform(-4.0, -2.0) for _ in range(2)]
    return interior + near_zero + edge


def root_cases(seed: int) -> list[RootCase]:
    """Per lambda stratum and count 1..6, a fresh draw of the six j
    classes: every seed has the same cross of strata, so the cost of a pass
    barely moves between seeds."""
    rng = _rng("extension_roots", seed)
    cases = [
        RootCase(lam, j, count)
        for lam in _lambda_strata(rng)
        for count in range(1, 7)
        for j in _j_draws(rng)
    ]
    rng.shuffle(cases)
    return cases


def _roots_run(case: RootCase) -> list:
    return secular.solve_secular(case.lam, case.j, ATOMIC, case.count)


def _roots_check(case: RootCase, roots: list) -> str | None:
    return checks.check_secular_roots(case.lam, case.j, case.count, [r.kappa for r in roots])


# ---------------------------------------------------- extension_profiles


@dataclass(frozen=True)
class ProfileCase:
    """``kind`` is regular, irregular (closed-form ladders, ``index`` = n)
    or finite (``index``-th secular root of ``lam``)."""

    kind: str
    index: int
    j: float
    points: int
    lam: float = math.nan


@dataclass(frozen=True)
class ProfileItem:
    case: ProfileCase
    kappa: float
    coeffs: Any
    error: str = ""


# States per profile family.
PROFILES_PER_FAMILY = 36


def profile_cases(seed: int) -> list[ProfileCase]:
    """PROFILES_PER_FAMILY states each of: the regular ladder with
    |j| < 1/2, the regular ladder with 1/2 < |j| < 3, the irregular ladder
    (n = 1..4), and finite lambda (roots 1-3 at both grid sizes for each
    finite lambda stratum); half at the CLI's 2000 points and half at the
    library's 4000."""
    rng = _rng("extension_profiles", seed)
    families = (("regular", 0.0, 0.5), ("regular", 0.5, 3.0), ("irregular", 0.0, 0.5))
    cases = []
    for kind, lo, hi in families:
        for k, aj in enumerate(_stratified(rng, lo, hi, PROFILES_PER_FAMILY)):
            j = rng.choice((1.0, -1.0)) * aj
            cases.append(ProfileCase(kind, 1 + k % 4, j, (2000, 4000)[(k + k // 4) % 2]))
    finite_lams = _lambda_strata(rng)[2:]
    per_lam = PROFILES_PER_FAMILY // len(finite_lams)
    for k, j in enumerate(_stratified(rng, 0.0, 0.5, PROFILES_PER_FAMILY)):
        cases.append(ProfileCase("finite", 1 + k % 3, j, (2000, 4000)[k % 2],
                                 lam=finite_lams[k // per_lam]))
    rng.shuffle(cases)
    return cases


def _profile_prepare(cases: list[ProfileCase], work: Path) -> list[ProfileItem]:
    """kappa and the normalisable coefficients of each state; the finite
    lambda roots are solved here, so no root search is timed."""
    items = []
    for case in cases:
        try:
            if case.kind == "finite":
                roots = secular.solve_secular(case.lam, case.j, ATOMIC, case.index)
                kappa = roots[case.index - 1].kappa
            else:
                state = QuantumState(n=case.index, m=0, s=1, branch=case.kind)
                kappa = spectrum.closed_form_energy(state, ATOMIC, decompose_flux(case.j)).kappa
            coeffs = secular.normalizable_coefficients(
                secular.KummerParams.for_state(kappa, case.j, ATOMIC)
            )
        except (ArithmeticError, ValueError, RuntimeError, IndexError) as exc:
            items.append(ProfileItem(case, math.nan, None, f"{type(exc).__name__}: {exc}"))
            continue
        items.append(ProfileItem(case, kappa, coeffs))
    return items


class SetupFailure(RuntimeError):
    """The state of a profile operation could not be prepared."""


def _profile_run(item: ProfileItem):
    if item.error:
        raise SetupFailure(item.error)
    profile = wavefunction.build_profile(
        item.coeffs, item.kappa, item.case.j, ATOMIC, points=item.case.points
    )
    norm, nodes = wavefunction.normalize_and_count_nodes(profile)
    return profile, norm, nodes


def _profile_check(item: ProfileItem, output) -> str | None:
    profile, norm, nodes = output
    return checks.check_profile(
        item.case.kind, item.case.index, abs(item.case.j), item.kappa,
        profile.r, profile.values, norm, nodes,
    )


# ----------------------------------------------------- oracle_crosscheck


@dataclass(frozen=True)
class OracleCase:
    j: float
    n_max: int


# |j| bins: four inside the singular sector, four outside it.  The cost of
# an operation grows with |j| and n_max, so narrow bins keep the cost of a
# pass, and its slowest operations, nearly the same for every seed.
ORACLE_J_BINS = ((0.0, 0.125), (0.125, 0.25), (0.25, 0.375), (0.375, 0.5),
                 (0.5, 1.0), (1.0, 1.5), (1.5, 2.0), (2.0, 2.5))


def oracle_cases(seed: int) -> list[OracleCase]:
    """One j per |j| bin for each n_max in 1..5, with a random sign; within
    a bin the five |j| are stratified."""
    rng = _rng("oracle_crosscheck", seed)
    cases = [
        OracleCase(rng.choice((1.0, -1.0)) * aj, n_max)
        for lo, hi in ORACLE_J_BINS
        for n_max, aj in enumerate(_stratified(rng, lo, hi, 5), start=1)
    ]
    rng.shuffle(cases)
    return cases


def _oracle_run(case: OracleCase) -> list:
    return oracle.oracle_regular_spectrum(case.j, ATOMIC, case.n_max)


def _oracle_check(case: OracleCase, levels: list) -> str | None:
    return checks.check_oracle_levels(case.j, case.n_max, [(ev.index, ev.kappa) for ev in levels])


# ---------------------------------------------------------------- registry


def _unchanged(cases: list, work: Path) -> list:
    return cases


@dataclass(frozen=True)
class Workload:
    """``generate(seed)`` gives the inputs, ``prepare(inputs, work)`` the
    operation items (set-up), ``run(item)`` is one timed operation and
    ``check(item, output)`` its output check; ``reference`` names the kind
    of reference loop whose work resembles the operations' (see
    ``ReferenceClock`` in run.py)."""

    name: str
    generate: Callable[[int], list]
    prepare: Callable[[list, Path], list]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], str | None]
    reference: str = "numeric"

    def setup(self, seed: int, work: Path) -> list:
        items = self.prepare(self.generate(seed), work)
        for item in self.prepare(self.generate(WARMUP_SEED)[:WARMUP_OPS], work):
            try:
                self.run(item)
            except Exception:  # a failing op is counted in the timed loop
                pass
        return items

    @staticmethod
    def describe(item) -> dict:
        """The operation's inputs, for the failure report."""
        case = getattr(item, "case", None) or getattr(item, "recipe", None) or item
        return {k: (repr(v) if isinstance(v, float) and not math.isfinite(v) else v)
                for k, v in asdict(case).items()}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("closed_form_scans", scan_recipes, _scan_prepare, _scan_run, _scan_check,
                 reference="text"),
        Workload("extension_roots", root_cases, _unchanged, _roots_run, _roots_check),
        Workload("extension_profiles", profile_cases, _profile_prepare, _profile_run, _profile_check),
        Workload("oracle_crosscheck", oracle_cases, _unchanged, _oracle_run, _oracle_check),
    )
}
