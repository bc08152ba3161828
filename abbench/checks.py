"""Output checks against references that do not come from abcoulomb.

Every reference here is built on numpy and ``scipy.special``.  A check
returns ``None`` when the output is right and otherwise a failure reason
``"<category>: <detail>"``; the failure report counts the categories.
All physics is in atomic units (m_e = hbar = eta = 1) except the scans,
which carry their own flags.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import special

__all__ = [
    "SCAN_RTOL",
    "ORACLE_RTOL",
    "PROFILE_ATOL",
    "expected_scan_rows",
    "check_scan_output",
    "secular_reference",
    "interlacing_bracket",
    "check_secular_roots",
    "profile_reference",
    "check_profile",
    "check_oracle_levels",
]

# Scan rows are recomputed here with another evaluation order, so allow a
# few ulps of the Coulomb and rotation magnitudes.
SCAN_RTOL = 1e-12
# Oracle kappa against the closed-form ladder.  Kept below 1e-6 so that a
# result perturbed by a relative 1e-6 is rejected with margin; the oracle's
# own error is about 2e-9 over the workload's inputs.
ORACLE_RTOL = 5e-7
# Profile shape: largest deviation from the fitted reference, as a share
# of the profile's peak magnitude.
PROFILE_ATOL = 1e-8
# Relative step in t on either side of a secular root for the sign test.
SIGN_STEP = 1e-9
# Slack on the interlacing bracket, relative to t.
BRACKET_RTOL = 1e-12

CSV_HEADER = "scan_var,scan_value,n,m,s,branch,energy,kappa,exists"
_ROW_KEYS = tuple(CSV_HEADER.split(","))


# ------------------------------------------------------------------ scans


def _scan_values(recipe) -> list[float]:
    if recipe.var == "m":
        stride = (int(recipe.stop) - int(recipe.start)) // (recipe.steps - 1)
        return [float(int(recipe.start) + stride * i) for i in range(recipe.steps)]
    return np.linspace(recipe.start, recipe.stop, recipe.steps).tolist()


def expected_scan_rows(recipe) -> list[tuple]:
    """Rows a scan recipe must produce, in output order, from

        E = -mass eta^2 / (2 hbar^2 (n - 1/2 +- |j|)^2) - hbar Omega (j + s/2)

    as ``(scan_value, n, m, s, branch, coulomb, rotation, kappa, exists)``.
    Irregular rows outside |j| < 1/2 have NaN energy and kappa.
    """
    branches = ("regular", "irregular") if recipe.branch == "both" else (recipe.branch,)
    mass, hbar, eta = 1.0, 1.0, 1.0
    rows = []
    for value in _scan_values(recipe):
        phi = value if recipe.var == "flux" else recipe.flux
        omega = value if recipe.var == "omega" else recipe.omega
        ms = (int(value),) if recipe.var == "m" else recipe.ms
        for n in recipe.ns:
            for m in ms:
                for s in recipe.spins:
                    for branch in branches:
                        j = m + phi
                        if branch == "irregular" and abs(j) >= 0.5:
                            rows.append((value, n, m, s, branch, math.nan, 0.0, math.nan, False))
                            continue
                        denom = n - 0.5 + (abs(j) if branch == "regular" else -abs(j))
                        coulomb = -mass * eta * eta / (2.0 * hbar * hbar * denom * denom)
                        rotation = -hbar * omega * (j + 0.5 * s)
                        kappa = mass * eta / (hbar * hbar * denom)
                        rows.append((value, n, m, s, branch, coulomb, rotation, kappa, kappa > 0.0))
    rows.sort(key=lambda row: row[:5])
    return rows


def _parse_scan(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise ValueError("bad CSV header or missing final newline")
    rows = []
    for line in lines[1:-1]:
        fields = line.split(",")
        if len(fields) != len(_ROW_KEYS):
            raise ValueError(f"bad CSV row {line!r}")
        row = dict(zip(_ROW_KEYS, fields))
        for key in ("scan_value", "energy", "kappa"):
            row[key] = float(row[key])
        for key in ("n", "m", "s"):
            row[key] = int(row[key])
        row["exists"] = {"true": True, "false": False}[row["exists"]]
        rows.append(row)
    return rows


def _close(out: float, ref: float, scale: float) -> bool:
    if math.isnan(ref):
        return math.isnan(out)
    return abs(out - ref) <= SCAN_RTOL * scale


def check_scan_output(recipe, exit_code: int, text: str) -> str | None:
    """Every row of a scan's output against ``expected_scan_rows``."""
    if exit_code != 0:
        return f"scan_exit: exit code {exit_code}"
    try:
        rows = _parse_scan(text, recipe.fmt)
    except (ValueError, KeyError) as exc:
        return f"scan_format: {exc}"
    expected = expected_scan_rows(recipe)
    if len(rows) != len(expected):
        return f"scan_rows: expected {len(expected)} rows, got {len(rows)}"
    for i, (row, ref) in enumerate(zip(rows, expected)):
        value, n, m, s, branch, coulomb, rotation, kappa, exists = ref
        key = (row["scan_var"], row["n"], row["m"], row["s"], row["branch"])
        if key != (recipe.var, n, m, s, branch) or not _close(
            row["scan_value"], value, max(1.0, abs(value))
        ):
            return f"scan_rows: row {i} is {key} at {row['scan_value']!r}"
        if row["exists"] != exists:
            return f"scan_exists: row {i} exists={row['exists']}"
        if not _close(row["energy"], coulomb + rotation, abs(coulomb) + abs(rotation)):
            return f"scan_energy: row {i} energy {row['energy']!r} vs {coulomb + rotation!r}"
        if not _close(row["kappa"], kappa, abs(kappa)):
            return f"scan_kappa: row {i} kappa {row['kappa']!r} vs {kappa!r}"
    return None


# ---------------------------------------------------------------- secular


def secular_reference(t: float, lam: float, aj: float) -> float:
    """Secular function in t = 1/kappa with scipy's reciprocal gamma:

        Gamma(b) rgamma(a) + lam (2/t)^{2|j|} Gamma(b') rgamma(a')

    (only the second term's reciprocal gamma for lam = inf).
    """
    a_prime = 0.5 - aj - t
    if math.isinf(lam):
        return float(special.rgamma(a_prime))
    regular = special.gamma(1.0 + 2.0 * aj) * special.rgamma(0.5 + aj - t)
    if lam == 0.0:
        return float(regular)
    irregular = lam * (2.0 / t) ** (2.0 * aj) * special.gamma(1.0 - 2.0 * aj) * special.rgamma(a_prime)
    return float(regular + irregular)


def interlacing_bracket(lam: float, aj: float, index: int) -> tuple[float, float]:
    """Closed interval in t = 1/kappa that holds root ``index`` (1-based).

    The roots interlace with the lambda = 0 ladder t = n - 1/2 + |j| and
    the lambda = inf ladder t = n - 1/2 - |j|.  For lambda < 0 the ground
    root lies in (0, 1/2 - |j|), below both ladders.
    """
    regular = index - 0.5 + aj
    irregular = index - 0.5 - aj
    if lam == 0.0:
        return regular, regular
    if math.isinf(lam):
        return irregular, irregular
    if lam > 0.0:
        return irregular, regular
    if index == 1:
        return 0.0, 0.5 - aj
    return index - 1.5 + aj, irregular


def check_secular_roots(lam: float, j: float, count: int, kappas: list[float]) -> str | None:
    """Root count, interlacing brackets in order, and a sign change of the
    reference secular function across each root."""
    if len(kappas) != count:
        return f"roots_missing: {len(kappas)} of {count} roots returned"
    aj = abs(j)
    for index, kappa in enumerate(kappas, start=1):
        if not (kappa > 0.0 and math.isfinite(kappa)):
            return f"roots_bracket: root {index} has kappa {kappa!r}"
        t = 1.0 / kappa
        lo, hi = interlacing_bracket(lam, aj, index)
        slack = BRACKET_RTOL * t
        if not (lo - slack <= t <= hi + slack):
            return f"roots_bracket: root {index} at t={t!r} outside [{lo!r}, {hi!r}]"
        below = secular_reference(t * (1.0 - SIGN_STEP), lam, aj)
        above = secular_reference(t * (1.0 + SIGN_STEP), lam, aj)
        if not below * above < 0.0:
            return f"roots_sign: no sign change across root {index} at t={t!r}"
    return None


# --------------------------------------------------------------- profiles


def profile_reference(kind: str, index: int, aj: float, kappa: float, x: np.ndarray) -> np.ndarray:
    """Reference radial shape, up to normalisation, at x = 2 kappa r.

    ``regular``:   x^{|j|} e^{-x/2} L_{n-1}^{(2|j|)}(x)
    ``irregular``: x^{-|j|} e^{-x/2} L_{n-1}^{(-2|j|)}(x)
    ``finite``:    x^{|j|} e^{-x/2} U(1/2 + |j| - 1/kappa, 1 + 2|j|, x)
    """
    damp = np.exp(-0.5 * x)
    if kind == "regular":
        return x**aj * damp * special.eval_genlaguerre(index - 1, 2.0 * aj, x)
    if kind == "irregular":
        return x ** (-aj) * damp * special.eval_genlaguerre(index - 1, -2.0 * aj, x)
    return x**aj * damp * special.hyperu(0.5 + aj - 1.0 / kappa, 1.0 + 2.0 * aj, x)


def check_profile(
    kind: str, index: int, aj: float, kappa: float,
    r: np.ndarray, values: np.ndarray, norm: float, nodes: int,
) -> str | None:
    """Node count index - 1, a finite positive norm, and the shape of the
    reference within PROFILE_ATOL of the peak after a least-squares scale."""
    if nodes != index - 1:
        return f"profile_nodes: expected {index - 1} nodes, got {nodes}"
    if not (math.isfinite(norm) and norm > 0.0):
        return f"profile_norm: norm {norm!r}"
    ref = profile_reference(kind, index, aj, kappa, 2.0 * kappa * r)
    if not np.all(np.isfinite(ref)):
        return "profile_reference: reference is not finite on the grid"
    scale = float(np.dot(values, ref) / np.dot(ref, ref))
    peak = float(np.max(np.abs(values)))
    deviation = float(np.max(np.abs(values - scale * ref))) / peak
    if not deviation <= PROFILE_ATOL:
        return f"profile_shape: deviates from the reference by {deviation:.2e} of the peak"
    return None


# ----------------------------------------------------------------- oracle


def check_oracle_levels(j: float, n_max: int, levels: list[tuple[int, float]]) -> str | None:
    """``(index, kappa)`` pairs against kappa_n = 1/(n - 1/2 + |j|)."""
    if len(levels) != n_max:
        return f"oracle_count: {len(levels)} of {n_max} levels"
    for expected_index, (index, kappa) in enumerate(levels, start=1):
        if index != expected_index:
            return f"oracle_index: level {expected_index} labelled {index}"
        exact = 1.0 / (index - 0.5 + abs(j))
        if not abs(kappa / exact - 1.0) <= ORACLE_RTOL:
            return f"oracle_kappa: level {index} kappa {kappa!r} vs {exact!r}"
    return None
