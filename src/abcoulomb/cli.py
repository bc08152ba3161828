"""Command-line driver: single-point spectra, parameter scans, secular
roots, wavefunction export, and the verification suite.

Output is deterministic CSV (LF endings, ``.`` decimal point, shortest
round-trip float format) or JSON.  Exit codes: 0 success, 1 failed
verification, 2 bad flags (argparse), 3 refused input: a sector violation,
a state that is not bound, or a state whose kappa or energy is beyond the
float range.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import verify as verify_mod
from .model import (
    IRREGULAR,
    REGULAR,
    PhysicalParams,
    QuantumState,
    SectorError,
    decompose_flux,
    is_singular_sector,
)
from .secular import (
    ExtensionParam,
    KummerParams,
    RootSearchError,
    SolutionCoefficients,
    energy_from_kappa,
    normalizable_coefficients,
    solve_secular,
)
from .spectrum import ExistenceError, closed_form_energy
from .wavefunction import build_profile

__all__ = ["main", "ScanSpec"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3

CSV_HEADER = "scan_var,scan_value,n,m,s,branch,energy,kappa,exists"
SCAN_VARIABLES = ("flux", "omega", "m")
# json.dumps spellings of the floats that repr spells nan, inf and -inf.
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@dataclass(frozen=True)
class ScanSpec:
    variable: str
    start: float
    stop: float
    steps: int

    def __post_init__(self) -> None:
        if self.variable not in SCAN_VARIABLES:
            raise ValueError(f"scan variable must be one of {SCAN_VARIABLES}")
        if not math.isfinite(self.stop - self.start):
            raise ValueError(
                f"scan endpoints and their span must be finite, got {self.start}:{self.stop}"
            )
        if not (self.start < self.stop):
            raise ValueError(f"need start < stop, got {self.start} >= {self.stop}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if self.variable == "m":
            if self.start != int(self.start) or self.stop != int(self.stop):
                raise ValueError("m scans need integer endpoints")
            span = int(self.stop) - int(self.start)
            if span % (self.steps - 1) != 0:
                raise ValueError("m scans need an integer stride")

    def values(self) -> list[float]:
        if self.variable == "m":
            stride = (int(self.stop) - int(self.start)) // (self.steps - 1)
            return [float(int(self.start) + stride * i) for i in range(self.steps)]
        return [float(v) for v in np.linspace(self.start, self.stop, self.steps)]


def _parse_int_list(text: str) -> list[int]:
    """Comma-separated integers with a..b range expansion, e.g. '-5..-1,3'."""
    values: list[int] = []
    for piece in text.split(","):
        piece = piece.strip()
        if ".." in piece:
            lo_text, hi_text = piece.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise argparse.ArgumentTypeError(f"empty range {piece!r}")
            values.extend(range(lo, hi + 1))
        elif piece:
            values.append(int(piece))
    if not values:
        raise argparse.ArgumentTypeError(f"no integers in {text!r}")
    return values


def _parse_spins(text: str) -> list[int]:
    spins = _parse_int_list(text)
    if any(s not in (1, -1) for s in spins):
        raise argparse.ArgumentTypeError("spin entries must be +1 or -1")
    return spins


def _parse_levels(text: str) -> list[int]:
    levels = _parse_int_list(text)
    if min(levels) < 1:
        raise argparse.ArgumentTypeError("n entries must be >= 1")
    return levels


def _parse_lambda(text: str) -> ExtensionParam:
    if text.strip().lower() in ("inf", "+inf", "infinity"):
        return ExtensionParam(math.inf)
    return ExtensionParam(float(text))


def _int_at_least(minimum: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return integer


def _physical(field: str):
    """A float that ``PhysicalParams`` accepts as ``field``."""

    def number(text: str) -> float:
        value = float(text)
        try:
            PhysicalParams(**{field: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return number


def _flux(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"flux must be finite, got {value}")
    return value


def _parse_scan(text: str) -> ScanSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("scan spec must be var:start:stop:steps")
    var, start, stop, steps = parts
    try:
        return ScanSpec(var, float(start), float(stop), int(steps))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_physics_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eta", type=_physical("eta"), default=1.0,
                        help="Coulomb strength (default 1)")
    parser.add_argument("--omega", type=_physical("omega"), default=0.0,
                        help="rotation frequency (default 0)")
    parser.add_argument("--mass", type=_physical("m_e"), default=1.0,
                        help="particle mass (default 1)")
    parser.add_argument("--hbar", type=_physical("hbar"), default=1.0, help="hbar (default 1)")
    parser.add_argument("--flux", type=_flux, default=0.0, help="AB flux phi (default 0)")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="write to this path instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _params(args: argparse.Namespace) -> PhysicalParams:
    return PhysicalParams(m_e=args.mass, hbar=args.hbar, eta=args.eta, omega=args.omega)


def _branches(choice: str) -> list[str]:
    return [REGULAR, IRREGULAR] if choice == "both" else [choice]


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _json_float(x: float) -> str:
    """``x`` as ``json.dumps`` writes it."""
    text = repr(x)
    return _JSON_FLOATS.get(text, text)


class SectorViolation(Exception):
    """Raised in strict mode when an irregular request leaves |j| < 1/2."""


def _rows(variable: str, values: list[float], args: argparse.Namespace) -> tuple[str, str | None]:
    """The rows of a sweep of ``variable`` over ``values``, rendered in
    ``args.format`` and sorted by (scan_value, n, m, s, branch), and the
    note on irregular rows outside |j| < 1/2 (None when there are none).

    The (value, n, m, s, branch) grid is evaluated as numpy columns with
    the operations of ``spectrum._assemble`` in its order, so each energy
    and kappa is bit for bit ``closed_form_energy`` of its row.  Raises
    ``SectorViolation`` under ``--strict``, naming the first offending row
    in (value, n, m, s, branch) loop order.
    """
    params = _params(args)
    column = np.array(values)[:, None]
    m_column = column if variable == "m" else np.array([float(m) for m in args.m])[None, :]
    j = m_column + (column if variable == "flux" else args.flux)  # (value, m)
    outside = ~is_singular_sector(j)
    branches = _branches(args.branch)
    note = None
    if IRREGULAR in branches and outside.any():
        v, i = np.unravel_index(np.argmax(outside), outside.shape)
        m = int(values[v]) if variable == "m" else args.m[i]
        phi = values[v] if variable == "flux" else args.flux
        if args.strict:
            raise SectorViolation(
                f"irregular state needs |j| < 1/2 but m + phi = {m + phi} (m={m}, phi={phi})"
            )
        note = (
            f"note: irregular rows with |m + phi| >= 1/2 marked exists=false "
            f"(first at m={m}, phi={phi})"
        )

    # Axes (value, n, m, s, branch); a length-1 axis broadcasts.
    value = column[..., None, None, None]
    j = j[:, None, :, None, None]
    half = np.array([n - 0.5 for n in args.n])[:, None, None, None]
    regular = np.array([b == REGULAR for b in branches])
    with np.errstate(all="ignore"):  # overflow to inf and inf * 0 = nan, as in Python floats
        denom = np.where(regular, half + np.abs(j), half - np.abs(j))
        coulomb = -(params.m_e * params.eta**2 / (2.0 * params.hbar**2)) / (denom * denom)
        hw = params.hbar * (value if variable == "omega" else params.omega)
        orbit, spin = -(hw * j), -np.array(args.spin, dtype=float)[:, None] * (hw / 2.0)
        energy = coulomb + (orbit + spin)
        kappa = params.m_e * params.eta_prime / denom
    refused = outside[:, None, :, None, None] & ~regular
    m_rows = [[int(v)] for v in values] if variable == "m" else [args.m] * len(values)
    shape = (len(values), len(args.n), len(m_rows[0]), len(args.spin), len(branches))

    # A stable sort of the loop order, as sorted() of the rows; ranks take ints of any size.
    def key(items: list, axis: int) -> np.ndarray:
        rank = {x: r for r, x in enumerate(sorted(set(items)))}
        axes = [-1 if a == axis else 1 for a in range(5)]
        return np.array([rank[x] for x in items]).reshape(axes)

    m_key = key(args.m, 2) if variable != "m" else 0  # m scans: m follows the value
    keys = [key(branches, 4), key(args.spin, 3), m_key, key(args.n, 1), value]
    order = np.lexsort([np.broadcast_to(k, shape).ravel() for k in keys]).tolist()

    def text(array: np.ndarray, fmt) -> list[str]:
        """``fmt`` of each entry of an array on its own axes, spread over the sorted rows."""
        strings = np.array([fmt(x) for x in array.ravel().tolist()], dtype=object)
        return np.broadcast_to(strings.reshape(array.shape), shape).ravel()[order].tolist()

    number = _json_float if args.format == "json" else repr
    kappa = np.where(refused, math.nan, kappa)
    energies = text(np.where(refused, math.nan, energy), number)
    kappas = text(kappa, number)
    exists = text(kappa > 0.0, lambda x: "true" if x else "false")
    heads = [
        (v, n, m, s, b)
        for v, ms in zip(map(repr, values), m_rows)
        for n in args.n for m in ms for s in args.spin for b in branches
    ]
    rows = zip([heads[i] for i in order], energies, kappas, exists)
    if args.format == "json":
        objects = [
            f'  {{\n    "scan_var": "{variable}",\n    "scan_value": {v},\n    "n": {n},\n'
            f'    "m": {m},\n    "s": {s},\n    "branch": "{b}",\n    "energy": {e},\n'
            f'    "kappa": {k},\n    "exists": {x}\n  }}'
            for (v, n, m, s, b), e, k, x in rows
        ]
        return "[\n" + ",\n".join(objects) + "\n]\n", note
    lines = [f"{variable},{v},{n},{m},{s},{b},{e},{k},{x}" for (v, n, m, s, b), e, k, x in rows]
    return CSV_HEADER + "\n" + "\n".join(lines) + "\n", note


def _write_rows(variable: str, values: list[float], args: argparse.Namespace) -> int:
    try:
        text, note = _rows(variable, values, args)
    except SectorViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (OverflowError, ZeroDivisionError):  # eta**2 overflows or hbar**2 underflows
        print("error: the Coulomb scale m_e eta^2 / hbar^2 is beyond the float range",
              file=sys.stderr)
        return EXIT_REFUSED
    if note is not None:
        print(note, file=sys.stderr)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_spectrum(args: argparse.Namespace) -> int:
    return _write_rows("flux", [args.flux], args)


def _cmd_scan(args: argparse.Namespace) -> int:
    return _write_rows(args.scan.variable, args.scan.values(), args)


def _cmd_secular(args: argparse.Namespace) -> int:
    params = _params(args)
    j = args.j if args.j is not None else args.m[0] + args.flux
    if len(args.spin) != 1:
        print("error: secular energies need a single --spin", file=sys.stderr)
        return EXIT_USAGE
    s = args.spin[0]
    try:
        roots = solve_secular(args.lam, j, params, args.count)
    except (SectorError, RootSearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (OverflowError, ZeroDivisionError):  # eta / hbar**2, or 1/Gamma at a huge count
        print("error: the secular roots are beyond the float range", file=sys.stderr)
        return EXIT_REFUSED
    energies = [energy_from_kappa(r.kappa, j, s, params) for r in roots]
    for i, (root, energy) in enumerate(zip(roots, energies), start=1):
        if not math.isfinite(energy):
            print(
                f"error: root {i} at kappa = {root.kappa!r} has an energy "
                "beyond the float range",
                file=sys.stderr,
            )
            return EXIT_REFUSED
    if args.format == "json":
        payload = [
            {"index": i, "kappa": r.kappa, "energy": e, "residual": r.residual}
            for i, (r, e) in enumerate(zip(roots, energies), start=1)
        ]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = ["index,kappa,energy,residual"]
        for i, (r, e) in enumerate(zip(roots, energies), start=1):
            lines.append(f"{i},{r.kappa!r},{e!r},{r.residual!r}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_wavefunction(args: argparse.Namespace) -> int:
    params = _params(args)
    flux = decompose_flux(args.flux)
    m = args.m[0]
    j = m + flux.phi
    try:
        if args.lam is not None:
            roots = solve_secular(args.lam, j, params, args.root)
            if len(roots) < args.root:
                raise ExistenceError(
                    f"lambda = {args.lam.value} has no bound state {args.root} "
                    f"(it has {len(roots)})"
                )
            kappa = roots[args.root - 1].kappa
            coeffs = normalizable_coefficients(KummerParams.for_state(kappa, j, params))
        else:
            state = QuantumState(n=args.n[0], m=m, s=args.spin[0], branch=args.branch)
            level = closed_form_energy(state, params, flux)
            if not level.exists:
                raise ExistenceError(f"no bound state: kappa = {level.kappa!r}")
            kappa = level.kappa
            # the ladder's own piece: normalizable_coefficients vanishes at
            # j = 0 and needs Gamma(1 - 2|j|), which has poles at integer 2|j|
            coeffs = SolutionCoefficients(*((1.0, 0.0) if args.branch == REGULAR else (0.0, 1.0)))
        profile = build_profile(coeffs, kappa, j, params, points=args.points)
    except (SectorError, RootSearchError, ExistenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (OverflowError, ZeroDivisionError):  # (2 kappa)^{-2|j|} at huge |j|; hbar**2 = 0
        print(f"error: the profile at j = {j!r} is beyond the float range", file=sys.stderr)
        return EXIT_REFUSED
    lines = ["r,F"] + [
        f"{r!r},{v!r}" for r, v in zip(profile.r.tolist(), profile.values.tolist())
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verify_mod.run_checks(args.only or None)
    report = verify_mod.build_report(results)
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    for check in report["checks"]:
        if not check["pass"]:
            print(
                f"FAIL {check['name']}: residual {check['residual']} "
                f"exceeds {check['tolerance']}",
                file=sys.stderr,
            )
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abcoulomb",
        description=(
            "Bound states of a spin-1/2 particle with AB flux, Coulomb "
            "attraction, and frame rotation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="closed-form energies at a single point")
    _add_physics_flags(sp)
    sp.add_argument("--n", type=_parse_levels, default=[1])
    sp.add_argument("--m", type=_parse_int_list, default=[0])
    sp.add_argument("--spin", type=_parse_spins, default=[1])
    sp.add_argument("--branch", choices=(REGULAR, IRREGULAR, "both"), default=REGULAR)
    sp.add_argument("--strict", action="store_true")
    _add_output_flags(sp)
    sp.set_defaults(handler=_cmd_spectrum)

    sc = sub.add_parser("scan", help="sweep flux, omega, or m and emit rows")
    _add_physics_flags(sc)
    sc.add_argument("--scan", type=_parse_scan, required=True,
                    help="var:start:stop:steps with var in flux|omega|m")
    sc.add_argument("--n", type=_parse_levels, default=[1])
    sc.add_argument("--m", type=_parse_int_list, default=[0])
    sc.add_argument("--spin", type=_parse_spins, default=[1])
    sc.add_argument("--branch", choices=(REGULAR, IRREGULAR, "both"), default=REGULAR)
    sc.add_argument("--strict", action="store_true")
    _add_output_flags(sc)
    sc.set_defaults(handler=_cmd_scan)

    se = sub.add_parser("secular", help="bound states of one extension parameter")
    _add_physics_flags(se)
    se.add_argument("--lambda", dest="lam", type=_parse_lambda, required=True,
                    help="extension parameter (finite float or 'inf')")
    se.add_argument("--j", type=float, default=None,
                    help="effective angular momentum; default m + flux")
    se.add_argument("--m", type=_parse_int_list, default=[0])
    se.add_argument("--spin", type=_parse_spins, default=[1])
    se.add_argument("--count", type=_int_at_least(1), default=3)
    _add_output_flags(se)
    se.set_defaults(handler=_cmd_secular)

    wv = sub.add_parser("wavefunction", help="export a radial profile as CSV (r,F)")
    _add_physics_flags(wv)
    wv.add_argument("--n", type=_parse_levels, default=[1])
    wv.add_argument("--m", type=_parse_int_list, default=[0])
    wv.add_argument("--spin", type=_parse_spins, default=[1])
    wv.add_argument("--branch", choices=(REGULAR, IRREGULAR), default=REGULAR)
    wv.add_argument("--lambda", dest="lam", type=_parse_lambda, default=None,
                    help="build the state of this extension instead of a closed form")
    wv.add_argument("--root", type=_int_at_least(1), default=1,
                    help="which secular root (1-based)")
    wv.add_argument("--points", type=_int_at_least(16), default=2000)  # build_profile's minimum
    wv.add_argument("--out", default=None, help="write to this path instead of stdout")
    wv.set_defaults(handler=_cmd_wavefunction)

    vf = sub.add_parser("verify", help="run the invariant suite, emit a JSON report")
    vf.add_argument("--only", action="append", choices=tuple(verify_mod.GROUPS),
                    help="restrict to one check group (repeatable)")
    vf.add_argument("--out", default=None)
    vf.set_defaults(handler=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
