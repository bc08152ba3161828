"""Command-line driver: single-point spectra, parameter scans, secular
roots, wavefunction export, and the verification suite.

Output is deterministic CSV (LF endings, ``.`` decimal point, shortest
round-trip float format) or JSON.  Exit codes: 0 success, 1 failed
verification, 2 bad flags (argparse, or more than ``MAX_ROWS`` rows), 3
refused input: a sector violation, a state that is not bound, or a state
whose kappa or energy is beyond the float range.
"""

from __future__ import annotations

import argparse
import collections
import functools
import itertools
import json
import math
import operator
import sys
from collections.abc import Sequence
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
    KummerParams,
    RootSearchError,
    SolutionCoefficients,
    _check_lambda,
    _require_extension_sector,
    energy_from_kappa,
    normalizable_coefficients,
    solve_secular,
)
from .spectrum import ExistenceError, _closed_form_terms, closed_form_energy
from .wavefunction import build_profile

__all__ = ["main", "ScanSpec"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_REFUSED = 3

CSV_HEADER = "scan_var,scan_value,n,m,s,branch,energy,kappa,exists"
SCAN_VARIABLES = ("flux", "omega", "m")
# json.dumps spellings of the floats that repr spells nan, inf and -inf.
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# The text of a row around its fields: before scan_value, n, m, s, branch,
# energy, kappa and exists, and after exists.
_CSV_ROW = ("{variable},", ",", ",", ",", ",", ",", ",", ",", "")
_JSON_ROW = (
    '  {{\n    "scan_var": "{variable}",\n    "scan_value": ', ',\n    "n": ', ',\n    "m": ',
    ',\n    "s": ', ',\n    "branch": "', '",\n    "energy": ', ',\n    "kappa": ',
    ',\n    "exists": ', "\n  }}",
)


# Entries one integer list may hold, and the most of any integer that sets
# the work done (scan steps, --count, wavefunction's --n, --points); both at
# parse time.
MAX_LIST_ENTRIES = 100_000
# Rows one spectrum or scan may write, counted from the list lengths before
# any array is built: lists each within MAX_LIST_ENTRIES can ask for many GB,
# and 1 M rows already take 3-5 s and peak at 0.53 GB as CSV, 0.8-0.9 GB as
# JSON (2-core Xeon, numpy 2.4).
MAX_ROWS = 1_000_000


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
        if not 2 <= self.steps <= MAX_LIST_ENTRIES:
            raise ValueError(f"steps must be from 2 to {MAX_LIST_ENTRIES}, got {self.steps}")
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


def _float_int(text: str) -> int:
    """An integer that converts to a float, as every entry is used."""
    value = int(text)
    try:
        float(value)
    except OverflowError:
        raise argparse.ArgumentTypeError("entries must lie within the float range") from None
    return value


def _parse_int_list(text: str) -> list[int]:
    """Comma-separated integers with a..b range expansion, e.g. '-5..-1,3'."""
    values: list[int] = []
    for piece in text.split(","):
        piece = piece.strip()
        if ".." in piece:
            lo_text, hi_text = piece.split("..", 1)
            lo, hi = _float_int(lo_text), _float_int(hi_text)
            if hi < lo:
                raise argparse.ArgumentTypeError(f"empty range {piece!r}")
            size = hi - lo + 1
        elif piece:
            lo = _float_int(piece)
            size = 1
        else:
            continue
        if len(values) + size > MAX_LIST_ENTRIES:
            raise argparse.ArgumentTypeError(
                f"{piece!r} takes the list beyond {MAX_LIST_ENTRIES} entries")
        values.extend(range(lo, lo + size))
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


def _single(parse, most: float = math.inf):
    """The one entry of what ``parse`` reads, at most ``most``; a list is an
    invalid single value."""

    def single(text: str) -> int:
        (value,) = parse(text)
        if value > most:
            raise argparse.ArgumentTypeError(f"must be <= {most}, got {value}")
        return value

    return single


def _parse_lambda(text: str) -> float:
    """A float in (-inf, +inf]; ``float`` reads inf, +inf and Infinity."""
    lam = float(text)
    _check_lambda(lam)
    return lam


def _int_at_least(minimum: int):
    def integer(text: str) -> int:
        value = int(text)
        if not minimum <= value <= MAX_LIST_ENTRIES:
            raise argparse.ArgumentTypeError(
                f"must be from {minimum} to {MAX_LIST_ENTRIES}, got {value}")
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


def _finite(name: str):
    """A float that must be finite, named ``name`` in the refusal."""

    def number(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{name} must be finite, got {value}")
        return value

    return number


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
    parser.add_argument("--flux", type=_finite("flux"), default=0.0, help="AB flux phi (default 0)")


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


class SectorViolation(Exception):
    """Raised in strict mode when an irregular request leaves |j| < 1/2."""


def _axis(items: list) -> tuple[list, list[int]]:
    """The distinct ``items`` in sorted order, and how often each is listed."""
    counts = collections.Counter(items)
    keys = sorted(counts)
    return keys, [counts[k] for k in keys]


def _spread(strings: list[str], shape: tuple, full: tuple) -> Sequence[str]:
    """The ``strings`` of an array of ``shape``, one per entry of the
    ``full`` grid it broadcasts to, in C order."""
    if shape == full:
        return strings
    index = np.broadcast_to(np.arange(len(strings)).reshape(shape), full).ravel().tolist()
    return operator.itemgetter(*index)(strings)  # more than one entry, so a tuple


def _rows(variable: str, values: list[float], args: argparse.Namespace) -> tuple[str, str | None]:
    """The rows of a sweep of ``variable`` over ``values``, rendered in
    ``args.format`` and sorted by (scan_value, n, m, s, branch), and the
    note on irregular rows outside |j| < 1/2 (None when there are none).

    The grid is evaluated as numpy arrays on the sorted distinct entries of
    each axis (value, n, m, s, branch), whose C order is the row order, by
    the closed form behind ``spectrum.closed_form_energy``, so each energy
    and kappa is bit for bit ``closed_form_energy`` of its row.  A key
    listed k times is written k times in a row.  Raises ``SectorViolation``
    under ``--strict``, naming the first offending row in the given
    (value, n, m, s, branch) loop order.
    """
    params = _params(args)
    branches = _branches(args.branch)
    note = None
    if IRREGULAR in branches:
        column = np.array(values)[:, None]
        m_column = column if variable == "m" else np.array([float(m) for m in args.m])[None, :]
        outside = ~is_singular_sector(m_column + (column if variable == "flux" else args.flux))
        if outside.any():
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

    # Axes (value, n, m, s, branch), each sorted and distinct; on m scans
    # the m axis has length 1 and m follows the value.
    values, v_count = _axis(values)
    ns, n_count = _axis(args.n)
    ms, m_count = (None, [1]) if variable == "m" else _axis(args.m)
    spins, s_count = _axis(args.spin)
    branches, b_count = _axis(branches)
    value = np.reshape(values, (-1, 1, 1, 1, 1))
    m_axis = value if variable == "m" else np.reshape([float(m) for m in ms], (1, 1, -1, 1, 1))
    j = m_axis + (value if variable == "flux" else args.flux)
    regular = np.array([b == REGULAR for b in branches])
    with np.errstate(all="ignore"):  # overflow to inf and inf * 0 = nan, as in Python floats
        coulomb, rotation, kappa = _closed_form_terms(
            params, value if variable == "omega" else params.omega,
            np.reshape([n - 0.5 for n in ns], (1, -1, 1, 1, 1)), np.where(regular, 1.0, -1.0),
            j, np.reshape(np.array(spins, dtype=float), (1, 1, 1, -1, 1)),
        )
        energy = coulomb + rotation
    refused = ~is_singular_sector(j) & ~regular
    energy = np.where(refused, math.nan, energy)
    kappa = np.where(refused, math.nan, kappa)  # no s axis, and no value axis on omega scans
    full = energy.shape

    def floats(array: np.ndarray) -> list[str]:
        """Each entry of ``array`` as ``repr``, or as ``json.dumps`` writes it."""
        strings = list(map(repr, array.ravel().tolist()))
        if args.format == "json":
            for i in np.flatnonzero(~np.isfinite(array)).tolist():
                strings[i] = _JSON_FLOATS[strings[i]]
        return strings

    def along(axis: int, strings: list[str]) -> tuple[list[str], tuple]:
        return strings, tuple(len(strings) if a == axis else 1 for a in range(5))

    # The fixed text before each field and after the last; the labels (n,
    # m, s, branch) are joined on their own small grid.
    frag = [t.format(variable=variable) for t in (_JSON_ROW if args.format == "json" else _CSV_ROW)]
    label_parts = [
        along(1, [f"{frag[1]}{n}" for n in ns]),
        along(0, [f"{frag[2]}{int(v)}" for v in values]) if variable == "m"
        else along(2, [f"{frag[2]}{m}" for m in ms]),
        along(3, [f"{frag[3]}{s}" for s in spins]),
        along(4, [f"{frag[4]}{b}{frag[5]}" for b in branches]),
    ]
    label_shape = np.broadcast_shapes(*(shape for _, shape in label_parts))
    labels = list(map("".join, zip(*(_spread(p, shape, label_shape) for p, shape in label_parts))))
    rows = list(map("".join, zip(
        _spread(*along(0, [f"{frag[0]}{v!r}" for v in values]), full),
        _spread(labels, label_shape, full),
        floats(energy),
        itertools.repeat(frag[6]),
        _spread(floats(kappa), kappa.shape, full),
        itertools.repeat(frag[7]),
        _spread(np.where(kappa > 0.0, "true" + frag[8], "false" + frag[8]).ravel().tolist(),
                kappa.shape, full),
    )))
    count = functools.reduce(np.multiply, np.ix_(v_count, n_count, m_count, s_count, b_count))
    if count.max() > 1:
        rows = operator.itemgetter(*np.repeat(np.arange(count.size), count.ravel()).tolist())(rows)
    if args.format == "json":
        return "[\n" + ",\n".join(rows) + "\n]\n", note
    return CSV_HEADER + "\n" + "\n".join(rows) + "\n", note


def _write_rows(variable: str, values: list[float], args: argparse.Namespace) -> int:
    m_entries = 1 if variable == "m" else len(args.m)
    rows = len(values) * len(args.n) * m_entries * len(args.spin) * len(_branches(args.branch))
    if rows > MAX_ROWS:
        print(f"error: the grid has {rows} rows, more than {MAX_ROWS}", file=sys.stderr)
        return 2  # a bad flag, as argparse exits
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
    j = args.m + args.flux
    try:
        roots = solve_secular(args.lam, j, params, args.count)
    except (SectorError, RootSearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (OverflowError, ZeroDivisionError):  # eta / hbar**2, or 1/Gamma at a huge count
        print("error: the secular roots are beyond the float range", file=sys.stderr)
        return EXIT_REFUSED
    energies = [energy_from_kappa(r.kappa, j, args.spin, params) for r in roots]
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
    j = args.m + flux.phi
    branch = args.branch or REGULAR
    try:
        if args.lam in (0.0, math.inf):  # their states are the ladders', at |j| < 1/2
            _require_extension_sector(args.lam, j)
            branch = REGULAR if args.lam == 0.0 else IRREGULAR
        if args.lam in (None, 0.0, math.inf):
            # s = 1 for both spins: neither kappa = m_e eta'/(n - 1/2 +- |j|)
            # nor a secular root depends on s, so neither does the profile
            level = closed_form_energy(QuantumState(args.n, args.m, 1, branch), params, flux)
            if not level.exists:
                raise ExistenceError(f"no bound state: kappa = {level.kappa!r}")
            kappa = level.kappa
            # the ladder's own piece, x^{+-|j|} e^{-x/2} L_{n-1}^{(+-2|j|)}(x)
            coeffs = SolutionCoefficients(*((1.0, 0.0) if branch == REGULAR else (0.0, 1.0)))
        else:
            roots = solve_secular(args.lam, j, params, args.n)
            if len(roots) < args.n:
                raise ExistenceError(
                    f"lambda = {args.lam} has no bound state {args.n} (it has {len(roots)})")
            kappa = roots[-1].kappa
            coeffs = normalizable_coefficients(KummerParams.for_state(kappa, j, params))
        profile = build_profile(coeffs, kappa, j, params, points=args.points)
    except (SectorError, RootSearchError, ExistenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (OverflowError, ZeroDivisionError):  # x^{|j|} at huge |j|; hbar**2 = 0
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
            reason = check.get("error", f"residual {check['residual']} exceeds {check['tolerance']}")
            print(f"FAIL {check['name']}: {reason}", file=sys.stderr)
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAILED


@functools.cache  # about 1.6 ms to build; parse_args leaves it unchanged
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
    se.add_argument("--m", type=_single(_parse_int_list), default=0)
    se.add_argument("--spin", type=_single(_parse_spins), default=1)
    se.add_argument("--count", type=_int_at_least(1), default=3)
    _add_output_flags(se)
    se.set_defaults(handler=_cmd_secular)

    wv = sub.add_parser("wavefunction", help="export a radial profile as CSV (r,F)")
    _add_physics_flags(wv)
    wv.add_argument("--n", type=_single(_parse_levels, MAX_LIST_ENTRIES), default=1,
                    help="level: the n-th state of the ladder or extension (default 1)")
    wv.add_argument("--m", type=_single(_parse_int_list), default=0)
    # a ladder or an extension, not both; --branch defaults to None as argparse
    # tells a given flag from its default by identity (`--branch regular`)
    kind = wv.add_mutually_exclusive_group()
    kind.add_argument("--branch", choices=(REGULAR, IRREGULAR), default=None,
                      help="closed-form ladder (default regular)")
    kind.add_argument("--lambda", dest="lam", type=_parse_lambda, default=None,
                      help="build the state of this extension instead of a ladder's")
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
    args = _build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
