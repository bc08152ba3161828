"""Command-line driver: spectra and parameter scans of the ladders and of
any extension lambda, wavefunction export, and the verification suite.

Output is deterministic CSV (LF endings, ``.`` decimal point, shortest
round-trip float format) or JSON.  Exit codes: 0 success, 1 failed
verification, 2 bad flags (argparse, or more than ``MAX_ROWS`` rows), 3
refused input: a refused row under ``--strict`` or as ``wavefunction``'s state
(the s = 1 row of its flags), a state that is not bound or whose profile leaves
the float range, or parameters whose Coulomb scale no float holds.  A refused
row or state prints one line, ``error: <reason> (<where>)``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import verify as verify_mod
from .model import (
    IRREGULAR,
    REGULAR,
    FloatRangeError,
    PhysicalParams,
    SectorError,
    is_singular_sector,
)
from .secular import (
    KummerParams,
    RootSearchError,
    SolutionCoefficients,
    _check_lambda,
    normalizable_coefficients,
    solve_secular,
)
from .spectrum import _energy_terms
from .wavefunction import build_profile

__all__ = ["main", "ScanSpec"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_REFUSED = 3

CSV_HEADER = "scan_var,scan_value,n,m,s,branch,energy,kappa,exists"
SCAN_VARIABLES = ("flux", "omega", "m")
EXTENSION = "extension"  # the branch column of a finite nonzero lambda's rows
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
# the work done (scan steps, wavefunction's --n, --points); both at parse
# time.
MAX_LIST_ENTRIES = 100_000
# Rows one spectrum or scan may write, counted from the list lengths before
# any array is built: lists each within MAX_LIST_ENTRIES can ask for many GB,
# and 1 M rows already take 1.4-3 s and peak at 0.32-0.47 GB as CSV, 1.9-4.2 s
# and 0.75-0.81 GB as JSON (2-core Xeon, numpy 2.4; the spectrum --n 1..1000
# --m 0..999 grid and scans of flux or omega).
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
        values = self.values()
        for before, value in zip(values, values[1:]):
            if value <= before:
                raise ValueError(f"steps below the float spacing repeat {value!r}")

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
    """Comma-separated distinct integers with a..b range expansion, e.g.
    '-5..-1,3'."""
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
    if len(set(values)) < len(values):
        ordered = sorted(values)
        repeated = next(a for a, b in zip(ordered, ordered[1:]) if a == b)
        raise argparse.ArgumentTypeError(f"{repeated} is listed more than once")
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
    """A float that ``PhysicalParams`` accepts as ``field``; the Coulomb scale
    it makes with the other flags is checked once they are all read."""

    def number(text: str) -> float:
        value = float(text)
        try:
            PhysicalParams(**{field: value})
        except FloatRangeError:
            pass
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
    parser.add_argument("--mass", type=_physical("m_e"), default=1.0,
                        help="particle mass (default 1)")
    parser.add_argument("--hbar", type=_physical("hbar"), default=1.0, help="hbar (default 1)")
    parser.add_argument("--flux", type=_finite("flux"), default=0.0, help="AB flux phi (default 0)")


def _add_kind_flags(parser: argparse.ArgumentParser, branches: tuple[str, ...], what: str) -> None:
    """A ladder (--branch) or an extension (--lambda), not both; --branch defaults
    to None, as argparse tells a given flag from its default by identity."""
    kind = parser.add_mutually_exclusive_group()
    kind.add_argument("--branch", choices=branches, default=None,
                      help="closed-form ladder (default regular)")
    kind.add_argument("--lambda", dest="lam", type=_parse_lambda, default=None,
                      help=f"{what} of this extension instead of a ladder's "
                           "(a float in (-inf, +inf], 'inf' too)")


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of a ``spectrum`` or ``scan`` grid beyond its sweep."""
    parser.add_argument("--omega", type=_physical("omega"), default=0.0,
                        help="rotation frequency (default 0)")
    parser.add_argument("--n", type=_parse_levels, default=[1])
    parser.add_argument("--m", type=_parse_int_list, default=[0])
    parser.add_argument("--spin", type=_parse_spins, default=[1])
    _add_kind_flags(parser, (REGULAR, IRREGULAR, "both"), "write the levels")
    parser.add_argument("--strict", action="store_true")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="write to this path instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _params(args: argparse.Namespace) -> PhysicalParams:
    """The flags' parameters; FloatRangeError, which ``main`` maps to exit 3,
    where their Coulomb scale is beyond the float range.  ``wavefunction``
    has no --omega: rotation leaves kappa and the profile alone, so its state is
    the omega = 0 row, refused for its energy only where the Coulomb term is
    beyond the float range (an energy unit or a deep lambda < 0 root's kappa^2)."""
    return PhysicalParams(m_e=args.mass, hbar=args.hbar, eta=args.eta,
                          omega=getattr(args, "omega", 0.0))


def _branches(args: argparse.Namespace) -> list[str]:
    """The branch column's entries: the ladders --branch names, or the one
    whose states are those of --lambda (REGULAR at 0, IRREGULAR at inf), or
    EXTENSION at a finite nonzero --lambda."""
    if args.lam is None:
        return [REGULAR, IRREGULAR] if args.branch == "both" else [args.branch or REGULAR]
    return [{0.0: REGULAR, math.inf: IRREGULAR}.get(args.lam, EXTENSION)]


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _extension_levels(lam: float, j: np.ndarray, ns: list[int], params: PhysicalParams):
    """t and kappa of the levels ``ns`` of a finite ``lam`` on j's axes and the
    n axis, NaN past the last root and outside |j| < 1/2, from one solve per
    j; and on j's axes the solver's refusal of that j's roots, or None."""
    t = np.full(np.broadcast_shapes(j.shape, (1, len(ns), 1, 1, 1)), math.nan)
    kappa, refusals = t.copy(), np.full(j.shape, None, dtype=object)
    for index in zip(*np.nonzero(is_singular_sector(j))):
        try:
            roots = solve_secular(lam, float(j[index]), params, ns[-1])
        except (SectorError, RootSearchError, OverflowError) as exc:  # 1/Gamma past root 171
            refusals[index] = str(exc)
            continue
        found = [roots[n - 1] for n in ns if n <= len(roots)]
        at = (index[0], slice(len(found)), *index[2:])
        t[at], kappa[at] = [r.t for r in found], [r.kappa for r in found]
    return t, kappa, refusals


def _rows(variable: str, values: list[float], ns: list[int], ms: list[int], spins: list[int],
          args: argparse.Namespace) -> tuple[np.ndarray, np.ndarray, tuple[str, str] | None]:
    """The energy and kappa of a sweep of ``variable`` over the increasing
    ``values``, NaN on refused rows, and the first refused row's (reason,
    where), or None.

    The grid's axes (value, n, m, s, branch) hold distinct entries in sorted
    order, so its C order is the row order; on m scans the m axis has length
    1 and m follows the value.  The closed form behind
    ``spectrum.closed_form_energy`` is evaluated on it as numpy arrays, at a
    ladder's t = n - 1/2 +- |j| (bit for bit ``closed_form_energy`` of each
    row) or at each secular root's t.  A row is refused at |j| >= 1/2 on the
    irregular ladder and under every --lambda, where the solver refuses its
    root, and where it is bound (kappa > 0) but its kappa is not a normal
    float or its energy not finite (``--mass 1e300 --eta 1e10 --hbar 10``,
    whose inf kappa closed_form_energy returns).
    """
    params = _params(args)
    branches = sorted(_branches(args))
    value = np.reshape(values, (-1, 1, 1, 1, 1))
    m_axis = value if variable == "m" else np.reshape([float(m) for m in ms], (1, 1, -1, 1, 1))
    j = m_axis + (value if variable == "flux" else args.flux)
    regular = np.array([b == REGULAR for b in branches])
    sector = ~is_singular_sector(j) & (~regular if args.lam is None else True)  # no n or s axis
    with np.errstate(all="ignore"):  # overflow to inf and inf * 0 = nan, as in Python floats
        if branches == [EXTENSION]:
            t, kappa, refusals = _extension_levels(args.lam, j, ns, params)
        else:  # no s axis, and no value axis on omega scans
            t = (np.reshape([n - 0.5 for n in ns], (1, -1, 1, 1, 1))
                 + np.where(regular, 1.0, -1.0) * abs(j))
            kappa, refusals = params.q / t, None
        coulomb, rotation = _energy_terms(
            params, value if variable == "omega" else params.omega, t, j,
            np.reshape(np.array(spins, dtype=float), (1, 1, 1, -1, 1)),
        )
        # the Coulomb term in kappa where t^2 is not a normal float (no kept ladder
        # row: t >= 2^-54): 0/0 at t = 0 (q = 0, lambda < 0), short of digits at a deep root
        energy = np.where(t * t >= sys.float_info.min, coulomb,
                          -(params.hbar**2) * kappa * kappa / (2.0 * params.m_e)) + rotation
    # the energy is tested only where one is not finite: kappa keeps its own axes
    finite, bound = np.isfinite(energy), kappa > 0.0
    abnormal = bound & ((kappa < sys.float_info.min) | (kappa > sys.float_info.max))
    refused = (sector | np.not_equal(refusals, None) | abnormal
               | (False if finite.all() else bound & ~finite))
    refusal = None
    if refused.any():
        first = np.unravel_index(np.argmax(np.broadcast_to(refused, energy.shape)), energy.shape)
        v, ni, mi, si, _ = first
        m = int(values[v]) if variable == "m" else ms[mi]
        phi = values[v] if variable == "flux" else args.flux
        if np.broadcast_to(sector, energy.shape)[first]:
            kind = "irregular" if args.lam is None else f"lambda = {args.lam!r}"
            reason = f"{kind} state needs |j| < 1/2 but m + phi = {m + phi}"
        else:
            level = float(np.broadcast_to(kappa, energy.shape)[first])
            what = ("kappa" if np.broadcast_to(abnormal, energy.shape)[first]
                    else "the energy at kappa")
            reason = (np.broadcast_to(refusals, energy.shape)[first]
                      or f"{what} = {level!r} is beyond the float range")
        refusal = reason, f"n={ns[ni]}, m={m}, s={spins[si]}, phi={phi}" + (
            f", omega={values[v]}" if variable == "omega" else "")
    return np.where(refused, math.nan, energy), np.where(refused, math.nan, kappa), refusal


def _format_rows(variable: str, values: list[float], ns: list[int], ms: list[int],
                 spins: list[int], energy: np.ndarray, kappa: np.ndarray,
                 args: argparse.Namespace) -> str:
    """The rows ``_rows`` evaluated, with the header, in ``args.format``."""

    def floats(array: np.ndarray) -> np.ndarray:
        """Each entry of ``array`` as ``repr``, or as ``json.dumps`` writes it."""
        strings = np.reshape(np.array(list(map(repr, array.ravel().tolist())), dtype=object),
                             array.shape)
        if args.format == "json":
            nonfinite = ~np.isfinite(array)
            strings[nonfinite] = [_JSON_FLOATS[text] for text in strings[nonfinite]]
        return strings

    def along(axis: int, strings: list[str]) -> np.ndarray:
        return np.array(strings, dtype=object).reshape([-1 if a == axis else 1 for a in range(5)])

    # The fixed text before each field and after the last.  Each column is
    # joined from its pieces on its own axes, then broadcast to the grid.
    frag = [t.format(variable=variable) for t in (_JSON_ROW if args.format == "json" else _CSV_ROW)]
    columns = [
        along(0, [f"{frag[0]}{v!r}" for v in values]),
        along(1, [f"{frag[1]}{n}" for n in ns])
        + (along(0, [f"{frag[2]}{int(v)}" for v in values]) if variable == "m"
           else along(2, [f"{frag[2]}{m}" for m in ms]))
        + along(3, [f"{frag[3]}{s}" for s in spins])
        + along(4, [f"{frag[4]}{b}{frag[5]}" for b in sorted(_branches(args))]),
        floats(energy),
        frag[6] + floats(kappa) + frag[7]
        + np.where(kappa > 0.0, "true" + frag[8], "false" + frag[8]).astype(object),
    ]
    rows = list(map("".join, zip(*(np.broadcast_to(c, energy.shape).ravel().tolist()
                                   for c in columns))))
    del columns  # and its strings, before the rows are joined
    if args.format == "json":
        return "[\n" + ",\n".join(rows) + "\n]\n"
    return CSV_HEADER + "\n" + "\n".join(rows) + "\n"


def _refuse(reason: str, where: str) -> int:
    """Print the one line of a refusal and return its exit code."""
    print(f"error: {reason} ({where})", file=sys.stderr)
    return EXIT_REFUSED


def _write_rows(variable: str, values: list[float], args: argparse.Namespace) -> int:
    m_entries = 1 if variable == "m" else len(args.m)
    rows = len(values) * len(args.n) * m_entries * len(args.spin) * len(_branches(args))
    if rows > MAX_ROWS:
        print(f"error: the grid has {rows} rows, more than {MAX_ROWS}", file=sys.stderr)
        return 2  # a bad flag, as argparse exits
    keys = sorted(args.n), sorted(args.m), sorted(args.spin)
    energy, kappa, refusal = _rows(variable, values, *keys, args)
    if refusal is not None:
        if args.strict:
            return _refuse(*refusal)
        reason, where = refusal
        print(f"note: refused rows marked exists=false (first at {where}: {reason})",
              file=sys.stderr)
    _emit(_format_rows(variable, values, *keys, energy, kappa, args), args.out)
    return EXIT_OK


def _cmd_spectrum(args: argparse.Namespace) -> int:
    return _write_rows("flux", [args.flux], args)


def _cmd_scan(args: argparse.Namespace) -> int:
    return _write_rows(args.scan.variable, args.scan.values(), args)


def _cmd_wavefunction(args: argparse.Namespace) -> int:
    # the state is the s = 1 row of `spectrum --strict` with these flags:
    # neither kappa nor the profile depends on s
    _, kappa, refusal = _rows("flux", [args.flux], [args.n], [args.m], [1], args)
    if refusal is not None:
        return _refuse(*refusal)
    kappa, where = kappa.item(), f"n={args.n}, m={args.m}, phi={args.flux}"
    if not kappa > 0.0:
        return _refuse("no bound state", where)
    j, params, (branch,) = args.m + args.flux, _params(args), _branches(args)
    try:
        if branch == EXTENSION:
            coeffs = normalizable_coefficients(KummerParams.for_state(kappa, j, params))
        else:  # the ladder's own piece, x^{+-|j|} e^{-x/2} L_{n-1}^{(+-2|j|)}(x)
            coeffs = SolutionCoefficients(*((1.0, 0.0) if branch == REGULAR else (0.0, 1.0)))
        profile = build_profile(coeffs, kappa, j, params, points=args.points)
    except SectorError as exc:  # the j = 0 limit, where a and a' are one integer
        return _refuse(str(exc), where)
    except OverflowError:  # x^{|j|} at huge |j|, or an end of the mesh
        return _refuse(f"the profile at j = {j!r} is beyond the float range", where)
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


class _AppendDistinct(argparse.Action):
    """``append``, refusing an entry already listed, as integer lists do."""

    def __call__(self, parser, namespace, value, option_string=None):
        listed = getattr(namespace, self.dest) or []
        if value in listed:
            raise argparse.ArgumentError(self, f"{value} is listed more than once")
        setattr(namespace, self.dest, [*listed, value])


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

    sp = sub.add_parser("spectrum", help="the levels of a ladder or an extension at a single point")
    _add_physics_flags(sp)
    _add_grid_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(handler=_cmd_spectrum)

    sc = sub.add_parser("scan", help="sweep flux, omega, or m and emit rows")
    _add_physics_flags(sc)
    sc.add_argument("--scan", type=_parse_scan, required=True,
                    help="var:start:stop:steps with var in flux|omega|m")
    _add_grid_flags(sc)
    _add_output_flags(sc)
    sc.set_defaults(handler=_cmd_scan)

    wv = sub.add_parser("wavefunction", help="export a radial profile as CSV (r,F)")
    _add_physics_flags(wv)
    wv.add_argument("--n", type=_single(_parse_levels, MAX_LIST_ENTRIES), default=1,
                    help="level: the n-th state of the ladder or extension (default 1)")
    wv.add_argument("--m", type=_single(_parse_int_list), default=0)
    _add_kind_flags(wv, (REGULAR, IRREGULAR), "build the state")
    wv.add_argument("--points", type=_int_at_least(16), default=2000)  # build_profile's minimum
    wv.add_argument("--out", default=None, help="write to this path instead of stdout")
    wv.set_defaults(handler=_cmd_wavefunction)

    vf = sub.add_parser("verify", help="run the invariant suite, emit a JSON report")
    vf.add_argument("--only", action=_AppendDistinct, choices=tuple(verify_mod.GROUPS),
                    help="restrict to one check group (repeatable, each group once)")
    vf.add_argument("--out", default=None)
    vf.set_defaults(handler=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except FloatRangeError as exc:  # the flags' Coulomb scale, or a kappa beyond it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
