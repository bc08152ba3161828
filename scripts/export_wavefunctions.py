#!/usr/bin/env python3
"""Export radial wavefunction profiles (columns r,F) for a few
representative bound states: the lowest regular levels, a strongly
irregular level near the sector edge, and the first two states of the
lambda = -1 and lambda = +1 extensions."""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from abcoulomb import cli  # noqa: E402

PROFILES: list[tuple[str, list[str]]] = [
    ("regular_n1_j0p2.csv",
     ["wavefunction", "--branch", "regular", "--n", "1", "--m", "0", "--flux", "0.2"]),
    ("regular_n2_j0p2.csv",
     ["wavefunction", "--branch", "regular", "--n", "2", "--m", "0", "--flux", "0.2"]),
    ("regular_n3_j0p2.csv",
     ["wavefunction", "--branch", "regular", "--n", "3", "--m", "0", "--flux", "0.2"]),
    ("irregular_n1_j0p45.csv",
     ["wavefunction", "--branch", "irregular", "--n", "1", "--m", "0", "--flux", "0.45"]),
    ("extension_neg1_root1_j0p2.csv",
     ["wavefunction", "--lambda", "-1", "--n", "1", "--m", "0", "--flux", "0.2"]),
    ("extension_neg1_root2_j0p2.csv",
     ["wavefunction", "--lambda", "-1", "--n", "2", "--m", "0", "--flux", "0.2"]),
    ("extension_pos1_root1_j0p2.csv",
     ["wavefunction", "--lambda", "1", "--n", "1", "--m", "0", "--flux", "0.2"]),
    ("extension_pos1_root2_j0p2.csv",
     ["wavefunction", "--lambda", "1", "--n", "2", "--m", "0", "--flux", "0.2"]),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out/wavefunctions")
    parser.add_argument("--points", type=int, default=2000)
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for filename, argv in PROFILES:
        target = outdir / filename
        code = cli.main(argv + ["--points", str(args.points), "--out", str(target)])
        if code != 0:
            print(f"profile {filename} failed with exit code {code}", file=sys.stderr)
            return code
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
