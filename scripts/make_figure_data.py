#!/usr/bin/env python3
"""Regenerate all figure data as CSV files.

Outputs (default directory: figure_data/):
  - risk_curve_n{n}_pbar{pb}.csv for n in {1, 5, 9} and pb in {0.1, 0.2,
    0.3, 0.4}: exact risks of the unrestricted and upper-truncated
    posterior-mean estimators plus the standardized risk-difference upper
    bound, on a 512-point grid over (0, pb].
  - max_risk_diff_a{a}.csv for a in {1.0, 0.5}: the maximum risk difference
    of the symmetric-interval estimator for a single trial at 200 upper
    bounds from 0.5001 to 0.9999 (binrisk.dominance.threshold_scan), with
    the dominance-threshold root in the header comment line.

The risk curves go through the command-line interface (risk-curve), so they
follow its documented column contract; the threshold curves call
binrisk.dominance directly. Both are byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from binrisk.cli import main as cli_main
from binrisk.dominance import threshold_scan


def write_risk_curves(outdir: pathlib.Path, grid: int) -> None:
    for n in (1, 5, 9):
        for pb in (0.1, 0.2, 0.3, 0.4):
            out = outdir / f"risk_curve_n{n}_pbar{pb}.csv"
            code = cli_main(
                [
                    "risk-curve",
                    "--n", str(n),
                    "--a", "1", "--b", "1",
                    "--p-bar", str(pb),
                    "--grid", str(grid),
                    "--out", str(out),
                ]
            )
            if code != 0:
                raise SystemExit(f"risk-curve failed for n={n}, p_bar={pb}")
            print(f"wrote {out}")


def write_threshold_curves(outdir: pathlib.Path, points: int) -> None:
    for a in (1.0, 0.5):
        grid, values, root = threshold_scan(a, points)
        out = outdir / f"max_risk_diff_a{a}.csv"
        with open(out, "w", newline="") as handle:
            handle.write(f"# dominance threshold root: {root:.17g}\n")
            handle.write("p_bar,max_risk_difference\n")
            for pb, value in zip(grid, values):
                handle.write(f"{pb:.17g},{value:.17g}\n")
        print(f"wrote {out} (root {root:.6f})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--outdir", type=pathlib.Path, default=pathlib.Path("figure_data")
    )
    parser.add_argument("--grid", type=int, default=512)
    parser.add_argument("--threshold-points", type=int, default=200)
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    write_risk_curves(args.outdir, args.grid)
    write_threshold_curves(args.outdir, args.threshold_points)
    return 0


if __name__ == "__main__":
    sys.exit(main())
