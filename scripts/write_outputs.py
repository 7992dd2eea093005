#!/usr/bin/env python3
"""Write every reviewed output of this checkout into one directory, and
compare two such directories value by value.

    python scripts/write_outputs.py OUT_DIR [--against OTHER_DIR]

OUT_DIR receives the 14 figure CSVs of scripts/make_figure_data.py under
figures/ and, for each command in COMMANDS, its stdout, stderr and exit
status (cmdNN.stdout, cmdNN.stderr, cmdNN.exit), the CSV it writes through
--out F (cmdNN.csv) and the command line itself (cmdNN.cmd). outputs()
returns their texts by file name, and tests/test_golden_outputs.py pins
their digests. Everything runs in this process against the src/ next to
this script, so a copy of the script in another checkout writes that
checkout's outputs.

With --against, each file that differs from its namesake in OTHER_DIR is
listed with the number of changed values and the largest relative change
(values are the tokens between commas, blanks, brackets and colons); a
change in a non-numeric token reads as an infinite relative change. The
exit status is 1 when any file differs or exists on one side only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import pathlib
import re
import shlex
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import binrisk  # noqa: E402
import make_figure_data  # noqa: E402
from binrisk import cli  # noqa: E402

if not pathlib.Path(binrisk.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"binrisk imported from {binrisk.__file__}, not {SRC}")

# "F" stands for the CSV path of --out. New commands go at the end, so that
# the cmdNN names of the others keep their numbers.
COMMANDS = (
    "dominance --n 5 --p-bar 0.3 --grid 128 --out F",
    "dominance --n 3 --p-lo 0.2 --p-bar 0.6 --grid 64",
    "risk-curve --n 30 --a 0.5 --b 3 --p-bar 0.45",
    "risk-curve --n 4 --a 2 --p-lo 0.1 --p-bar 0.5 --grid 64",
    "estimate --n 50 --p-bar 0.2 --p 0.1",
    "predictive --n 6 --l 4 --x 2 --p-lo 0.1 --p-bar 0.4",
    "poisson-limit --lambda-bar 1 --k-grid 10 100 1000",
    "threshold --a 2",
    "risk-curve --n 10000 --p-bar 0.3 --grid 8",
    "estimate --n 65 --p-lo 0.4 --p-bar 0.6",
    "poisson-limit --lam nan",
    "threshold --a 200",
    "threshold --a 20",
    "threshold --a 30000",
    "threshold --a 2 --grid 8",
    "risk-curve --n 2000 --p-bar 0.3 --grid 16",
    "dominance --n 500 --p-lo 0.05 --p-bar 0.5 --grid 16",
    "estimate --n 5000 --p-bar 0.2 --p 0.01",
    "risk-curve --n 900 --a 0.5 --b 3 --p-bar 0.5 --grid 64",
    "risk-curve --n 300 --p-lo 0.1 --p-bar 0.3 --grid 64",
    "estimate --n 3000 --a 0.5 --b 3 --p-bar 0.5 --p 0.3",
    "estimate --n 100000 --a 0.5 --b 3 --p-bar 0.5 --p 0.3 --out F",
    "estimate --n 20000 --p-bar 0.05 --p 0.001 --out F",
    "threshold --a 2000",
    "threshold --a 10000000",
    "estimate --n 1 --a 200 --b 200 --p-lo 0.0001 --p-bar 0.9999",
    "estimate --n 100000 --p-bar 0.3 --p 0.29",
    "estimate --n 100000 --a 2 --b 2 --p 0.5",
    "risk-curve --n 63 --a 3 --b 0.5 --p-bar 0.02",
    "dominance --n 64 --a 0.5 --b 2 --p-bar 0.5 --out F",
    "risk-curve --n 60 --p-bar 1e-6 --grid 64",
    "dominance --n 40 --a 2 --b 3 --p-lo 0.1 --p-bar 0.3 --out F",
    "predictive --n 40 --l 12 --x 40 --p-bar 0.3",
    "predictive --n 8 --l 5 --x 0 --a 0.5 --b 2",
    "predictive --n 60 --l 4 --x 0 --p-lo 0.4 --p-bar 0.6",
    "poisson-limit --r 2 --s 0.5 --x-tilde 2 --k-grid 10 100 1000 --out F",
    "estimate --n 50 --p-bar 0.2 --p 0.1 --out F",
    "dominance --n 3 --a 2 --b 3 --p-bar 0.99999 --grid 64",
    "dominance --n 10 --a 1 --b 3 --p-bar 0.9999 --grid 64",
    "dominance --n 400 --p-bar 0.9 --grid 64 --out F",
    "dominance --n 40 --p-bar 0.99999999 --grid 32 --out F",
)

_TOKEN = re.compile(r"[^\s,()\[\]:=;]+")


def outputs() -> dict[str, str]:
    """Every reviewed output's text by its file name under OUT_DIR."""
    texts = {}
    with tempfile.TemporaryDirectory() as tmp:
        figures = pathlib.Path(tmp) / "figures"
        with contextlib.redirect_stdout(io.StringIO()):
            make_figure_data.main(["--outdir", str(figures)])
        for path in sorted(figures.iterdir()):
            texts[f"figures/{path.name}"] = path.read_text()
        for i, command in enumerate(COMMANDS, start=1):
            stem = f"cmd{i:02d}"
            csv_path = pathlib.Path(tmp) / f"{stem}.csv"
            argv = [str(csv_path) if arg == "F" else arg for arg in shlex.split(command)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                status = cli.main(argv)
            texts[f"{stem}.cmd"] = f"binrisk {command}\n"
            texts[f"{stem}.stdout"] = stdout.getvalue()
            texts[f"{stem}.stderr"] = stderr.getvalue()
            texts[f"{stem}.exit"] = f"{status}\n"
            if csv_path.exists():
                texts[f"{stem}.csv"] = csv_path.read_text()
    return texts


def compare_values(ours: str, theirs: str) -> tuple[int, int, float] | None:
    """(changed, total, largest relative change) over the value tokens, or
    None when the two texts do not hold the same number of values."""
    a, b = _TOKEN.findall(ours), _TOKEN.findall(theirs)
    if len(a) != len(b):
        return None
    changed, worst = 0, 0.0
    for u, v in zip(a, b):
        if u == v:
            continue
        changed += 1
        try:
            x, y = float(u), float(v)
        except ValueError:
            worst = math.inf
            continue
        scale = max(abs(x), abs(y))
        rel = abs(x - y) / scale if scale else 0.0
        worst = max(worst, rel if rel == rel else math.inf)
    return changed, len(a), worst


def report(out_dir: pathlib.Path, other_dir: pathlib.Path) -> int:
    def files(root: pathlib.Path) -> set[pathlib.Path]:
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    ours, theirs = files(out_dir), files(other_dir)
    differing = 0
    for rel in sorted(ours | theirs):
        if rel not in theirs or rel not in ours:
            side = out_dir if rel in ours else other_dir
            print(f"{rel}: only in {side}")
            differing += 1
            continue
        mine, other = (out_dir / rel).read_text(), (other_dir / rel).read_text()
        if mine == other:
            continue
        differing += 1
        values = compare_values(mine, other)
        if values is None:
            print(f"{rel}: the number of values differs")
        else:
            changed, total, worst = values
            print(f"{rel}: {changed} of {total} values changed, "
                  f"largest relative change {worst:.2g}")
    total = len(ours | theirs)
    print(f"{total - differing} of {total} files identical")
    return 1 if differing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("out_dir", type=pathlib.Path)
    parser.add_argument("--against", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)
    for name, text in outputs().items():
        path = args.out_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return 0 if args.against is None else report(args.out_dir, args.against)


if __name__ == "__main__":
    sys.exit(main())
