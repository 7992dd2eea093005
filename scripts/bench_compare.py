#!/usr/bin/env python3
"""Summarize the paired benchmark runs of a BENCH_*.json file.

    python scripts/bench_compare.py BENCH_FILE

BENCH_FILE holds a list of "runs", each one run of perfbench/run.py with its
"side" ("parent" or "change"), "workload", "seed", "pair" (runs with the
same workload, seed and pair form one pair), the end-to-end "metrics",
the uncorrected figures of some of them ("raw") and the output digests. For each workload and seed, and each end-to-end
metric of BENCHMARK.json, this prints each side's median and quartiles, the
change over the parent at the median, and the pairs in which the change is
better (ties count for neither side), and a verdict against the metric's
bound, with s = +1 when higher is better and -1 otherwise:

  WORSE       s (change median - parent median) / parent median < -bound;
  gain        the change wins at least 9 of 10 pairs and s (change median -
              parent median) exceeds the parent's q3 - q1;
  unresolved  (q3 - q1) / median > bound on either side, unless every run
              of the change is better than every run of the parent;
  ok          otherwise.

Under these rows come the same figures and verdicts for the raw metrics
that every run of the workload stores: perfbench divides job and import
times by the machine speed it measures, and the raw figures show what
that correction did. The digests
are listed as equal when every run of both sides wrote the same ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _wins(runs: list[dict], source: str, metric: str, higher: bool) -> tuple[int, int]:
    """(pairs the change wins, pairs with both sides) for one metric of
    each run's source, "metrics" or "raw"."""
    pairs = defaultdict(dict)
    for run in runs:
        pairs[run["seed"], run["pair"]][run["side"]] = run[source][metric]
    both = [p for p in pairs.values() if len(p) == 2]
    won = sum((p["change"] > p["parent"]) if higher else (p["change"] < p["parent"]) for p in both)
    return won, len(both)


def _verdict(parent: list[float], change: list[float], won: int, paired: int, spec: dict) -> str:
    """WORSE, gain, unresolved or ok, as the module docstring defines them."""
    s = 1.0 if spec["better"] == "higher" else -1.0
    bound = spec["bound"]
    p_q1, p_med, p_q3 = _quartiles(parent)
    c_q1, c_med, c_q3 = _quartiles(change)
    if s * (c_med - p_med) < -bound * abs(p_med):
        return "WORSE"
    if paired and 10 * won >= 9 * paired and s * (c_med - p_med) > p_q3 - p_q1:
        return "gain"
    spread = p_q3 - p_q1 > bound * abs(p_med) or c_q3 - c_q1 > bound * abs(c_med)
    if spread and not min(s * v for v in change) > max(s * v for v in parent):
        return "unresolved"
    return "ok"


def _row(runs: list[dict], spec: dict, source: str) -> str:
    """The line of one metric of each run's source, "metrics" or "raw"."""
    name = spec["name"]
    values, cells = [], []
    for side in SIDES:
        values.append([r[source][name] for r in runs if r["side"] == side])
        q1, median, q3 = _quartiles(values[-1])
        cells.append((median, f"{median:.4g} [{q1:.4g}, {q3:.4g}]"))
    (parent, parent_text), (change, change_text) = cells
    delta = f"{change / parent - 1.0:+.1%}" if parent else "n/a"
    won, paired = _wins(runs, source, name, spec["better"] == "higher")
    verdict = _verdict(*values, won, paired, spec)
    return (
        f"  {name:<12} {parent_text:>30} {change_text:>30} {delta:>8} {won:>3}/{paired}"
        f"  {verdict}"
    )


def report(bench: dict, metrics: list[dict]) -> list[str]:
    by_workload = defaultdict(list)
    for run in bench["runs"]:
        by_workload[run["workload"], run["seed"]].append(run)
    lines = []
    for (workload, seed), runs in by_workload.items():
        lines.append(f"{workload} (seed {seed})")
        lines.append(
            f"  {'metric':<12} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30}"
            f" {'change':>8} {'won':>6}  verdict"
        )
        lines += [_row(runs, spec, "metrics") for spec in metrics]
        raw = [spec for spec in metrics if all(spec["name"] in run["raw"] for run in runs)]
        if raw:
            lines.append("  raw, not corrected for machine speed:")
            lines += [_row(runs, spec, "raw") for spec in raw]
        for digest in ("values_sha256", "csv_sha256"):
            equal = len({run[digest] for run in runs}) == 1
            lines.append(f"  {digest}: {'equal on every run' if equal else 'DIFFER'}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench", type=Path, help="a BENCH_*.json file of paired runs")
    args = parser.parse_args(argv)
    bench = json.loads(args.bench.read_text())
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    print("\n".join(report(bench, metrics)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
