#!/usr/bin/env python3
"""Time the kernel's and the risk layer's calls in CPU time, against another checkout.

    python scripts/time_calls.py --against OTHER_DIR [--pairs 8] [--quick]

Seven cases, each timed with time.process_time in a fresh interpreter per
side, after one untimed round that fills the caches a sweep fills:

  sweep    the three calls of the predictive acceptance sweep at one p
           (predictive_kl_risk of the Bayes tables, connection_sum and
           predictive_kl_risk of the plug-in tables), in microseconds per
           p, over n = 1..8 and l = 1..5 under a = b = 1 on (0, 0.3], 25 p
           each, the tables built outside the timed region;
  large-n  point_risk of both tables of a risk-large-n job (untruncated
           and truncated to (0, 0.3]) at 64 p on (0, 0.3], in milliseconds
           per job, averaged over n = 300, 533, 949, 1687 and 3000;
  poisson  poisson_entropy_risk at lam = 0.5, the risk target of a
           risk-large-n Poisson report, in milliseconds per target, over
           a = 0.5, 1, 2, 3 and lambda_bar = 0.75, 1, 1.37, 2 and unset;
  tables   cold builds of upper-truncated estimate tables
           (estimators._estimate_table, past the table caches), in
           milliseconds per table, over n = 300, 533, 949, 1687 and 3000,
           (a, b) = (0.5, 3) and (2, 1) and p_bar = 0.05, 0.3 and 0.6;
  kernel   log_inc_beta_lower, the incomplete-beta kernel (L0), in
           microseconds per call, over a fixed seeded mix of 400 (alpha,
           beta, x): alpha and beta from 10^[-2, 3], x uniform on (0, 1)
           for half of them and between alpha/(alpha+beta) and
           (alpha+1)/(alpha+beta+2), the kernel's switch region, for the
           other half;
  intervals cold builds of interval-truncated estimate tables, in
           milliseconds per table, over n = 100, 300 and 600 under
           (a, b) = (2, 2) on [0.05, 0.5] and n = 20 and 60 under (1, 0.5)
           on [0.4, 0.6], tables that build (at n = 2000 on [0.05, 0.5]
           the bracket term overflows);
  big-n    cold calls at large n, in milliseconds per call, every cache
           of binom, estimators and predictive emptied before each:
           point_risk at n = 1e5, p = 0.29 of a table under a = b = 1 on
           (0, 0.3], built outside the timed region, its log rows dropped
           before each call, and limit_convergence_report
           with a = 1, lambda_bar = 1 on K = 10, 100, 1000 and 10000.

A child times each case over several rounds and reports the median round.
The pairs alternate which side runs first. For each case this prints each
side's median over the pairs, the change of this checkout over OTHER_DIR,
the quartiles of the per-pair change (this checkout's time over
OTHER_DIR's, less 1), and the pairs in which this checkout took less time:
a median alone moved by 20% between two runs against the same parent on a
shared machine, where the quartiles show the spread. Beside them it prints
each side's median cold peak in KiB: a child's first round, untimed, runs
the case cold and fills the caches a sweep fills, under tracemalloc, and
its peak is the most memory the round held at once beyond what the case's
set-up holds, an in-process figure for a memory change beside perfbench's
peak RSS. CPU time leaves out the time the process waits for a core, so it
does not follow the machine speed the way perfbench's wall-clock figures
do. --quick runs one round of a few configurations, n = 300, 8 p, two
targets, one table of each restriction, 20 kernel calls and the big-n risk
at n = 1e4 without the report, for a smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from bench_compare import _quartiles

ROOT = Path(__file__).resolve().parents[1]
CASES = (
    ("sweep", "us/p", 1e6),
    ("large-n", "ms/job", 1e3),
    ("poisson", "ms/tgt", 1e3),
    ("tables", "ms/tbl", 1e3),
    ("kernel", "us/call", 1e6),
    ("intervals", "ms/tbl", 1e3),
    ("big-n", "ms/call", 1e3),
)


def _sweep(n_max: int, l_max: int, points: int):
    """A round of the sweep case, and the number of p it covers."""
    from binrisk.binom import BinomialSetup, PriorSpec
    from binrisk.estimators import EstimateTable
    from binrisk.predictive import plug_in_density
    from binrisk.risk import bayes_predictive_tables, connection_sum, predictive_kl_risk

    prior = PriorSpec(a=1.0, b=1.0, p_bar=0.3)
    ps = [0.3 * i / points for i in range(1, points + 1)]
    configs = []
    for n in range(1, n_max + 1):
        est = EstimateTable.build(BinomialSetup(n=n), prior)
        for l in range(1, l_max + 1):
            setup = BinomialSetup(n=n, l=l)
            bayes = [t.density for t in bayes_predictive_tables(setup, prior)]
            plug = [[plug_in_density(y, l, d) for y in range(l + 1)] for d in est.values]
            configs.append((n, l, setup, bayes, plug))

    def run() -> None:
        for n, l, setup, bayes, plug in configs:
            for p in ps:
                predictive_kl_risk(bayes, p, setup)
                connection_sum(p, n, l, prior)
                predictive_kl_risk(plug, p, setup)

    return run, len(configs) * points


def _large_n(ns: list[int], points: int):
    """A round of the large-n case, and the number of jobs it covers."""
    from binrisk.binom import BinomialSetup, PriorSpec
    from binrisk.dominance import p_grid
    from binrisk.estimators import EstimateTable
    from binrisk.risk import point_risk

    grid = p_grid(0.3, None, points)
    priors = (PriorSpec(a=1.0, b=1.0), PriorSpec(a=1.0, b=1.0, p_bar=0.3))
    jobs = [[EstimateTable.build(BinomialSetup(n=n), prior) for prior in priors] for n in ns]

    def run() -> None:
        for tables in jobs:
            for p in grid:
                for table in tables:
                    point_risk(table, p)

    return run, len(jobs)


def _poisson(exponents: list[float], bounds: list[float | None]):
    """A round of the poisson case, and the number of targets it covers."""
    from binrisk.poisson import PoissonConfig, poisson_entropy_risk

    configs = [PoissonConfig(r=1.0, a=a, lambda_bar=bar) for a in exponents for bar in bounds]

    def run() -> None:
        for config in configs:
            poisson_entropy_risk(config, 0.5)

    return run, len(configs)


def _tables(cases: list[tuple[int, float, float, float, float | None]]):
    """A round of a table case, and the number of tables it builds, one
    per (n, a, b, p_bar, p_lo) of cases."""
    from binrisk.binom import BinomialSetup, PriorSpec
    from binrisk.estimators import _estimate_table

    configs = [(BinomialSetup(n=n), PriorSpec(a, b, bar, lo)) for n, a, b, bar, lo in cases]

    def run() -> None:
        for setup, prior in configs:
            _estimate_table(setup, prior)

    return run, len(configs)


def _kernel(pairs: int):
    """A round of the kernel case, and the number of calls it makes."""
    import random

    from binrisk.incbeta import log_inc_beta_lower

    rng = random.Random(35)
    points = []
    for _ in range(pairs):
        a, b = (10 ** rng.uniform(-2.0, 3.0) for _ in range(2))
        mean, edge = a / (a + b), (a + 1.0) / (a + b + 2.0)
        points += [(a, b, rng.random()), (a, b, rng.uniform(min(mean, edge), max(mean, edge)))]

    def run() -> None:
        for a, b, x in points:
            log_inc_beta_lower(a, b, x)

    return run, len(points)


def _big_n(n: int, report: bool):
    """A round of the big-n case, and the number of calls it makes."""
    from binrisk import binom, estimators, predictive
    from binrisk.binom import BinomialSetup, PriorSpec
    from binrisk.estimators import EstimateTable
    from binrisk.poisson import PoissonConfig, limit_convergence_report
    from binrisk.risk import point_risk

    caches = [
        cache
        for module in (binom, estimators, predictive)
        for cache in vars(module).values()
        if hasattr(cache, "cache_clear")
    ]
    table = EstimateTable.build(BinomialSetup(n=n), PriorSpec(a=1.0, b=1.0, p_bar=0.3))
    config = PoissonConfig(r=1.0, a=1.0, lambda_bar=1.0)

    def cold() -> None:
        for cache in caches:
            cache.cache_clear()
        vars(table).pop("_logs", None)

    def run() -> None:
        cold()
        point_risk(table, 0.29)
        if report:
            cold()
            limit_convergence_report([10.0, 100.0, 1000.0, 10000.0], 0.5, config, 1)

    return run, 1 + report


def child(src: Path, quick: bool) -> dict[str, list[float]]:
    """[seconds of CPU time per unit, bytes of the cold round's tracemalloc
    peak] of each case, for the binrisk under src."""
    sys.path.insert(0, str(src))
    import binrisk

    if not Path(binrisk.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"binrisk imported from {binrisk.__file__}, not {src}")
    rounds = 1 if quick else 5
    cases = {
        "sweep": _sweep(2, 2, 5) if quick else _sweep(8, 5, 25),
        "large-n": _large_n([300], 8) if quick else _large_n([300, 533, 949, 1687, 3000], 64),
        "poisson": (
            _poisson([1.0], [1.0, None])
            if quick
            else _poisson([0.5, 1.0, 2.0, 3.0], [0.75, 1.0, 1.37, 2.0, None])
        ),
        "tables": _tables(
            [(300, 0.5, 3.0, 0.3, None)]
            if quick
            else [
                (n, a, b, bar, None)
                for n in (300, 533, 949, 1687, 3000)
                for a, b in ((0.5, 3.0), (2.0, 1.0))
                for bar in (0.05, 0.3, 0.6)
            ]
        ),
        "kernel": _kernel(10) if quick else _kernel(200),
        "intervals": _tables(
            [(100, 2.0, 2.0, 0.5, 0.05)]
            if quick
            else [(n, 2.0, 2.0, 0.5, 0.05) for n in (100, 300, 600)]
            + [(n, 1.0, 0.5, 0.6, 0.4) for n in (20, 60)]
        ),
        "big-n": _big_n(10_000, False) if quick else _big_n(100_000, True),
    }
    result = {}
    for name, (run, units) in cases.items():
        tracemalloc.start()
        run()  # cold, and fills the caches a sweep fills
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        times = []
        for _ in range(rounds):
            start = time.process_time()
            run()
            times.append((time.process_time() - start) / units)
        result[name] = [statistics.median(times), peak]
    return result


def _side(checkout: Path, quick: bool) -> dict[str, list[float]]:
    args = [sys.executable, str(Path(__file__).resolve()), "--child", str(checkout / "src")]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        args + ["--quick"] * quick, capture_output=True, text=True, check=True, env=env
    )
    return json.loads(proc.stdout.splitlines()[-1])


def report(parent: list[dict], change: list[dict]) -> list[str]:
    lines = [
        f"{'case':<9} {'unit':<7} {'parent median':>14} {'change median':>14} {'change':>8}"
        f" {'pair q1':>8} {'pair q3':>8}  won {'parent KiB':>11} {'change KiB':>11}"
    ]
    sides = parent, change
    for name, unit, scale in CASES:
        old, new = (statistics.median(run[name][0] for run in side) * scale for side in sides)
        q1, _, q3 = _quartiles([c[name][0] / p[name][0] - 1.0 for p, c in zip(parent, change)])
        won = sum(c[name][0] < p[name][0] for p, c in zip(parent, change))
        old_kib, new_kib = (
            statistics.median(run[name][1] for run in side) / 1024 for side in sides
        )
        lines.append(
            f"{name:<9} {unit:<7} {old:>14.4g} {new:>14.4g} {new / old - 1.0:>+8.1%}"
            f" {q1:>+8.1%} {q3:>+8.1%}  {won}/{len(parent)}"
            f" {old_kib:>11.0f} {new_kib:>11.0f}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="the checkout to compare with")
    parser.add_argument("--pairs", type=int, default=8, help="alternating pairs of children")
    parser.add_argument("--quick", action="store_true", help="a smoke-test run")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.child, args.quick)))
        return 0
    if args.against is None or args.pairs < 1:
        parser.error("need --against OTHER_DIR and --pairs >= 1")
    parent, change = [], []
    for pair in range(args.pairs):
        sides = [(args.against, parent), (ROOT, change)]
        for checkout, runs in sides if pair % 2 == 0 else sides[::-1]:
            runs.append(_side(checkout, args.quick))
    print("\n".join(report(parent, change)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
