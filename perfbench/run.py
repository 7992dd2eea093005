"""binrisk benchmark: one run of one workload.

    python3 perfbench/run.py --workload dominance-upper --seed 1 --seconds 30 --trace 0

Run from the repository root. Every pass of the workload runs in a fresh
child interpreter (``child.py``), so the package's LRU caches start cold as
they do for a CLI user; BLAS/OpenMP threads are pinned to 1 and children run
one at a time. Between passes, an import-only child measures set-up time.
The number of passes follows from ``--seconds`` and the workload alone, so
every run of a workload does the same work. Times are divided by the
machine speed factor measured around them (see ``child.py``), and a job's
time is the median over the passes; the record keeps the raw figures.

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` untraced and traced passes alternate, and the last line holds
the per-layer metrics from the traced passes plus the tracing overhead. The
line before it is a JSON record of the environment, sizes, failure classes
and output digests; both are also written to ``perfbench/.out/``.

Exit status: 0 when every output passed its check, 1 when a check failed
(the result is still printed), 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / ".out"

RUN_LIMIT_S = 170.0
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
# the tail is the slowest job time with at least this many jobs beyond it
TAIL_BEYOND = 10


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


class Children:
    """Starts child interpreters one at a time, within the run's deadline."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = {**os.environ, **THREAD_PINS}

    def run(self, *args: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), *args],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"child {args} exceeded the run's deadline") from exc
        if proc.returncode != 0:
            raise BenchmarkError(
                f"child {args} exited {proc.returncode}:\n{proc.stderr.strip()}"
            )
        try:
            return json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError) as exc:
            raise BenchmarkError(f"child {args} printed no result") from exc


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest quantile with ten jobs beyond it: the eleventh-slowest
    time, at quantile (N - 10) / N. Fewer than 11 jobs give the slowest."""
    ordered = sorted(times)
    count = len(ordered)
    rank = max(1, count - TAIL_BEYOND)
    return ordered[rank - 1], rank / count, count


def environment(args, jobs: list, passes: int) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {"python": platform.python_version()}
    for package in ("numpy", "scipy", "mpmath"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    sizes = [p["n"] for _, p in jobs if "n" in p]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "versions": versions,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "thread_pins": THREAD_PINS,
        "passes": passes,
        "jobs_per_pass": len(jobs),
        "jobs_by_kind": dict(Counter(kind for kind, _ in jobs)),
        "n_range": [min(sizes), max(sizes)] if sizes else None,
        "cli_grid": workloads.CLI_GRID,
        "large_n_grid": workloads.LARGE_N_GRID,
    }


def _job_times(passes: list[dict], key: str) -> list[float]:
    """Each job's median over the passes of its time divided by the speed
    factor measured around it (``key="speed"``), or of its raw time
    (``key="raw"``)."""
    if key == "raw":
        per_pass = [r["times"] for r in passes]
    else:
        per_pass = [[t / s for t, s in zip(r["times"], r["speeds"])] for r in passes]
    return [statistics.median(times) for times in zip(*per_pass)]


def _timing(passes: list[dict], key: str) -> dict:
    jobs = _job_times(passes, key)
    ok = [t for t, s in zip(jobs, passes[0]["statuses"]) if s == "ok"]
    if not ok:
        raise BenchmarkError("no job succeeded")
    tail_s, tail_q, tail_n = tail(ok)
    return {
        "jobs_per_s": len(ok) / sum(jobs),
        "job_p50_s": statistics.median(ok),
        "job_tail_s": tail_s,
        "job_tail_quantile": tail_q,
        "job_tail_n": tail_n,
        "ok_frac": len(ok) / len(jobs),
    }


def end_to_end(untraced: list[dict], setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    timing = _timing(untraced, "speed")
    raw = _timing(untraced, "raw")
    metrics = {
        "setup_s": (statistics.median(t / s for t, s in setups), "s"),
        "jobs_per_s": (timing["jobs_per_s"], "1/s"),
        "job_p50_s": (timing["job_p50_s"], "s"),
        "job_tail_s": (timing["job_tail_s"], "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
        "ok_frac": (timing["ok_frac"], "ratio"),
    }
    notes = {
        "job_tail_quantile": timing["job_tail_quantile"],
        "job_tail_n": timing["job_tail_n"],
        "failed_frac": 1.0 - timing["ok_frac"],
        "setup_samples": len(setups),
        "machine_speed": statistics.median(s for r in untraced for s in r["speeds"]),
        "raw": {
            "setup_s": statistics.median(t for t, _ in setups),
            **{k: raw[k] for k in ("jobs_per_s", "job_p50_s", "job_tail_s")},
        },
    }
    return metrics, notes


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    names = traced[0]["layers"].keys()
    metrics = {}
    for name in names:
        unit = "s" if name.endswith("_s") else (
            "ratio" if name.endswith(("_frac", "_ratio")) else "count"
        )
        metrics[name] = (statistics.median(r["layers"][name] for r in traced), unit)
    traced_s = sum(_job_times(traced, "speed"))
    untraced_s = sum(_job_times(untraced, "speed"))
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    return metrics


def run(args) -> tuple[dict, dict]:
    if not (ROOT / "src" / "binrisk" / "__init__.py").is_file():
        raise BenchmarkError(f"no binrisk sources under {ROOT / 'src'}")
    children = Children(time.monotonic() + RUN_LIMIT_S)
    jobs = workloads.build_jobs(args.workload, args.seed)
    passes = workloads.passes_for(args.workload, args.seconds)
    plan = [False, True] * max(1, passes // 3) if args.trace else [False] * passes

    children.run("--import-only")  # warm-up: byte-compiles and fills the file cache
    setups = []
    results = []
    for index, traced in enumerate(plan):
        # spread the set-up probes over the run, between passes
        probe = children.run("--import-only")
        setups.append((probe["setup_s"], probe["setup_speed"]))
        results.append(
            children.run(
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--trace", str(int(traced)),
                "--oracle", str(int(index == 0)),
            )
        )
    setups += [(r["setup_s"], r["setup_speed"]) for r in results]
    untraced = [r for r, traced in zip(results, plan) if not traced]
    traced_runs = [r for r, traced in zip(results, plan) if traced]

    problems = [p for r in results for p in r["problems"]]
    for key in ("csv_sha256", "values_sha256", "statuses"):
        if any(r[key] != results[0][key] for r in results):
            problems.append(f"{key} differs between passes of the same inputs")

    if args.trace:
        metrics, notes = per_layer(untraced, traced_runs), {}
    else:
        metrics, notes = end_to_end(untraced, setups)
    attempted = sum(len(r["times"]) for r in untraced)
    failed = sum(s != "ok" for r in untraced for s in r["statuses"])
    record = {
        **environment(args, jobs, len(plan)),
        **notes,
        "failure_classes": results[0]["failures"],
        "csv_sha256": results[0]["csv_sha256"],
        "values_sha256": results[0]["values_sha256"],
        "problems": problems[:20],
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        record, result = run(args)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w") as handle:
        json.dump({"record": record, "result": result}, handle, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
