"""Seeded job lists for the three benchmark workloads.

A job is a plain ``(kind, params)`` pair built from the seed alone, so the
parent process can describe a workload without importing binrisk and each
child interpreter rebuilds the same list from ``(workload, seed)``.

Sample sizes are stratified: a pass draws one n from each of ``count``
equal-width strata of the stated range (log-scaled for ``risk-large-n``),
with the position inside each stratum taken from the seed. Every n is still
uniform (log-uniform) over its range, but two seeds give passes of nearly
the same total cost, which keeps run-to-run spread small without fixing the
inputs. Restriction modes in ``risk-large-n`` alternate for the same reason.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("dominance-upper", "risk-large-n", "predictive-sweep")

PRIOR_EXPONENTS = (0.5, 1.0, 2.0, 3.0)

# Interval restrictions whose table build fails at moderate n (first
# failing n at a = b = 1: 65, 143, 304 and 624; see NOTES.md). Jobs are
# kept as drawn, so their failures are counted, never skipped.
INTERVAL_CLASSES = ((0.4, 0.6), (0.2, 0.8), (0.1, 0.3), (0.05, 0.5))

# CLI default grid for dominance and risk-curve jobs. Their cost grows
# about linearly with n; n up to 32 keeps a 40-job pass near 7 s.
CLI_GRID = 512
DOMINANCE_MAX_N = 32
# Risk grid for risk-large-n jobs: smaller than the CLI default so a pass
# holds enough jobs for a tail quantile; the risk sums still dominate.
LARGE_N_GRID = 64
POISSON_K_GRID = (10.0, 100.0, 1000.0, 10000.0)

PREDICTIVE_EXPONENTS = (0.5, 1.0, 2.0)
PREDICTIVE_P_POINTS = 25

# Nominal seconds per pass, used only to turn --seconds into a number of
# passes. The count depends on --seconds alone, so every run of a workload
# does the same work whatever the speed of the code under test. A job's
# time is its best over the passes, so --seconds 20 is sized for at least
# three.
PASS_SECONDS = {
    "dominance-upper": 6.5,
    "risk-large-n": 6.5,
    "predictive-sweep": 4.0,
}


def _strata(rng: random.Random, count: int) -> list[float]:
    """One uniform draw on [0, 1) from each of ``count`` equal strata."""
    return [(k + rng.random()) / count for k in range(count)]


def _dominance_upper(rng: random.Random) -> list[tuple[str, dict]]:
    jobs = []
    for kind, count in (("dominance", 16), ("risk-curve", 14)):
        # a Latin hypercube: n, p_bar and the (a, b) pair each cover their
        # range once per kind, in independent seeded orders, because the
        # kernel's cost depends on all three
        p_bars = [0.05 + 0.55 * u for u in _strata(rng, count)]
        rng.shuffle(p_bars)
        pairs = list(itertools.product(PRIOR_EXPONENTS, PRIOR_EXPONENTS))
        rng.shuffle(pairs)
        for u, p_bar, (a, b) in zip(_strata(rng, count), p_bars, pairs):
            jobs.append(
                (kind, {"n": 1 + int(u * DOMINANCE_MAX_N), "a": a, "b": b, "p_bar": p_bar})
            )
    for _ in range(10):
        jobs.append(("threshold", {"a": rng.choice(PRIOR_EXPONENTS)}))
    rng.shuffle(jobs)
    return jobs


def _risk_large_n(rng: random.Random) -> list[tuple[str, dict]]:
    jobs = []
    for u in _strata(rng, 24):
        jobs.append(
            (
                "risk",
                {
                    "n": round(300 * 10**u),
                    "a": rng.choice(PRIOR_EXPONENTS),
                    "b": rng.choice(PRIOR_EXPONENTS),
                    "p_bar": rng.uniform(0.05, 0.6),
                    "p_lo": None,
                },
            )
        )
    for k, u in enumerate(_strata(rng, 24)):
        p_lo, p_bar = INTERVAL_CLASSES[k % len(INTERVAL_CLASSES)]
        jobs.append(
            (
                "risk",
                {
                    "n": round(300 * 10**u),
                    "a": rng.choice(PRIOR_EXPONENTS),
                    "b": rng.choice(PRIOR_EXPONENTS),
                    "p_bar": p_bar,
                    "p_lo": p_lo,
                },
            )
        )
    # one report with lambda_bar unset and one with it set: a set bound
    # builds tables up to n = 1e4, so more would make the kernel a large
    # share of this workload
    for k in range(2):
        jobs.append(
            (
                "poisson",
                {
                    "a": rng.choice(PRIOR_EXPONENTS),
                    "lam": 0.5,
                    "lambda_bar": rng.uniform(0.75, 2.0) if k % 2 else None,
                    "x_tilde": rng.randint(0, 3),
                },
            )
        )
    rng.shuffle(jobs)
    return jobs


def _predictive_sweep(rng: random.Random) -> list[tuple[str, dict]]:
    # one upper bound and one interval per seed, shared by every
    # configuration, so the estimate-table cache sees the reuse the
    # acceptance sweep has
    restrictions = (
        (None, None),
        (rng.uniform(0.2, 0.5), None),
        (rng.uniform(0.35, 0.5), rng.uniform(0.05, 0.15)),
    )
    jobs = [
        ("predictive", {"n": n, "l": l, "a": a, "b": b, "p_bar": p_bar, "p_lo": p_lo})
        for n, l, a, b, (p_bar, p_lo) in itertools.product(
            range(1, 9),
            range(1, 6),
            PREDICTIVE_EXPONENTS,
            PREDICTIVE_EXPONENTS,
            restrictions,
        )
    ]
    rng.shuffle(jobs)
    return jobs


_BUILDERS = {
    "dominance-upper": _dominance_upper,
    "risk-large-n": _risk_large_n,
    "predictive-sweep": _predictive_sweep,
}


def build_jobs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The job list of one pass of ``workload``; a function of the seed only."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def passes_for(workload: str, seconds: int) -> int:
    """Passes per run: fixed by the workload and --seconds, never by speed."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


def p_grid(p_lo: float | None, p_bar: float, size: int) -> list[float]:
    """The CLI's grid on the restriction: open at 0, closed at p_bar."""
    lo = p_bar / size if p_lo is None else p_lo
    return [lo + (p_bar - lo) * i / (size - 1) for i in range(size - 1)] + [p_bar]


def predictive_p_points(p_lo: float | None, p_bar: float | None) -> list[float]:
    """The 25 risk points of the acceptance sweep for one restriction."""
    count = PREDICTIVE_P_POINTS
    if p_bar is None:
        return [i / (count + 1) for i in range(1, count + 1)]
    if p_lo is None:
        return [p_bar * i / count for i in range(1, count + 1)]
    return [p_lo + (p_bar - p_lo) * i / (count - 1) for i in range(count)]
