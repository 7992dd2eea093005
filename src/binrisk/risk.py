"""Exact risk evaluation under entropy loss and KL.

The sample space is finite, so every risk here is an exact sum over
outcomes; nothing is sampled. Sums go through math.fsum, which rounds
correctly, so that 1e-9 comparisons downstream are meaningful.

predictive_kl_risk sums over the exact pmf window of (n, p) only: outside
it every pmf term is exactly 0.0 and every loss finite, so each dropped
product is a zero and the correctly rounded sum is the same. The risk
sums (_risk_sums) and the risk differences of dominance (_pair_sums) sum
over the core window, the x within e^-64 of the pmf peak, and one
certificate, _certified, proves that the terms left out cannot change the
rounded sum; where it fails they sum the exact window. Each forms its
terms in its own inline pass over p-free rows that live on the estimate
table with their ceiling, log d and log(1-d) for a loss, the difference
pair for a difference, so they are kept as long as estimators keeps the
table; a long table computes them only over the windows summed, each
filled before its sum. _risk_sums takes log p and log(1-p) once for all
the tables of one call, the l of connection_sum or the two of a grid
point.
predictive_kl_risk takes the log rows of the predictive masses, and checks
their shape, once per set of tables: it keeps the last two sets' masses
and recognises a set by comparing them, which costs no hash of every
mass. The (y, f(y), log f(y)) triples of the future pmf live on its
window entry. connection_sum resolves its l tables once per (n, l, prior)
and keeps the last configuration, so each p of a sweep costs only the l
sums. Every risk takes p in (0, 1): _check_p, the library's one check
of p, runs once per public call, and the sums below it take p as checked.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

from .binom import BinomialSetup, PmfWindows, PriorSpec, _check_trials, pmf_windows
from .estimators import EstimateTable
from .predictive import bayes_predictive_tables  # noqa: F401  (re-exported)


def _check_p(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")


def point_risk(estimates: EstimateTable, p: float) -> float:
    """Exact entropy-loss risk sum_x Bin(x; n, p) L(delta(x), p), correctly
    rounded over every x = 0..n.

    It sums the core window of (n, p), and the exact window where _certified
    cannot prove that the terms left out leave the rounded sum as it is: no
    loss is negative or exceeds the table's ceiling by more than a few ulps
    (EstimateTable._logs), so one side of the check suffices.
    """
    _check_p(p)
    return _risk_sums((estimates,), p)[0]


def _risk_sums(tables: Sequence[EstimateTable], p: float) -> list[float]:
    """point_risk of each table at a checked p, with one log p and log(1-p)
    for all of them. Each loss term is w L(d, p), the loss clamped at 0.0:
    a negative loss is pure rounding, as the loss is a KL divergence, and
    the clamp is max(v, 0.0) for every float v, -0.0 and NaN included. A
    long table's log rows are filled over each window before it is summed.
    A window from x = 0 takes the log rows whole, since zip stops with the
    weights."""
    log_p, log_q, q = math.log(p), math.log1p(-p), 1.0 - p
    sums = []
    for table in tables:
        windows = pmf_windows(table.setup.n, p)
        log_ds, log_es, ceiling, fill = table._logs
        start, weights = window = windows.core
        while True:
            stop = start + len(weights)
            if fill:
                fill(start, stop)
            terms = [
                w * (0.0 if (v := p * (log_p - log_d) + q * (log_q - log_e)) < 0.0 else v)
                for w, log_d, log_e in zip(
                    weights,
                    log_ds[start:stop] if start else log_ds,
                    log_es[start:stop] if start else log_es,
                )
            ]
            terms.sort(reverse=True)  # largest first, the order fsum sums fastest
            risk = math.fsum(terms)
            if _certified(windows, window, terms, risk, ceiling, 0.0):
                break
            start, weights = window = windows.exact()
        sums.append(risk)
    return sums


def _pair_sums(tables: Sequence[EstimateTable], p: float) -> list[float]:
    """D(p) = sum_x Bin(x; n, p) (p alpha_x + q beta_x) of each restricted
    table's difference pair (EstimateTable._pair) at a checked p, correctly
    rounded over every x, certified as _risk_sums certifies a risk but on
    both sides, since the terms have either sign."""
    q = 1.0 - p
    sums = []
    for table in tables:
        windows = pmf_windows(table.setup.n, p)
        alphas, betas, ceiling, fill = table._pair
        start, weights = window = windows.core
        while True:
            stop = start + len(weights)
            if fill:
                fill(start, stop)
            terms = [
                w * (p * al + q * be)
                for w, al, be in zip(weights, alphas[start:stop], betas[start:stop])
            ]
            terms.sort(key=abs, reverse=True)  # largest in size first, as in _risk_sums
            diff = math.fsum(terms)
            if _certified(windows, window, terms, diff, ceiling, -1.0):
                break
            start, weights = window = windows.exact()
        sums.append(diff)
    return sums


def _certified(
    windows: PmfWindows, window: tuple, terms: list, total: float, ceiling: float, low: float
) -> bool:
    """Whether total, the fsum of terms w v over the window (start, weights)
    of windows, is the correctly rounded sum over every x, where no |v|
    exceeds the ceiling by more than a few ulps and, unless low is -1.0, no
    v is negative; it appends its bound to terms. It holds on the exact
    window, and where the core leaves out nothing (tail 0). Else the weights
    left out sum to at most the tail, so the terms left out sum to within
    [low b, b], b = tail (2 ceiling + 1), with room for every rounding on
    the way; fsum rounds correctly (Shewchuk 1997) and rounding is monotone,
    so fsum(terms + [b]) == total, and fsum(terms + [low b]) == total unless
    low is 0.0, prove that the full sum rounds to total."""
    if window is not windows.core or not windows.tail:
        return True
    bound = windows.tail * (2.0 * ceiling + 1.0)
    terms.append(bound)
    if math.fsum(terms) != total:
        return False
    terms[-1] = low * bound
    return not low or math.fsum(terms) == total


def predictive_kl_risk(
    tables: Sequence[Sequence[float]], p: float, setup: BinomialSetup
) -> float:
    """Exact KL risk of a predictive density given per-x mass tables.

    tables[x][y] is the estimated mass of Y = y after observing X = x. The
    log rows of the masses do not depend on p; they are taken once per set
    of tables (_mass_logs), which is recognised by its masses, so a table
    changed in place is read afresh. The (y, f(y), log f(y)) triples of the
    future pmf f live on its window entry.
    """
    _check_p(p)
    n, l = setup.n, setup.l
    if len(tables) != n + 1:
        raise ValueError(f"need a table for every x = 0..{n}")
    log_rows, bad_xs = _mass_logs(tables, l)
    ys = pmf_windows(l, p).exact_logs()  # (y, f(y), log f(y))
    # every estimated mass the risk would read is checked, also where the
    # pmf of x is exactly 0.0 and its terms are left out of the sum
    for x in bad_xs:
        for y, _, _ in ys:
            if not 0.0 < tables[x][y] < math.inf:
                raise ValueError(f"estimated mass at (x={x}, y={y}) is not positive and finite")
    start, weights = pmf_windows(n, p).exact()
    return math.fsum(
        [
            wx * fy * (log_fy - logs[y])
            for wx, logs in zip(weights, log_rows[start:] if start else log_rows)
            for y, fy, log_fy in ys
        ]
    )


# The last two table sets logged, newest first, as (masses, l, log rows)
_kept_sets: list[tuple] = []


def _mass_logs(
    tables: Sequence[Sequence[float]], l: int
) -> tuple[list[list[float]], list[int]]:
    """_log_rows of tables, for the last two sets logged: a sweep over p
    alternates the Bayes and the plug-in set. A set is recognised by
    comparing its masses with a kept copy, not by hashing them: == stops at
    the first difference, and a mass the caller still holds is the copy's
    own object, which == passes without comparing floats."""
    masses = [tuple(table) for table in tables]
    for kept, kept_l, logs in _kept_sets:
        if kept_l == l and kept == masses:
            return logs
    logs = _log_rows(masses, l)
    _kept_sets.insert(0, (masses, l, logs))
    del _kept_sets[2:]
    return logs


def _log_rows(
    tables: list[tuple[float, ...]], l: int
) -> tuple[list[list[float]], list[int]]:
    """log of every mass, NaN for a mass that is not positive, and the x,
    in order, of the tables with a mass outside (0, inf), which must be
    searched at each p: the log of a mass in (0, inf) is finite and under
    746 in size, so a row of logs sums to a finite value exactly when its
    table has no such mass. The search raises at any such mass the sum
    would read, so no non-finite log is summed."""
    if any(len(table) != l + 1 for table in tables):
        raise ValueError(f"need a mass for every y = 0..{l} in every table")
    logs = [[math.log(v) if v > 0.0 else math.nan for v in table] for table in tables]
    return logs, [x for x, row in enumerate(logs) if not math.isfinite(sum(row))]


def connection_sum(p: float, n: int, l: int, prior: PriorSpec) -> float:
    """Sum of point-estimation risks at sample sizes n..n+l-1.

    Equals the exact KL risk of the l-step Bayesian predictive density
    under the same prior.
    """
    _check_trials("n", n)
    _check_trials("l", l)  # l < 1 would sum nothing
    _check_p(p)
    return math.fsum(_risk_sums(_connection_tables(n, l, prior), p))


def _tables_for_steps(n: int, l: int, prior: PriorSpec) -> tuple[EstimateTable, ...]:
    """The estimate tables for m = n..n+l-1, kept for every p of the last
    configuration, which every caller sweeps: a predictive sweep of 25 p
    took 13% longer when each p built its setups and read the table cache,
    and estimators keeps only two long tables, so a long sweep would
    rebuild all l at each p (2.5 times the time of 16 p at n = 300, l = 5)."""
    return tuple(EstimateTable.build(BinomialSetup(n=m), prior) for m in range(n, n + l))


_connection_tables = lru_cache(maxsize=1)(_tables_for_steps)
