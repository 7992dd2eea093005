"""Posterior-mean estimators under untruncated and truncated beta priors.

With s = n+a+b every estimate is read from the untruncated (x+a)/s, never
from raw quadrature: under an upper bound as (x+a)/(s + c(x+1)/p_bar) with
c = 1/I(x+a, s+1, p_bar), one row of one kernel call (_inverse_I_row); on an
interval as (x+a)/s minus A(x)/s, A = bracket / I_two_sided. The table over
x = 0..n is the primitive; posterior_mean reads one entry of it. A table
carries the p-free rows log d and log(1-d) and the ceiling of its losses,
which every risk sum at a p in (0, 1) reads, set up on the first sum: a
table of more than 64 estimates keeps its rows packed, as array('d') with
NaN where no sum has read them, computes them only over the spans its
sums read, and takes the ceiling from its smallest and largest estimate; a
table from build keeps the upper row c(0..n+1), packed, as _c_row (None
if not upper), which the J rows and the small-p_bar condition read. The
caches below and risk's connection tables decide how long a table is kept.
"""

from __future__ import annotations

import math
from array import array
from functools import cached_property, lru_cache

from .binom import _UNSET, _WHOLE_ROW, BinomialSetup, PriorSpec, _check_count, _LazyRow, _Table
from .incbeta import _bracket, _check_p_bar, _inverse_I_row, _log_I


def posterior_mean(x: int, prior: PriorSpec, n: int) -> float:
    """The Bayes estimate at X = x: one entry of the table for (n, prior)."""
    setup = BinomialSetup(n=n)
    _check_count("x", x, 0, n)
    return EstimateTable.build(setup, prior)[x]


class EstimateTable(_Table):
    """Estimates for every observable count x = 0..n under one prior."""

    _fields = ("setup", "prior", "values")

    def __init__(self, setup: BinomialSetup, prior: PriorSpec, values: tuple[float, ...]) -> None:
        if len(values) != setup.n + 1:
            raise ValueError("need one estimate per x = 0..n")
        lo, hi = prior.support
        for v in values:
            if not 0.0 < v < 1.0:
                raise ValueError(f"estimate {v} outside (0, 1)")
            if not lo <= v <= hi:
                raise ValueError(f"estimate {v} outside the restriction [{lo}, {hi}]")
        self.__dict__.update(setup=setup, prior=prior, values=values)

    @classmethod
    def build(cls, setup: BinomialSetup, prior: PriorSpec) -> EstimateTable:
        cache = _build_table if setup.n + 1 <= _SMALL_TABLE else _build_large_table
        return cache(setup, prior)

    def __getitem__(self, x: int) -> float:
        return self.values[x]

    @cached_property
    def _logs(self) -> tuple:
        """(log d, log(1-d), ceiling, fill): the log rows over the estimates,
        the ceiling max(-log(min d), -log1p(-max d)) of their losses, and
        None, or for a table of more than _WHOLE_ROW estimates the call
        fill(start, stop), start < stop, that computes both rows over x =
        start..stop-1 before a sum reads them there (the rows are then
        packed, array('d'), and hold NaN where no sum has read them), so
        the risk sums compute only the logs their windows read. They do
        not depend on p, so the first risk sum sets them up for every later
        one. Not a field, so ==, hash and repr ignore them. log and log1p
        are monotone, so the ceiling is -min log d or -min log(1-d) over the
        whole rows, filled or not; log p and log(1-p) round to at most 0.0
        and IEEE rounding is monotone, so at any p in (0, 1) no loss that
        risk._risk_sums computes from these rows exceeds the ceiling by
        more than a few ulps."""
        values = self.values
        ceiling = max(-math.log(min(values)), -math.log1p(-max(values)))
        if len(values) <= _WHOLE_ROW:
            return [math.log(d) for d in values], [math.log1p(-d) for d in values], ceiling, None
        log_es = _UNSET * len(values)

        def log_ds(start: int, stop: int) -> list[float]:
            """log d over x = start..stop-1, which fills log(1-d) there too."""
            log_es[start:stop] = array("d", [math.log1p(-d) for d in values[start:stop]])
            return [math.log(d) for d in values[start:stop]]

        row = _LazyRow(len(values), log_ds)
        return row.values, log_es, ceiling, row.span


def _correction(x: int, s: float, prior: PriorSpec) -> float:
    """The interval correction A(x) with s = n+a+b: zero exactly at the
    symmetry point of the interval and of either sign in general. I enters
    as exp(-log I), so an I beyond double range gives a correction that
    underflows towards 0.0 instead of raising."""
    numer = _bracket(x + prior.a, s, prior.p_lo, prior.p_bar)
    if numer == 0.0:
        return 0.0
    return numer * math.exp(-_log_I(x + prior.a, s, prior.p_bar, prior.p_lo))


def _estimate_table(setup: BinomialSetup, prior: PriorSpec) -> EstimateTable:
    n, a = setup.n, prior.a
    s = n + a + prior.b
    c_row = None
    if prior.p_bar is not None:
        _check_p_bar(prior.p_bar)  # the one ceiling check of a table
    if prior.restriction == "none":
        values = [(x + a) / s for x in range(n + 1)]
    elif prior.restriction == "upper":
        # d(x) = (x+a)/(s + c(x+1)/p_bar), c = 1/I(x+a, s+1, p_bar). With
        # alpha = x+a, beta = n-x+b, E = p_bar^alpha (1-p_bar)^beta and M the
        # beta measure of [0, p_bar]: integration by parts and M(alpha, beta)
        # = M(alpha+1, beta) + M(alpha, beta+1) give s M(alpha+1, beta) + E =
        # alpha M(alpha, beta), and c(x+1)/p_bar = E / M(alpha+1, beta), so d
        # is M(alpha+1, beta) / M(alpha, beta). Nothing is subtracted, and a
        # c that underflows to 0.0 gives exactly (x+a)/s.
        c_row = _inverse_I_row(a, s + 1.0, prior.p_bar, n + 1)
        values = [(x + a) / (s + c_row[x + 1] / prior.p_bar) for x in range(n + 1)]
        c_row = array("d", c_row)  # kept packed, read as a list while building
    else:
        values = [(x + a) / s - _correction(x, s, prior) / s for x in range(n + 1)]
    table = EstimateTable(setup=setup, prior=prior, values=tuple(values))
    table.__dict__["_c_row"] = c_row  # p-free and not a field, like _logs
    return table


# Grid sweeps rebuild the same table for every p, so tables are cached per
# (n, prior). With one LRU of 4096, a benchmark risk-large-n pass kept all
# 60 tables it sums (n up to 3000, 80,368 estimates) with their log rows,
# then whole lists of float objects, twice the floats of the estimates,
# and its peak RSS rose from 24.5 to 32.6 MB; so only tables of at most
# _SMALL_TABLE estimates go to that LRU, and 8 longer ones are kept. A
# long table's log rows cost 8 bytes an entry, computed or not, and are
# computed only where its sums read them.
_SMALL_TABLE = 256
_build_table = lru_cache(maxsize=4096)(_estimate_table)
_build_large_table = lru_cache(maxsize=8)(_estimate_table)
