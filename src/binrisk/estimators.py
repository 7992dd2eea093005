"""Posterior-mean estimators under untruncated and truncated beta priors.

With s = n+a+b every estimate is read from the untruncated (x+a)/s, never
from raw quadrature: under an upper bound as (x+a)/(s + c(x+1)/p_bar) with
c = 1/I(x+a, s+1, p_bar), one row of one kernel call (_inverse_I_row); on an
interval as (x+a)/s minus A(x)/s, A = bracket / I_two_sided. The table over
x = 0..n is the primitive; posterior_mean reads one entry of it. A table
carries the p-free rows log d and log(1-d) and the ceiling of its losses,
which every risk sum at a p in (0, 1) reads, set up on the first sum: a
table of more than 64 estimates keeps both in one _LazyRow, packed, with
NaN where no sum has read them, computes them only over the spans its
sums read, and takes the ceiling from its smallest and largest estimate. A
restricted table also carries, set up on the first risk difference, the
difference pair: the p-free rows alpha = log(d_u/d_t) and beta =
log((1-d_u)/(1-d_t)) against the untruncated d_u = (x+a)/s, so that the
loss difference at p is p alpha + (1-p) beta, kept like the log rows. A
table from build keeps the upper row c(0..n+1), packed, as _c_row (None if
not upper), which the J rows and the small-p_bar condition read, and the
entries of rho = d_u/d_t - 1, from which the pair is read with no
untruncated table built, as _rhos(start, stop) (None if unrestricted).
An estimate the builder computes outside the support raises
OutOfSupportError, a numerical failure, where a table constructed with
such values raises ValueError. The caches below and
risk's connection tables decide how long a table is kept: tables of at
most 64 estimates by the thousand, longer ones for one configuration.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache, partial

from .binom import _WHOLE_ROW, BinomialSetup, PriorSpec, _check_count, _LazyRow, _Table
from .incbeta import _bracket, _check_p_bar, _inverse_I_row, _log_I


class OutOfSupportError(ArithmeticError):
    """Raised when the builder computes an estimate outside the prior's support."""


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
        cache = _build_table if setup.n + 1 <= _WHOLE_ROW else _build_large_table
        return cache(setup, prior)

    def __getitem__(self, x: int) -> float:
        return self.values[x]

    @cached_property
    def _logs(self) -> tuple:
        """(log d, log(1-d), ceiling, fill): the log rows over the estimates,
        the ceiling max(-log(min d), -log1p(-max d)) of their losses, and
        None, or for a table of more than _WHOLE_ROW estimates the two rows
        of one _LazyRow and its span as fill(start, stop), start < stop,
        which computes both over x = start..stop-1 before a sum reads them
        there (the rows are then packed, array('d'), and hold NaN where no
        sum has read them), so the risk sums compute only the logs their
        windows read. They do not depend on p, so the first risk sum sets
        them up for every later one. Not a field, so ==, hash and repr
        ignore them. log and log1p are monotone, so the ceiling is -min log
        d or -min log(1-d) over the whole rows, filled or not; log p and
        log(1-p) round to at most 0.0 and IEEE rounding is monotone, so at
        any p in (0, 1) no loss that risk._risk_sums computes from these
        rows exceeds the ceiling by more than a few ulps."""
        values = self.values
        log_ds, log_es = partial(_log_ds, values), partial(_log_es, values)
        return _rows(len(values), log_ds, log_es, _ceiling(values))

    @cached_property
    def _pair(self) -> tuple:
        """(alpha, beta, ceiling, fill), as _logs: the difference pair of
        this restricted table against d_u = (x+a)/s, s = n+a+b, read from
        rho = d_u/d - 1 (_rhos): alpha = log1p(rho) and, as 1 - d_u =
        (n-x+b)/s, beta = -log1p(rho s d/(n-x+b)), each exact to a few ulps,
        as neither subtracts two estimates. Both are differences of two logs
        of the same sign, so |alpha| + |beta| is at most twice the larger of
        the two loss ceilings, the ceiling kept here; d_u rises with x, so
        its ceiling is read from a/s and (n+a)/s."""
        (a, b, _, _), values, n = self.prior, self.values, self.setup.n
        s = n + a + b
        ceiling = 2.0 * max(_ceiling((a / s, (n + a) / s)), _ceiling(values))
        alphas, betas = partial(_alphas, self._rhos), partial(_betas, self._rhos, n, b, s, values)
        return _rows(len(values), alphas, betas, ceiling)


def _ceiling(values: tuple[float, ...]) -> float:
    """The loss ceiling max(-log(min d), -log1p(-max d)) of the estimates."""
    return max(-math.log(min(values)), -math.log1p(-max(values)))


def _rows(size: int, first, second, ceiling: float) -> tuple:
    """(first row, second row, ceiling, fill) over x = 0..size-1 from the
    entries functions first and second: whole lists and fill None up to
    _WHOLE_ROW entries, else the rows of one _LazyRow and its span."""
    if size <= _WHOLE_ROW:
        return first(0, size), second(0, size), ceiling, None
    rows = _LazyRow(size, first, second)
    return *rows.rows, ceiling, rows.span


# The entries of the two log rows over x = start..stop-1
def _log_ds(values: tuple[float, ...], start: int, stop: int) -> list[float]:
    return [math.log(d) for d in values[start:stop]]


def _log_es(values: tuple[float, ...], start: int, stop: int) -> list[float]:
    return [math.log1p(-d) for d in values[start:stop]]


# Entries over x = start..stop-1: rho from c or from A, then alpha and beta
def _upper_rhos(c_row, p_bar: float, s: float, start: int, stop: int) -> list[float]:
    return [c / p_bar / s for c in c_row[start + 1 : stop + 1]]


def _interval_rhos(corrections, s: float, ds, start: int, stop: int) -> list[float]:
    return [A / (s * d) for A, d in zip(corrections[start:stop], ds[start:stop])]


def _alphas(rhos, start: int, stop: int) -> list[float]:
    return [math.log1p(rho) for rho in rhos(start, stop)]


def _betas(rhos, n: int, b: float, s: float, ds, start: int, stop: int) -> list[float]:
    entries = zip(range(start, stop), rhos(start, stop), ds[start:stop])
    return [-math.log1p(rho * (s * d) / (n - x + b)) for x, rho, d in entries]


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
    c_row = rhos = None
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
        c_row, values = _inverse_I_row(a, s, prior.p_bar, n)
        rhos = partial(_upper_rhos, c_row, prior.p_bar, s)
    else:
        corrections = tuple([_correction(x, s, prior) for x in range(n + 1)])
        values = tuple([(x + a) / s - A / s for x, A in enumerate(corrections)])
        rhos = partial(_interval_rhos, corrections, s, values)
    try:  # tuple(values) is values itself when values is a tuple
        table = EstimateTable(setup=setup, prior=prior, values=tuple(values))
    except ValueError as exc:  # every input was valid: the numerics failed
        raise OutOfSupportError(str(exc)) from None
    table.__dict__.update(_c_row=c_row, _rhos=rhos)  # p-free, not fields, like _logs
    return table


# Grid sweeps rebuild the same table for every p, so tables are cached per
# (n, prior), split where their rows are (_WHOLE_ROW): the sweeps that
# revisit tables by the thousand build only tables of at most 64 estimates,
# whose rows are whole lists, and those go to one LRU of 4096. Longer ones
# are kept for one configuration, the untruncated and restricted pair that
# a grid, a CLI command or a scalar risk difference builds (a connection
# sum keeps its own l, in risk): one LRU of 4096 for every table raised a
# benchmark risk-large-n pass's peak RSS from 24.5 to 32.6 MB.
_build_table = lru_cache(maxsize=4096)(_estimate_table)
_build_large_table = lru_cache(maxsize=2)(_estimate_table)
