"""Bayesian predictive densities and plug-in densities for the future count.

The predictive mass at y given X = x is C(l,y) M(x+y+a, n+l-x-y+b) /
M(x+a, n-x+b), a ratio of beta measures over the prior's support, which
truncation turns into incomplete-beta differences, handled in log space.
A measure depends only on the prior, on k = x + y (x in a denominator)
and on a total, n + l or n, so all configurations share one memo of
measures: 2,048 entries of about 195 B (tracemalloc), 0.40 MB when full,
enough for all 1,419 of the predictive acceptance sweep, which computed
15,120 when each configuration took its own. The measure is pure, keys are
typed (an int is not its equal float) and errors are not stored, so no
hit or eviction changes a value or the first error of a failing
configuration: each table is validated before the next one's measures.
The masses read log C(l, y) one y at a time: from binom's whole row for l
up to 63, and above that each entry alone, by the row's own expression,
so that a caller that stops early computes only the entries it read.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from functools import lru_cache

from .binom import _WHOLE_ROW, BinomialSetup, PriorSpec, _Table, _check_count, _check_trials
from .binom import _coeff_entries, _log_binom_coeffs, _saddle_log_pmf
from .incbeta import _log_beta_measure


@lru_cache(maxsize=2048, typed=True)
def _log_measure(alpha: float, beta: float, lo: float, hi: float) -> float:
    return _log_beta_measure(alpha, beta, lo, hi)


def _masses(ys: Iterable[int], x: int, setup: BinomialSetup, prior: PriorSpec) -> Iterator[float]:
    """Predictive masses at each y of ys given X = x, over one denominator
    read first, yielded one by one so that a caller can stop early. x and
    y are taken as checked. log C(l, y) is read per y, so a caller that
    stops early computes only the entries it read (the Poisson report at
    l = 1e4 computes 8 of 10,001)."""
    n, l, a, b = setup.n, setup.l, prior.a, prior.b
    lo, hi = prior.support
    log_den = _log_measure(x + a, n - x + b, lo, hi)
    row = _log_binom_coeffs(l) if l + 1 <= _WHOLE_ROW else None
    for y in ys:
        k, log_coeff = x + y, row[y] if row else _coeff_entries(l, y, y + 1)[0]
        yield math.exp(log_coeff + _log_measure(k + a, n + l - k + b, lo, hi) - log_den)


def bayes_predictive(y: int, x: int, setup: BinomialSetup, prior: PriorSpec) -> float:
    """Posterior expectation of Bin(y | l, p) given X = x."""
    _check_count("y", y, 0, setup.l)
    _check_count("x", x, 0, setup.n)
    return next(_masses((y,), x, setup, prior))


def plug_in_density(y: int, l: int, d: float) -> float:
    """Bin(y | l, d) at a point estimate d of p.

    Up to l = 63 the one term is computed as binom._exp_terms computes the
    pmf window's, so it equals the window's term bit for bit; above that
    it is exp of Loader's form (binom._saddle_log_pmf), whose log holds to
    a few ulps of its size. The exact window ends where its walked term
    rounds to 0.0, so outside it exp gives the window's 0.0 as well, but
    where the pmf lies within the two forms' errors (under 1e-12 relative)
    of 2^-1075, the rounding threshold. No window is built: every estimate
    d is a new p, which only this term reads.
    """
    if not 0.0 < d < 1.0:
        raise ValueError(f"plug-in estimate d must be in (0, 1), got {d}")
    _check_trials("l", l)
    _check_count("y", y, 0, l)
    log_d, log_e = math.log(d), math.log1p(-d)
    if l + 1 > _WHOLE_ROW:
        return math.exp(_saddle_log_pmf(l, d, log_d, log_e, y))
    k, m = float(y), float(l)
    return math.exp(_log_binom_coeffs(l)[y] + k * log_d + (m - k) * log_e)


class PredictiveTable(_Table):
    """Predictive mass over y = 0..l for one observed count x. Masses that
    build computes and that fail the table's check raise ArithmeticError, a
    numerical failure, where a table constructed with them raises ValueError."""

    _fields = ("setup", "prior", "x", "density")

    def __init__(self, setup: BinomialSetup, prior: PriorSpec, x: int, density: tuple) -> None:
        if len(density) != setup.l + 1:
            raise ValueError("need one mass per y = 0..l")
        # written so that a NaN mass or sum fails them
        if not all(v > 0.0 for v in density):
            raise ValueError("predictive masses must be strictly positive")
        if not abs(math.fsum(density) - 1.0) <= 1e-12:
            raise ValueError(f"predictive density sums to {math.fsum(density)!r}, not 1")
        self.__dict__.update(setup=setup, prior=prior, x=x, density=density)

    @classmethod
    def build(cls, setup: BinomialSetup, prior: PriorSpec, x: int) -> PredictiveTable:
        _check_count("x", x, 0, setup.n)
        density = tuple([*_masses(range(setup.l + 1), x, setup, prior)])
        try:
            return cls(setup=setup, prior=prior, x=x, density=density)
        except ValueError as exc:  # every input was valid: the numerics failed
            raise ArithmeticError(str(exc)) from None

    def __getitem__(self, y: int) -> float:
        return self.density[y]


def bayes_predictive_tables(setup: BinomialSetup, prior: PriorSpec) -> list[PredictiveTable]:
    """Bayesian predictive tables for x = 0..n, each built and validated
    before any measure that only the next one needs."""
    return [PredictiveTable.build(setup, prior, x) for x in range(setup.n + 1)]
