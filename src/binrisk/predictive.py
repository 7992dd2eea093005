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
The masses read log C(l, y) one y at a time from binom's row for l, which
at l above 63 computes only the entries read.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from functools import lru_cache

from .binom import BinomialSetup, PriorSpec, _Table, _check_count, _check_trials, _log_binom_coeffs
from .incbeta import _log_beta_measure


@lru_cache(maxsize=2048, typed=True)
def _log_measure(alpha: float, beta: float, lo: float, hi: float) -> float:
    return _log_beta_measure(alpha, beta, lo, hi)


def _masses(ys: Iterable[int], x: int, setup: BinomialSetup, prior: PriorSpec) -> Iterator[float]:
    """Predictive masses at each y of ys given X = x, over one denominator
    read first, yielded one by one so that a caller can stop early. x and
    y are taken as checked. log C(l, y) is read per y, so a caller that
    stops early computes only the entries of a long row it read (the
    Poisson report's row at l = 1e4 fills about 20 of 10,001)."""
    n, l, a, b = setup.n, setup.l, prior.a, prior.b
    lo, hi = prior.support
    log_den = _log_measure(x + a, n - x + b, lo, hi)
    log_coeffs = _log_binom_coeffs(l)
    for y in ys:
        k = x + y
        yield math.exp(log_coeffs[y] + _log_measure(k + a, n + l - k + b, lo, hi) - log_den)


def bayes_predictive(y: int, x: int, setup: BinomialSetup, prior: PriorSpec) -> float:
    """Posterior expectation of Bin(y | l, p) given X = x."""
    _check_count("y", y, 0, setup.l)
    _check_count("x", x, 0, setup.n)
    return next(_masses((y,), x, setup, prior))


def plug_in_density(y: int, l: int, d: float) -> float:
    """Bin(y | l, d) at a point estimate d of p.

    The one term is computed as binom._exp_terms computes the pmf window's,
    so it equals the window's term bit for bit; outside the exact window
    its exponent lies within 4e-9 of an lgamma form under -746.2, so exp
    gives the window's 0.0. No window is built: every estimate d is a new
    p, which only this term reads.
    """
    if not 0.0 < d < 1.0:
        raise ValueError(f"plug-in estimate d must be in (0, 1), got {d}")
    _check_trials("l", l)
    _check_count("y", y, 0, l)
    k, m = float(y), float(l)
    return math.exp(_log_binom_coeffs(l)[y] + k * math.log(d) + (m - k) * math.log1p(-d))


class PredictiveTable(_Table):
    """Predictive mass over y = 0..l for one observed count x."""

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
        return cls(setup=setup, prior=prior, x=x, density=density)

    def __getitem__(self, y: int) -> float:
        return self.density[y]


def bayes_predictive_tables(setup: BinomialSetup, prior: PriorSpec) -> list[PredictiveTable]:
    """Bayesian predictive tables for x = 0..n, each built and validated
    before any measure that only the next one needs."""
    return [PredictiveTable.build(setup, prior, x) for x in range(setup.n + 1)]
