"""Posterior-mean estimators under untruncated and truncated beta priors.

Every estimate is (x+a)/s minus a correction c(x)/s, s = n+a+b: c is 0
without truncation, 1/I(x+a, s, p_bar) under an upper bound and
A(x) = bracket / I_two_sided on an interval, never raw quadrature. The
upper row of c takes one kernel call (inverse_I_row), and its x < n
entries are read in a form that subtracts nothing. The table over
x = 0..n is the primitive; posterior_mean reads one entry of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .binom import BinomialSetup, PriorSpec, _check_count
from .incbeta import bracket_term, inverse_I_row, log_eval_I


def posterior_mean(x: int, prior: PriorSpec, n: int) -> float:
    """The Bayes estimate at X = x: one entry of the table for (n, prior)."""
    setup = BinomialSetup(n=n)
    _check_count("x", x, 0, n)
    return EstimateTable.build(setup, prior)[x]


@dataclass(frozen=True)
class EstimateTable:
    """Estimates for every observable count x = 0..n under one prior."""

    setup: BinomialSetup
    prior: PriorSpec
    values: tuple[float, ...]

    @classmethod
    def build(cls, setup: BinomialSetup, prior: PriorSpec) -> "EstimateTable":
        return _build_table(setup, prior)

    def __getitem__(self, x: int) -> float:
        return self.values[x]

    def __post_init__(self) -> None:
        if len(self.values) != self.setup.n + 1:
            raise ValueError("need one estimate per x = 0..n")
        lo, hi = self.prior.support
        for v in self.values:
            if not 0.0 < v < 1.0:
                raise ValueError(f"estimate {v} outside (0, 1)")
            if not lo <= v <= hi:
                raise ValueError(f"estimate {v} outside the restriction [{lo}, {hi}]")


def _correction(x: int, s: float, prior: PriorSpec) -> float:
    """The interval correction A(x) with s = n+a+b: zero exactly at the
    symmetry point of the interval and of either sign in general. I enters
    as exp(-log I), so an I beyond double range gives a correction that
    underflows towards 0.0 instead of raising."""
    numer = bracket_term(x + prior.a, s, prior.p_lo, prior.p_bar)
    if numer == 0.0:
        return 0.0
    return numer * math.exp(-log_eval_I(x + prior.a, s, prior.p_bar, prior.p_lo))


def _upper_estimates(n: int, a: float, b: float, p_bar: float) -> list[float]:
    """The upper-truncated estimates from c = 1/I(x+a, s, p_bar): for x < n
    the recurrence turns (x+a)/s - c(x)/s into (x+a)/s times
    p_bar (k + c') / (c' + k p_bar), k = n-x+b-1 and c' = c(x+1), which
    subtracts nothing and is exactly 1.0 where c' underflows to 0.0, as the
    correction form gives there; x = n keeps the correction form."""
    s = n + a + b
    c = inverse_I_row(a, s, p_bar, n)
    values = []
    for x in range(n):
        k, c1 = n - x - 1 + b, c[x + 1]
        values.append((x + a) / s * (p_bar * (k + c1) / (c1 + k * p_bar)))
    values.append((n + a) / s - c[n] / s)
    return values


@lru_cache(maxsize=4096)
def _build_table(setup: BinomialSetup, prior: PriorSpec) -> EstimateTable:
    # grid sweeps rebuild the same table for every p; cache per config
    n, a = setup.n, prior.a
    s = n + a + prior.b
    if prior.restriction == "none":
        values = [(x + a) / s for x in range(n + 1)]
    elif prior.restriction == "upper":
        values = _upper_estimates(n, a, prior.b, prior.p_bar)
    else:
        values = [(x + a) / s - _correction(x, s, prior) / s for x in range(n + 1)]
    return EstimateTable(setup=setup, prior=prior, values=tuple(values))
