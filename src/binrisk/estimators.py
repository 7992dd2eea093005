"""Posterior-mean estimators under untruncated and truncated beta priors.

Every estimate is (x+a)/(n+a+b) minus a correction c/(n+a+b): c is 0
without truncation, 1/I(X+a, n+a+b, p_bar) under an upper bound and
A(X) = bracket / I_two_sided on an interval, both incomplete-beta
evaluations in log space, never raw quadrature. The table over x = 0..n
is the primitive; posterior_mean reads one entry of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .binom import BinomialSetup, PriorSpec, _check_count
from .incbeta import (
    bracket_term,
    eval_I_two_sided,
    log_eval_I,
)


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
    """c(x) with s = n+a+b; A(x) is zero exactly at the symmetry point of
    an interval and of either sign in general."""
    if prior.restriction == "none":
        return 0.0
    if prior.restriction == "upper":
        return math.exp(-log_eval_I(x + prior.a, s, prior.p_bar))
    numer = bracket_term(x + prior.a, s, prior.p_lo, prior.p_bar)
    if numer == 0.0:
        return 0.0
    return numer / eval_I_two_sided(x + prior.a, s, prior.p_lo, prior.p_bar)


@lru_cache(maxsize=4096)
def _build_table(setup: BinomialSetup, prior: PriorSpec) -> EstimateTable:
    # grid sweeps rebuild the same table for every p; cache per config
    s = setup.n + prior.a + prior.b
    values = tuple(
        (x + prior.a) / s - _correction(x, s, prior) / s
        for x in range(setup.n + 1)
    )
    return EstimateTable(setup=setup, prior=prior, values=values)
