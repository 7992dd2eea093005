"""Posterior-mean estimators under untruncated and truncated beta priors.

The truncated means are never computed by raw quadrature: the upper
truncation goes through the correction 1 / {(n+a+b) I(X+a, n+a+b, p_bar)}
and the interval truncation through A(X) = bracket / I_two_sided, both
of which are incomplete-beta evaluations in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .binom import BinomialSetup, PriorSpec, _check_count, _check_shape
from .incbeta import (
    bracket_term,
    eval_I_two_sided,
    log_eval_I,
)


def posterior_mean_unrestricted(x: int, n: int, a: float, b: float) -> float:
    """(x + a) / (n + a + b), the Beta(x+a, n-x+b) posterior mean."""
    _check_count("n", n)
    _check_count("x", x, 0, n)
    _check_shape(a=a, b=b)
    return (x + a) / (n + a + b)


def posterior_mean_upper_truncated(
    x: int, n: int, a: float, b: float, p_bar: float
) -> float:
    """Posterior mean under the prior truncated to (0, p_bar]."""
    mean = posterior_mean_unrestricted(x, n, a, b)
    correction = math.exp(-log_eval_I(x + a, n + a + b, p_bar)) / (n + a + b)
    return mean - correction


def A_term(
    x: int, n: int, a: float, b: float, p_lo: float, p_bar: float
) -> float:
    """The interval-truncation correction A(X); zero exactly at the
    symmetry point and of either sign in general."""
    _check_count("n", n)
    _check_count("x", x, 0, n)
    _check_shape(a=a, b=b)
    numer = bracket_term(x + a, n + a + b, p_lo, p_bar)
    if numer == 0.0:
        return 0.0
    return numer / eval_I_two_sided(x + a, n + a + b, p_lo, p_bar)


def posterior_mean_two_sided(
    x: int, n: int, a: float, b: float, p_lo: float, p_bar: float
) -> float:
    """Posterior mean under the prior truncated to [p_lo, p_bar]."""
    return posterior_mean_unrestricted(x, n, a, b) - A_term(
        x, n, a, b, p_lo, p_bar
    ) / (n + a + b)


def posterior_mean(x: int, prior: PriorSpec, n: int) -> float:
    """Dispatch on the prior's restriction mode."""
    if prior.restriction == "none":
        return posterior_mean_unrestricted(x, n, prior.a, prior.b)
    if prior.restriction == "upper":
        return posterior_mean_upper_truncated(x, n, prior.a, prior.b, prior.p_bar)
    return posterior_mean_two_sided(
        x, n, prior.a, prior.b, prior.p_lo, prior.p_bar
    )


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


@lru_cache(maxsize=4096)
def _build_table(setup: BinomialSetup, prior: PriorSpec) -> EstimateTable:
    # grid sweeps rebuild the same table for every p; cache per config
    values = tuple(posterior_mean(x, prior, setup.n) for x in range(setup.n + 1))
    return EstimateTable(setup=setup, prior=prior, values=values)
