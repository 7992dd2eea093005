"""Bayesian predictive densities and plug-in densities for the future count.

The predictive mass at y is C(l,y) times a ratio of beta measures over
the prior's support; truncated supports turn both integrals into
incomplete-beta differences, handled in log space.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .binom import BinomialSetup, PriorSpec, _check_count, _log_binom_coeffs, pmf_windows
from .incbeta import log_beta_measure


def _masses(ys: Iterable[int], x: int, setup: BinomialSetup, prior: PriorSpec) -> list[float]:
    """Predictive masses at each y of ys given X = x, over one denominator."""
    n, l, a, b = setup.n, setup.l, prior.a, prior.b
    _check_count("x", x, 0, n)
    lo, hi = prior.support
    log_den = log_beta_measure(x + a, n - x + b, lo, hi)
    log_coeffs = _log_binom_coeffs(l)
    return [
        math.exp(log_coeffs[y] + log_beta_measure(y + x + a, l - y + n - x + b, lo, hi) - log_den)
        for y in ys
    ]


def bayes_predictive(y: int, x: int, setup: BinomialSetup, prior: PriorSpec) -> float:
    """Posterior expectation of Bin(y | l, p) given X = x."""
    _check_count("y", y, 0, setup.l)
    return _masses((y,), x, setup, prior)[0]


def plug_in_density(y: int, l: int, d: float) -> float:
    """Bin(y | l, d) at a point estimate d of p."""
    if not 0.0 < d < 1.0:
        raise ValueError(f"plug-in estimate d must be in (0, 1), got {d}")
    _check_count("l", l)
    _check_count("y", y, 0, l)
    start, terms = pmf_windows(l, d).exact()
    return terms[y - start] if 0 <= y - start < len(terms) else 0.0


@dataclass(frozen=True)
class PredictiveTable:
    """Predictive mass over y = 0..l for one observed count x."""

    setup: BinomialSetup
    prior: PriorSpec
    x: int
    density: tuple[float, ...]

    @classmethod
    def build(cls, setup: BinomialSetup, prior: PriorSpec, x: int) -> "PredictiveTable":
        density = tuple(_masses(range(setup.l + 1), x, setup, prior))
        return cls(setup=setup, prior=prior, x=x, density=density)

    def __getitem__(self, y: int) -> float:
        return self.density[y]

    def __post_init__(self) -> None:
        if len(self.density) != self.setup.l + 1:
            raise ValueError("need one mass per y = 0..l")
        # written so that a NaN mass or sum fails them
        if not all(v > 0.0 for v in self.density):
            raise ValueError("predictive masses must be strictly positive")
        if not abs(math.fsum(self.density) - 1.0) <= 1e-12:
            raise ValueError(
                f"predictive density sums to {math.fsum(self.density)!r}, not 1"
            )
