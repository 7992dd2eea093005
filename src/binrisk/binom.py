"""Binomial model primitives: pmf rows and entropy-loss rows.

Also holds the two descriptor dataclasses shared across the package:
the trial-count setup and the (possibly truncated) beta prior, and the
count and shape checks that guard every entry point taking raw values.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from scipy.special import gammaln


def _check_count(name: str, value: int, lo: int = 1, hi: int | None = None) -> None:
    """value must be an integer >= lo, and <= hi when hi is given."""
    if not isinstance(value, int) or value < lo or (hi is not None and value > hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {span}, got {value}")


def _check_shape(**shape: float) -> None:
    """Beta exponents and Poisson parameters must lie in (0, inf); NaN fails too."""
    for name, value in shape.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class BinomialSetup:
    """Current and future trial counts."""

    n: int
    l: int = 1

    def __post_init__(self) -> None:
        _check_count("n", self.n)
        _check_count("l", self.l)


@dataclass(frozen=True)
class PriorSpec:
    """Beta prior p^(a-1) (1-p)^(b-1), optionally truncated.

    restriction modes:
      - p_lo is None, p_bar is None : untruncated, support (0, 1)
      - p_lo is None, p_bar set     : upper truncation, support (0, p_bar]
      - both set                    : interval truncation, support [p_lo, p_bar]
    """

    a: float
    b: float
    p_bar: float | None = None
    p_lo: float | None = None

    def __post_init__(self) -> None:
        _check_shape(a=self.a, b=self.b)
        if self.p_lo is not None and self.p_bar is None:
            raise ValueError("a lower bound requires an upper bound")
        if self.p_bar is not None and not 0.0 < self.p_bar < 1.0:
            raise ValueError(f"p_bar must be in (0, 1), got {self.p_bar}")
        if self.p_lo is not None and not 0.0 < self.p_lo < self.p_bar:
            raise ValueError(
                f"need 0 < p_lo < p_bar, got p_lo={self.p_lo}, p_bar={self.p_bar}"
            )

    @property
    def restriction(self) -> str:
        if self.p_bar is None:
            return "none"
        if self.p_lo is None:
            return "upper"
        return "interval"

    @property
    def support(self) -> tuple[float, float]:
        lo = self.p_lo if self.p_lo is not None else 0.0
        hi = self.p_bar if self.p_bar is not None else 1.0
        return lo, hi


@lru_cache(maxsize=256)
def _log_binom_coeffs(n: int) -> tuple[float, ...]:
    """log C(n, x) for x = 0..n, cached per n since risk sums revisit every x."""
    lg = gammaln(n + 1)
    return tuple(
        float(lg - gammaln(x + 1) - gammaln(n - x + 1)) for x in range(n + 1)
    )


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")


def pmf_row(n: int, p: float) -> list[float]:
    """C(n,x) p^x (1-p)^(n-x) for x = 0..n, in log space, with 0^0 := 1."""
    _check_count("n", n)
    _check_p(p)
    if p in (0.0, 1.0):  # all mass at x = n p
        return [1.0 if x == n * p else 0.0 for x in range(n + 1)]
    log_p, log_q = math.log(p), math.log1p(-p)
    return [
        math.exp(c + x * log_p + (n - x) * log_q)
        for x, c in enumerate(_log_binom_coeffs(n))
    ]


def _expectation(weights: Sequence[float], values: Sequence[float]) -> float:
    """sum_x weights[x] values[x], correctly rounded."""
    return math.fsum(w * v for w, v in zip(weights, values, strict=True))


def entropy_losses(ds: Sequence[float], p: float) -> list[float]:
    """p log(p/d) + (1-p) log((1-p)/(1-d)) for each d; p may sit at 0 or 1."""
    _check_p(p)
    for d in ds:
        if not 0.0 < d < 1.0:
            raise ValueError(f"estimate d must be in (0, 1), got {d}")
    # 0 log 0 := 0, so an endpoint p drops its term
    log_p = math.log(p) if p > 0.0 else 0.0
    log_q = math.log1p(-p) if p < 1.0 else 0.0
    # tiny negative values are pure rounding: the loss is a KL divergence
    return [
        max(p * (log_p - math.log(d)) + (1.0 - p) * (log_q - math.log1p(-d)), 0.0)
        for d in ds
    ]
