"""Binomial model primitives: pmf and entropy loss.

Also holds the two descriptor dataclasses shared across the package:
the trial-count setup and the (possibly truncated) beta prior, and the
count and shape checks that guard every entry point taking raw values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy.special import gammaln


def _check_count(name: str, value: int, lo: int = 1, hi: int | None = None) -> None:
    """value must be an integer >= lo, and <= hi when hi is given."""
    if not isinstance(value, int) or value < lo or (hi is not None and value > hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {span}, got {value}")


def _check_shape(*shape: float) -> None:
    """Beta exponents and Poisson parameters must lie in (0, inf); NaN fails too."""
    if not all(0.0 < v < math.inf for v in shape):
        raise ValueError(f"shape parameters must be finite and positive, got {shape}")


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
        _check_shape(self.a, self.b)
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
    lg = gammaln(n + 1)
    return tuple(
        float(lg - gammaln(x + 1) - gammaln(n - x + 1)) for x in range(n + 1)
    )


def log_binom_coeff(x: int, n: int) -> float:
    """log C(n, x), cached per n since risk sums revisit every x."""
    return _log_binom_coeffs(n)[x]


def binom_pmf(x: int, n: int, p: float) -> float:
    """C(n,x) p^x (1-p)^(n-x), in log space, with 0^0 := 1 at the endpoints."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    if not isinstance(x, int) or x < 0 or x > n:
        raise ValueError(f"x must be an integer in [0, {n}], got {x}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p == 0.0:
        return 1.0 if x == 0 else 0.0
    if p == 1.0:
        return 1.0 if x == n else 0.0
    return math.exp(
        log_binom_coeff(x, n) + x * math.log(p) + (n - x) * math.log1p(-p)
    )


def _expectation(row: list[float], n: int, p: float) -> float:
    """E_p[row[X]] for X ~ Bin(n, p), correctly rounded."""
    return math.fsum(binom_pmf(x, n, p) * row[x] for x in range(n + 1))


def entropy_loss(d: float, p: float) -> float:
    """p log(p/d) + (1-p) log((1-p)/(1-d)); p may sit at 0 or 1."""
    if not 0.0 < d < 1.0:
        raise ValueError(f"estimate d must be in (0, 1), got {d}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    total = 0.0
    if p > 0.0:
        total += p * (math.log(p) - math.log(d))
    if p < 1.0:
        total += (1.0 - p) * (math.log1p(-p) - math.log1p(-d))
    # tiny negative values are pure rounding: the loss is a KL divergence
    return max(total, 0.0)

