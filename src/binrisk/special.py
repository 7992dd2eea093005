"""The log of the complete beta function, from the standard library alone.

lgamma(a) + lgamma(b) - lgamma(a+b) loses about eps * lgamma(a+b)
absolutely, 1e-11 at a + b near 1e4, because its three terms are large and
nearly cancel. With

    lgamma(x) = (x - 1/2) log x - x + log(2 pi)/2 + delta(x),

the large parts cancel by hand (the method of DiDonato & Morris, ACM TOMS
Algorithm 708, 1992, betaln and bcorr), and, with s = a + b,

    log B(a, b) = log(2 pi)/2 - log(s)/2 + (a - 1/2) log(a/s)
                  + (b - 1/2) log(b/s) + delta(a) + delta(b) - delta(s),

where log(a/s) = log1p(-b/s). The smaller argument's ratio goes to log, the
larger one's to log1p, so that neither loses digits to 1 - (ratio).
"""

from __future__ import annotations

import math

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# from x = 10 on, the Stirling series B_2k / (2k (2k-1) x^(2k-1)), k = 1..8,
# leaves a remainder under 2e-18; below it delta comes from math.lgamma
_SERIES_FROM = 10.0
_S1, _S2, _S3, _S4 = 1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0
_S5, _S6, _S7, _S8 = 1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0


def _stirling_error(x: float) -> float:
    """delta(x) = lgamma(x) - [(x - 1/2) log x - x + log(2 pi)/2], x > 0."""
    if x < _SERIES_FROM:
        return math.lgamma(x) - ((x - 0.5) * math.log(x) - x + _HALF_LOG_2PI)
    r2 = 1.0 / (x * x)
    return (
        _S1 + r2 * (_S2 + r2 * (_S3 + r2 * (_S4 + r2 * (_S5 + r2 * (_S6 + r2 * (_S7 + r2 * _S8))))))
    ) / x


def log_beta(a: float, b: float) -> float:
    """log B(a, b) = log int_0^1 t^(a-1) (1-t)^(b-1) dt for a, b > 0."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"a and b must be finite and positive, got ({a}, {b})")
    s = a + b
    return _log_beta_with(
        a, b, math.log(s), _stirling_error(a), _stirling_error(b), _stirling_error(s)
    )


def _log_beta_with(
    a: float, b: float, log_s: float, delta_a: float, delta_b: float, delta_s: float
) -> float:
    """log B(a, b) from log_s = log(a + b), delta(a), delta(b) and
    delta(a + b), unchecked; a row of log B over one a + b takes log_s once."""
    small, large = (a, b) if a <= b else (b, a)
    s = a + b
    ratio = small / s
    return (
        _HALF_LOG_2PI
        - 0.5 * log_s
        + (small - 0.5) * math.log(ratio)
        + (large - 0.5) * math.log1p(-ratio)
        + delta_a
        + delta_b
        - delta_s
    )
