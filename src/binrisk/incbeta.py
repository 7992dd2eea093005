"""Incomplete beta kernel and the integral family built on it.

Everything downstream (truncated posterior means, predictive densities,
risk bounds) reduces to integrals of the form

    I(alpha, gamma, p_bar)        = int_0^1 t^(alpha-1) / {1 - p_bar (1-t)}^gamma dt
    I(alpha, gamma, p_lo, p_bar)  = int_rho^1 t^(alpha-1) / {1 - p_bar (1-t)}^gamma dt

with rho = r_lo / r_bar the ratio of odds, plus the bracket term
[t^alpha / {1 - p_bar (1-t)}^gamma]_rho^1 (_bracket).  After the
substitution p = r_bar * t / (1 + r_bar * t), I is the beta measure
M(alpha, gamma - alpha) of [p_lo, p_bar] ([0, p_bar] without p_lo) over
p_bar^alpha (1 - p_bar)^(gamma - alpha), so _log_I computes both.
_log_beta_measure is the only caller of the kernel, log_inc_beta_lower,
the log of the unnormalized incomplete beta B(x; a, b) = int_0^x t^(a-1)
(1-t)^(b-1) dt, computed by a continued fraction (modified Lentz) in log
space, so that large exponents never underflow. The fraction runs on the
lower tail up to the point _lower_side sets, above on B(1-x; b, a), taken
from B(a, b); a tail that rounds up to B(a, b) raises ArithmeticError.
Where the lower fraction runs on [0, p_bar], the upper I is that fraction
over alpha, which _log_I reads without the kernel. The row
1/I(x+a, s+1, p_bar), x = 0..n+1 (_inverse_I_row), takes one I and one
backward recurrence, which writes the row packed, as array('d'), and forms
the upper estimates from it in the same pass.

The kernel is the one public function and checks its arguments. The four
cores above check nothing: PriorSpec and BinomialSetup have checked what
they read. The p_bar ceiling (_check_p_bar) is checked once per table, by
estimators._estimate_table, and by dominance.max_risk_diff_symmetric_n1,
which reads a correction without a table; a predictive mass needs none.
"""

from __future__ import annotations

import math
from array import array

from .special import log_beta

_CF_TOL = 1e-14
_CF_MAX_ITER = 500
_FPMIN = 1e-300

# I diverges as p_bar -> 1; above this, _check_p_bar fails loudly
_P_BAR_CEIL = 1.0 - 1e-12


class SingularBoundError(OverflowError):
    """Raised when p_bar is too close to 1 for I to be representable."""


class BracketOverflowError(ArithmeticError):
    """Raised when the bracket term of an interval prior is not representable."""


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz iteration.

    Returns the CF factor such that
    B(x; a, b) = x^a (1-x)^b / a * cf.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_TOL:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge "
        f"(a={a}, b={b}, x={x})"
    )


def _lower_side(alpha: float, beta: float, x: float) -> bool:
    """Whether the lower fraction runs at x: up to (alpha+1)/(alpha+beta+2)
    (Numerical Recipes, 2nd ed. 6.4), or to the mean where that is larger."""
    return x <= max(alpha / (alpha + beta), (alpha + 1.0) / (alpha + beta + 2.0))


def log_inc_beta_lower(alpha: float, beta: float, x: float) -> float:
    """log of int_0^x t^(alpha-1) (1-t)^(beta-1) dt (unnormalized); -inf at x = 0."""
    # written so that a NaN exponent or x fails here, not in the fraction
    if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
        raise ValueError(f"alpha and beta must be finite and positive, got ({alpha}, {beta})")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return -math.inf
    if x == 1.0:
        return log_beta(alpha, beta)
    if _lower_side(alpha, beta, x):
        cf = _betacf(alpha, beta, x)
        return alpha * math.log(x) + beta * math.log1p(-x) - math.log(alpha) + math.log(cf)
    # upper tail: B(x; a, b) = B(a, b) - B(y; b, a), all of B if y rounds to 1
    y = 1.0 - x
    log_complete = log_beta(alpha, beta)
    diff = 0.0 if y == 1.0 else (
        beta * math.log(y) + alpha * math.log1p(-y) - math.log(beta)
        + math.log(_betacf(beta, alpha, y)) - log_complete
    )
    if diff >= 0.0:
        raise ArithmeticError(
            f"incomplete beta lost to cancellation at x={x} (alpha={alpha}, beta={beta})"
        )
    return log_complete + math.log(-math.expm1(diff))


def _log_beta_measure(alpha: float, beta: float, lo: float, hi: float) -> float:
    """log of int_lo^hi t^(alpha-1) (1-t)^(beta-1) dt for 0 <= lo < hi <= 1."""
    log_upper = log_inc_beta_lower(alpha, beta, hi)
    if lo == 0.0:
        return log_upper
    diff = log_inc_beta_lower(alpha, beta, lo) - log_upper
    if diff >= 0.0:
        raise ArithmeticError(
            f"beta measure lost to cancellation on [{lo}, {hi}] "
            f"(alpha={alpha}, beta={beta})"
        )
    return log_upper + math.log(-math.expm1(diff))


def _check_p_bar(p_bar: float) -> None:
    """The ceiling on a p_bar that PriorSpec has put in (0, 1)."""
    if p_bar > _P_BAR_CEIL:
        raise SingularBoundError(f"p_bar={p_bar} is within 1e-12 of 1; I diverges")


def _log_I(alpha: float, gamma: float, p_bar: float, p_lo: float | None = None) -> float:
    """log I(alpha, gamma, p_bar), or log I(alpha, gamma, p_lo, p_bar) when
    p_lo is given, for gamma > alpha > 0."""
    # I = M(alpha, beta) on [p_lo, p_bar] / {p_bar^alpha (1-p_bar)^beta}, beta = gamma
    # - alpha, with no gamma log(1-p_bar) terms to cancel; on the lower fraction's side
    # M = p_bar^alpha (1-p_bar)^beta cf / alpha (DLMF 8.17.22), so I = cf / alpha
    beta = gamma - alpha
    if p_lo is None and _lower_side(alpha, beta, p_bar):
        return math.log(_betacf(alpha, beta, p_bar)) - math.log(alpha)
    log_m = _log_beta_measure(alpha, beta, p_lo or 0.0, p_bar)
    return log_m - alpha * math.log(p_bar) - beta * math.log1p(-p_bar)


def _inverse_I_row(a: float, s: float, p_bar: float, n: int) -> tuple[array, list[float]]:
    """The upper row and estimates in one backward pass: c = 1/I(x+a,
    s+1, p_bar) for x = 0..n+1, packed, and d(x) = (x+a)/(s + c(x+1)/p_bar)
    for x = 0..n (s > 0). One I at x = n+1, then the contiguous relation
    (DLMF 8.17(iv)) alpha (1-p_bar) I(alpha) = 1 + (gamma-alpha-1) p_bar
    I(alpha+1), gamma = s+1, run backward on c, each c written to the row
    and read for d(x) as it is taken. Its terms are positive, and it
    shrinks the relative error carried from c(x+1) by (gamma-alpha-1) p_bar
    / {c(x+1) + (gamma-alpha-1) p_bar} <= 1; a c that underflows to 0.0
    stays there. s is passed, not gamma, since (s+1) - 1 need not be s."""
    gamma = s + 1.0
    c = math.exp(-_log_I(n + 1 + a, gamma, p_bar))
    row = array("d", [c]) * (n + 2)
    values = [0.0] * (n + 1)
    q = 1.0 - p_bar
    for x in range(n, -1, -1):
        alpha = x + a
        values[x] = alpha / (s + c / p_bar)
        c = row[x] = alpha * q * c / (c + (gamma - alpha - 1.0) * p_bar)
    return row, values


def _bracket(alpha: float, gamma: float, p_lo: float, p_bar: float) -> float:
    """[t^alpha / {1 - p_bar (1-t)}^gamma]_rho^1; sign can be anything.

    Simplifies to 1 - (p_lo/p_bar)^alpha {(1-p_lo)/(1-p_bar)}^(gamma-alpha),
    evaluated as 1 - exp(...) with a clean zero when the two endpoint
    values agree to within 1e-14 relatively.
    """
    log_lower = alpha * (math.log(p_lo) - math.log(p_bar)) + (gamma - alpha) * (
        math.log1p(-p_lo) - math.log1p(-p_bar)
    )
    if abs(log_lower) < 1e-14:
        return 0.0
    try:
        return -math.expm1(log_lower)
    except OverflowError as exc:
        raise BracketOverflowError(
            f"bracket term 1 - exp({log_lower}) overflows double precision "
            f"(alpha={alpha}, gamma={gamma}, interval [{p_lo}, {p_bar}])"
        ) from exc

