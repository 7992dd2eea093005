"""Poisson analogues under gamma / truncated-gamma priors and the
binomial-to-Poisson convergence diagnostic.

The binomial procedures with prior proportional to p^(a-1) on (0, p_bar]
converge, as n -> infinity with n p fixed, to the Poisson procedures with
prior lambda^(a-1) on (0, lambda_bar]. The derivation is informal, so
this module checks convergence numerically (monotone error decay over a
K grid) rather than asserting a rate.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import count

from .binom import MAX_TRIALS, BinomialSetup, PriorSpec, _check_count, _check_shape, _record
from .estimators import EstimateTable
from .predictive import _masses
from .risk import point_risk
from .special import _HALF_LOG_2PI, _stirling_error

_GAMMA_TOL = 2.220446049250313e-16
_GAMMA_MAX_ITER = 100000
_FPMIN = 1e-300


class PoissonConfig(_record("PoissonConfig", "r s a lambda_bar")):
    """Exposures, prior exponent, and optional truncation of the rate."""

    __slots__ = ()

    def __new__(
        cls, r: float, s: float = 1.0, a: float = 1.0, lambda_bar: float | None = None
    ) -> PoissonConfig:
        _check_shape(r=r, s=s, a=a)
        if lambda_bar is not None:
            _check_shape(lambda_bar=lambda_bar)
        return super().__new__(cls, r, s, a, lambda_bar)


def _lower_gamma_logs(alpha: float, z: float) -> tuple[float, float]:
    """log gamma(alpha, z) = log int_0^z t^(alpha-1) e^-t dt and c = z^alpha
    e^-z / gamma(alpha, z), from one pass; c is formed as it is, not read
    back from a log, which would cost eps |log c| of it.

    Below z = alpha + 1 the series S = sum_k z^k / (alpha (alpha+1) ...
    (alpha+k)) = 1/c converges fast. Above, the continued fraction h of the
    upper tail z^alpha e^-z h does (modified Lentz; Numerical Recipes, 2nd
    ed., section 6.2). There, with Gamma(alpha) z^-alpha e^z = e^E in
    Stirling's form, c = e^-E / (1 - h e^-E) and gamma = Gamma(alpha) (1 -
    h e^-E), so no two logs of size lgamma(alpha) are subtracted."""
    if not 0.0 < z < math.inf:
        raise ArithmeticError(
            f"lower incomplete gamma underflows or overflows at (alpha={alpha}, z={z})"
        )
    if z < alpha + 1.0:
        term = total = 1.0 / alpha
        shape = alpha
        for _ in range(_GAMMA_MAX_ITER):
            shape += 1.0
            term *= z / shape
            total += term
            if term < total * _GAMMA_TOL:
                return alpha * math.log(z) - z + math.log(total), 1.0 / total
    else:
        # E = lgamma(alpha) - alpha log z + z with t = (alpha - z)/z; once t
        # rounds to -1, (1+t) log1p(t) is 0 * -inf and E is z to an ulp
        t = (alpha - z) / z
        log_e = z if t == -1.0 else (
            z * ((1.0 + t) * math.log1p(t) - t)
            + _HALF_LOG_2PI - 0.5 * math.log(alpha) + _stirling_error(alpha)
        )
        scale = math.exp(-log_e)
        if scale == 0.0:  # h e^-E is 0.0 for any h, so the fraction is not run
            return math.lgamma(alpha), scale
        # upper tail e^-z z^alpha / (z+1-alpha- 1(1-alpha)/(z+3-alpha- ...))
        b = z + 1.0 - alpha
        c = 1.0 / _FPMIN
        d = 1.0 / b
        h = d
        for i in range(1, _GAMMA_MAX_ITER + 1):
            an = -i * (i - alpha)
            b += 2.0
            d = an * d + b
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = b + an / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) <= _GAMMA_TOL:
                return math.lgamma(alpha) + math.log1p(-h * scale), scale / (1.0 - h * scale)
    raise ArithmeticError(f"incomplete gamma did not converge (alpha={alpha}, z={z})")


def _log_gamma_moment(alpha: float, rate: float, lambda_bar: float | None) -> float:
    """log of int lambda^(alpha-1) e^(-rate lambda) dlambda over the support."""
    if lambda_bar is None:
        return math.lgamma(alpha) - alpha * math.log(rate)
    return _lower_gamma_logs(alpha, rate * lambda_bar)[0] - alpha * math.log(rate)


def poisson_posterior_mean(x_tilde: int, config: PoissonConfig) -> float:
    """Posterior mean of the rate under the (truncated) power prior.

    Truncated at z = r lambda_bar it is gamma(alpha+1, z) / (r gamma(alpha, z))
    = alpha (z / (z + c(alpha+1, z))) / r, as alpha gamma(alpha, z) = gamma(alpha
    + 1, z) + z^alpha e^-z: one pass, nothing subtracted, nothing to overflow."""
    _check_count("x_tilde", x_tilde, 0)
    alpha = x_tilde + config.a
    if config.lambda_bar is None:
        return alpha / config.r
    z = config.r * config.lambda_bar
    c = _lower_gamma_logs(alpha + 1.0, z)[1]
    return alpha * (z / (z + c)) / config.r


def poisson_predictive(y_tilde: int, x_tilde: int, config: PoissonConfig) -> float:
    """Posterior expectation of Po(y_tilde | s lambda) given x_tilde."""
    _check_count("y_tilde", y_tilde, 0)
    _check_count("x_tilde", x_tilde, 0)
    alpha = x_tilde + config.a
    log_den = _log_gamma_moment(alpha, config.r, config.lambda_bar)
    return _predictive_mass(y_tilde, alpha, log_den, config)


def _predictive_mass(y_tilde: int, alpha: float, log_den: float, config: PoissonConfig) -> float:
    """The predictive mass at y_tilde, given its denominator's log."""
    log_num = _log_gamma_moment(y_tilde + alpha, config.r + config.s, config.lambda_bar)
    return math.exp(y_tilde * math.log(config.s) - math.lgamma(y_tilde + 1) + log_num - log_den)


def poisson_entropy_risk(config: PoissonConfig, lam: float) -> float:
    """Exact E[lhat - lambda - lambda log(lhat/lambda)] over every k whose
    pmf is not exactly 0.0: the log pmf falls past the mean, so the sum
    stops at the first 0.0 there. A mean r lambda above MAX_TRIALS, about
    the number of terms, is refused."""
    _check_shape(lam=lam)
    if config.lambda_bar is not None and lam > config.lambda_bar:
        raise ValueError(
            f"lambda={lam} outside the truncated support (0, {config.lambda_bar}]"
        )
    mean = config.r * lam
    if mean > MAX_TRIALS:
        raise ValueError(f"the mean r*lam must be at most {MAX_TRIALS}, got {mean}")
    log_mean = math.log(mean)
    terms = []
    for k in count():
        w = math.exp(k * log_mean - mean - math.lgamma(k + 1))
        if w:
            lhat = poisson_posterior_mean(k, config)
            terms.append(w * (lhat - lam - lam * math.log(lhat / lam)))
        elif k > mean:
            break
    return math.fsum(terms)


class PoissonLimitReport(
    _record("PoissonLimitReport", "K_grid estimator_errors predictive_errors risk_errors")
):
    """Convergence errors of scaled binomial quantities over a K grid."""

    __slots__ = ()

    def monotone_decay(self) -> bool:
        """Every error sequence strictly decreasing over the K grid."""
        errors = (self.estimator_errors, self.predictive_errors, self.risk_errors)
        return all(b < a for errs in errors for a, b in zip(errs, errs[1:]))


def induced_binomial_prior(config: PoissonConfig, K: float) -> PriorSpec:
    """The binomial prior a Poisson power prior induces at scale K.

    The second beta exponent is exactly 1 by construction; truncation at
    lambda_bar maps to p_bar = lambda_bar / K.
    """
    p_bar = None if config.lambda_bar is None else config.lambda_bar / K
    if p_bar is not None and p_bar >= 1.0:
        raise ValueError(f"K={K} induces p_bar={p_bar} >= 1")
    return PriorSpec(a=config.a, b=1.0, p_bar=p_bar)


def limit_convergence_report(
    K_grid: Sequence[float],
    lam: float,
    config: PoissonConfig,
    x_tilde: int,
) -> PoissonLimitReport:
    """Per-K errors of the scaled binomial estimator, predictive density,
    and risk against their Poisson limits.

    The predictive error, the sup over y = 0..l of |b_y - q_y| between the
    binomial and Poisson masses, stops at the first y where the mass unread
    on both sides, max(1 - sum b, 1 - sum q), is at most the sup: a later
    gap is at most max(b_y, q_y). The rests are running differences, so
    this holds up to each side's miss of a total of 1, and an ulp a term."""
    if any(b <= a for a, b in zip(K_grid, K_grid[1:])):
        raise ValueError("K grid must be strictly increasing")
    lam_hat = poisson_posterior_mean(x_tilde, config)
    risk_target = poisson_entropy_risk(config, lam)
    # the Poisson masses do not depend on K: one denominator, and each y's
    # mass taken once, the first time some K reads it
    alpha = x_tilde + config.a
    log_den = _log_gamma_moment(alpha, config.r, config.lambda_bar)
    pois_masses: list[float] = []

    est_errors = []
    pred_errors = []
    risk_errors = []
    for K in K_grid:
        _check_shape(K=K)  # before round, which raises OverflowError on inf
        if max(config.r, config.s) * K > MAX_TRIALS + 0.5:  # n or l rounds above it
            raise ValueError(f"K={K} gives r*K or s*K above {MAX_TRIALS} trials")
        n = round(config.r * K)
        l = round(config.s * K)
        p = lam / K
        if not 0.0 < p < 1.0:
            raise ValueError(f"K={K} induces p={p} outside (0, 1)")
        prior = induced_binomial_prior(config, K)
        setup = BinomialSetup(n=n, l=l)

        _check_count("x", x_tilde, 0, n)  # the check of posterior_mean
        table = EstimateTable.build(BinomialSetup(n=n), prior)
        est_errors.append(abs(n * table[x_tilde] / config.r - lam_hat))

        sup_err, binom_rest, pois_rest = 0.0, 1.0, 1.0
        for y, binom_mass in enumerate(_masses(range(l + 1), x_tilde, setup, prior)):
            if y == len(pois_masses):
                pois_masses.append(_predictive_mass(y, alpha, log_den, config))
            pois_mass = pois_masses[y]
            sup_err = max(sup_err, abs(binom_mass - pois_mass))
            binom_rest -= binom_mass
            pois_rest -= pois_mass
            if max(binom_rest, pois_rest) <= sup_err:
                break
        pred_errors.append(sup_err)

        risk_errors.append(abs(n / config.r * point_risk(table, p) - risk_target))

    return PoissonLimitReport(
        K_grid=tuple(float(K) for K in K_grid),
        estimator_errors=tuple(est_errors),
        predictive_errors=tuple(pred_errors),
        risk_errors=tuple(risk_errors),
    )
