"""Shared brute-force oracles, independent of the production code paths.

Every truncated-posterior quantity in the package is computed through
incomplete-beta identities; the oracles here integrate the defining
expressions directly with adaptive quadrature (substituting t = u^(1/alpha)
to tame the endpoint singularity when alpha < 1). eval_J, eval_I and
eval_I_two_sided are the exceptions: eval_J assembles J(p) from the
library's own I row, so that tests can check that row against the J
oracle, and eval_I and eval_I_two_sided exponentiate the library's upper
and two-sided log I, which the kernel tests and the acceptance criteria
check against quadrature, closed forms and the contiguous relations.
window_row is not an oracle either: it reads the library's pmf window,
padded to x = 0..n, for tests that need it whole. loss_row is the risk
sums' loss expression as a function of the weights and the log rows,
and unit_losses reads it at unit weight; log_rows reads a table's log
rows whole, and filled counts the entries of a p-free row computed so
far. mc_risk, a seeded sampler over
that loss row, is an oracle of point_risk's sum over x. The full-row sums
evaluate every risk sum over all x = 0..n, zero pmf terms included, as
references the windowed library sums must equal bit for bit;
full_row_kl_risk does the same for the predictive KL risk over every
(x, y). max_risk_diff_uniform and max_risk_diff_jeffreys are the closed
forms of the n = 1 symmetric maximum risk difference for a = 1 and
a = 1/2, oracles of max_risk_diff_symmetric_n1. The two lemma checkers at
the end evaluate both sides of an identity or inequality the paper's
proofs rely on. The cold_measures fixture empties the predictive module's
memo of beta measures, so that a spy on predictive._log_beta_measure sees
every measure a test computes; the summed_rows fixture records the term
rows the risk sums build, through a spy on the risk module's fsum.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np
import pytest
from scipy.integrate import quad

from binrisk import predictive, risk
from binrisk.binom import BinomialSetup, PriorSpec, _log_binom_coeffs, pmf_windows
from binrisk.dominance import _j_rows, p_grid
from binrisk.estimators import EstimateTable
from binrisk.incbeta import SingularBoundError, _log_I

QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-13, limit=200)


class _FsumSpy:
    """Stands in for the math module in binrisk.risk and records, in order,
    the length of each list its fsum sums the first time it sums it."""

    def __init__(self) -> None:
        self.rows: list[int] = []
        self._seen: list[list[float]] = []  # held, so no id is reused

    def __getattr__(self, name: str):
        return getattr(math, name)

    def fsum(self, terms):
        if not any(terms is row for row in self._seen):
            self._seen.append(terms)
            self.rows.append(len(terms))
        return math.fsum(terms)


@pytest.fixture
def summed_rows(monkeypatch) -> list[int]:
    """The lengths of the term rows the risk module sums, one per row: the
    certificate's second sum of a core row, with its bound appended, is the
    same list and adds nothing, and a fallback to the exact window adds a
    row of its length. Sums over other lists count too (connection_sum's
    sum of its l risks), so tests read it around point risks."""
    spy = _FsumSpy()
    monkeypatch.setattr(risk, "math", spy)
    return spy.rows


@pytest.fixture
def cold_measures():
    """An empty memo of predictive beta measures: the measures a test then
    reads are computed, not found."""
    predictive._log_measure.cache_clear()


def quad_inc_beta(alpha: float, beta: float, x: float) -> float:
    """int_0^x t^(alpha-1) (1-t)^(beta-1) dt by adaptive quadrature."""
    if alpha >= 1.0:
        # no endpoint singularity; direct integration is the most accurate
        val, _ = quad(
            lambda t: t ** (alpha - 1.0) * (1.0 - t) ** (beta - 1.0),
            0.0,
            x,
            **QUAD_OPTS,
        )
        return val
    # u = t^alpha removes the t^(alpha-1) singularity at 0
    val, _ = quad(
        lambda u: (1.0 - u ** (1.0 / alpha)) ** (beta - 1.0) / alpha,
        0.0,
        x**alpha,
        **QUAD_OPTS,
    )
    return val


def quad_I(alpha: float, gamma: float, p_bar: float) -> float:
    """int_0^1 t^(alpha-1) / {1 - p_bar (1-t)}^gamma dt by quadrature."""
    val, _ = quad(
        lambda u: (1.0 / alpha)
        / (1.0 - p_bar * (1.0 - u ** (1.0 / alpha))) ** gamma,
        0.0,
        1.0,
        **QUAD_OPTS,
    )
    return val


def quad_I_two_sided(alpha: float, gamma: float, p_lo: float, p_bar: float) -> float:
    """int_rho^1 t^(alpha-1) / {1 - p_bar (1-t)}^gamma dt by quadrature."""
    r_lo = p_lo / (1.0 - p_lo)
    r_bar = p_bar / (1.0 - p_bar)
    rho = r_lo / r_bar
    val, _ = quad(
        lambda t: t ** (alpha - 1.0) / (1.0 - p_bar * (1.0 - t)) ** gamma,
        rho,
        1.0,
        **QUAD_OPTS,
    )
    return val


def quad_J(p: float, n: int, a: float, b: float, p_bar: float) -> float:
    """The risk-bound integral J(p) by quadrature."""
    gamma = n + a + b + 1.0
    val, _ = quad(
        lambda u: (1.0 - p * (1.0 - u ** (1.0 / a))) ** n
        / (1.0 - p_bar * (1.0 - u ** (1.0 / a))) ** gamma
        / a,
        0.0,
        1.0,
        **QUAD_OPTS,
    )
    return val


def eval_J(p: float, n: int, a: float, b: float, p_bar: float) -> float:
    """J(p) = int_0^1 t^(a-1) {1 - p (1-t)}^n / {1 - p_bar (1-t)}^(n+a+b+1) dt.

    Since {1 - p (1-t)}^n is the binomial generating function E_p[t^X],
    J(p) is the exact finite mixture sum_x Bin(x; n, p) I(x+a, n+a+b+1, p_bar),
    read here from the I row the Thm 3.2 bound uses. At p = 0 all of the
    mass sits at x = 0.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must be in [0, 1), got {p}")
    weights = [1.0] + [0.0] * n if p == 0.0 else window_row(n, p)
    table = EstimateTable.build(BinomialSetup(n=n), PriorSpec(a, b, p_bar=p_bar))
    return math.fsum(w * v for w, v in zip(weights, _j_rows(table)[0]))


def eval_I(alpha: float, gamma: float, p_bar: float) -> float:
    """I(alpha, gamma, p_bar) = int_0^1 t^(alpha-1) / {1 - p_bar (1-t)}^gamma dt,
    with overflow reported as a singular bound."""
    log_value = _log_I(alpha, gamma, p_bar)
    try:
        return math.exp(log_value)
    except OverflowError as exc:
        message = f"I({alpha}, {gamma}, {p_bar}) overflows double precision"
        raise SingularBoundError(message) from exc


def eval_I_two_sided(alpha: float, gamma: float, p_lo: float, p_bar: float) -> float:
    """I(alpha, gamma, p_lo, p_bar) = int_rho^1 t^(alpha-1) / {1 - p_bar (1-t)}^gamma dt."""
    return math.exp(_log_I(alpha, gamma, p_bar, p_lo))


def window_row(n: int, p: float) -> list[float]:
    """The exact pmf window of (n, p) padded with its zeros to x = 0..n."""
    start, terms = pmf_windows(n, p).exact()
    row = [0.0] * (n + 1)
    row[start : start + len(terms)] = terms
    return row


def loss_row(
    weights: Sequence[float], log_ds: Sequence[float], log_es: Sequence[float], p: float
) -> list[float]:
    """The terms w L(d, p) of a risk sum, L = p log(p/d) + (1-p) log((1-p)/(1-d)),
    from the weights w and log d, log_e = log(1-d) of each d, by the
    expression of risk._risk_sums: the same operands in the same order, and
    the loss clamped at 0.0 (max(v, 0.0) for every float v, -0.0 and NaN
    included)."""
    log_p, log_q, q = math.log(p), math.log1p(-p), 1.0 - p
    return [
        w * (0.0 if (v := p * (log_p - log_d) + q * (log_q - log_e)) < 0.0 else v)
        for w, log_d, log_e in zip(weights, log_ds, log_es)
    ]


def log_rows(estimates: EstimateTable) -> tuple[Sequence[float], Sequence[float]]:
    """The table's log d and log(1-d) rows, every entry computed."""
    log_ds, log_es, _, fill = estimates._logs
    if fill:
        fill(0, estimates.setup.n + 1)
    return log_ds, log_es


def filled(row: Sequence) -> int:
    """The entries of a p-free row computed so far: a lazy row holds NaN
    where it has not been read (its values), a whole row holds none."""
    return sum(v == v for v in getattr(row, "values", row))


def unit_losses(ds: Sequence[float], p: float) -> list[float]:
    """The entropy losses L(d, p) of the risk sums, one per d, at unit weight."""
    return loss_row([1.0] * len(ds), [math.log(d) for d in ds], [math.log1p(-d) for d in ds], p)


def full_pmf_row(n: int, p: float) -> list[float]:
    """The pmf at every x = 0..n by the library's per-term expression, with
    no window: the terms that underflow come out as 0.0 here."""
    log_p, log_q, coeffs = math.log(p), math.log1p(-p), _log_binom_coeffs(n)
    return [math.exp(coeffs[x] + x * log_p + (n - x) * log_q) for x in range(n + 1)]


def full_row_risk(estimates: EstimateTable, p: float) -> float:
    """sum over every x = 0..n of pmf times entropy loss, correctly rounded."""
    pmf = full_pmf_row(estimates.setup.n, p)
    losses = unit_losses(estimates.values, p)
    return math.fsum(w * v for w, v in zip(pmf, losses, strict=True))


def mc_risk(
    estimates: EstimateTable, p: float, sample_count: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of point_risk with its standard error.

    Deterministic given the seed; sample_count = 1 reports an infinite
    standard error. Its losses are the terms of point_risk at unit weight,
    so it checks the sum over x, not the losses.
    """
    n = estimates.setup.n
    losses = np.array(loss_row([1.0] * (n + 1), *log_rows(estimates), p))  # w * 1.0 is w
    rng = np.random.default_rng(seed)
    draws = rng.binomial(n, p, size=sample_count)
    counts = np.bincount(draws, minlength=n + 1)
    estimate = float(counts @ losses) / sample_count
    if sample_count == 1:
        return estimate, math.inf
    second_moment = float(counts @ losses**2) / sample_count
    variance = max(second_moment - estimate**2, 0.0) * sample_count / (
        sample_count - 1
    )
    return estimate, math.sqrt(variance / sample_count)


def full_row_kl_risk(
    tables: Sequence[Sequence[float]], p: float, setup: BinomialSetup
) -> float:
    """sum over every (x, y) of Bin(x; n, p) Bin(y; l, p) log(f(y)/fhat),
    zero pmf weights of x included, correctly rounded."""
    f = full_pmf_row(setup.l, p)
    return math.fsum(
        wx * fy * (math.log(fy) - math.log(fhat))
        for wx, table in zip(full_pmf_row(setup.n, p), tables, strict=True)
        for fy, fhat in zip(f, table, strict=True)
        if fy != 0.0
    )


def full_row_dominance(
    n: int, a: float, b: float, p_bar: float, p_lo: float | None, grid_size: int
) -> dict:
    """The fields of exhaustive_dominance_check's report that its sums feed,
    from full-row risks, J(p) and E_p[1/I] sums and the Thm 3.2 bound."""
    setup = BinomialSetup(n=n)
    unres = EstimateTable.build(setup, PriorSpec(a=a, b=b))
    trunc = EstimateTable.build(setup, PriorSpec(a=a, b=b, p_bar=p_bar, p_lo=p_lo))
    grid = tuple(p_grid(p_bar, p_lo, grid_size))
    risk_unres = tuple(full_row_risk(unres, p) for p in grid)
    risk_trunc = tuple(full_row_risk(trunc, p) for p in grid)
    diffs = tuple(t - u for t, u in zip(risk_trunc, risk_unres))
    worst = max(range(grid_size), key=lambda i: diffs[i])
    fields = dict(
        p_grid=grid,
        risk_unrestricted=risk_unres,
        risk_truncated=risk_trunc,
        risk_difference=diffs,
        thm32_bound_curve=None,
        standardized_diff_curve=None,
        worst_p=grid[worst],
        worst_difference=diffs[worst],
    )
    if p_lo is None:
        i_row, inv_row = _j_rows(trunc)
        s = n + a + b
        bounds, std = [], []
        for p, diff in zip(grid, diffs):
            pmf = full_pmf_row(n, p)
            j = math.fsum(w * v for w, v in zip(pmf, i_row))
            std.append(diff / (j * math.fsum(w * v for w, v in zip(pmf, inv_row))))
            arg = 1.0 - 1.0 / ((1.0 - p_bar) * s * j)
            gain = p * math.log1p((1.0 + 1.0 / j) / (p_bar * s))
            bounds.append((1.0 - p) * math.log(arg) + gain if arg > 0.0 else None)
        fields.update(thm32_bound_curve=tuple(bounds), standardized_diff_curve=tuple(std))
    return fields


def quad_beta_measure(alpha: float, beta: float, lo: float, hi: float) -> float:
    """int_lo^hi p^(alpha-1) (1-p)^(beta-1) dp by quadrature."""
    if lo > 0.0:
        # no singularity inside the window; integrate directly
        val, _ = quad(
            lambda t: t ** (alpha - 1.0) * (1.0 - t) ** (beta - 1.0),
            lo,
            hi,
            **QUAD_OPTS,
        )
        return val
    return quad_inc_beta(alpha, beta, hi)


def quad_posterior_mean(
    x: int, n: int, a: float, b: float, lo: float, hi: float
) -> float:
    """Posterior mean as the direct ratio of beta-measure integrals."""
    num = quad_beta_measure(x + a + 1.0, n - x + b, lo, hi)
    den = quad_beta_measure(x + a, n - x + b, lo, hi)
    return num / den


def entropy_loss_direct(d: float, p: float) -> float:
    total = 0.0
    if p > 0.0:
        total += p * math.log(p / d)
    if p < 1.0:
        total += (1.0 - p) * math.log((1.0 - p) / (1.0 - d))
    return total


def max_risk_diff_uniform(p_bar: float) -> float:
    """Closed form of the n = 1 maximum risk difference for a = b = 1."""
    p_lo = 1.0 - p_bar
    q = (p_bar**3 - p_lo**3) / (p_bar**2 - p_lo**2)
    return -(p_lo**2 + p_bar**2) * math.log(q) - 2.0 * p_lo * p_bar * math.log(
        3.0 - 2.0 * q
    )


def max_risk_diff_jeffreys(p_bar: float) -> float:
    """Closed form of the n = 1 maximum risk difference for a = b = 1/2."""
    p_lo = 1.0 - p_bar
    r_lo = p_lo / (1.0 - p_lo)
    r_bar = p_bar / (1.0 - p_bar)

    def u32(u: float) -> float:
        return u**1.5 / (1.0 + u) ** 2

    def u12(u: float) -> float:
        return math.sqrt(u) / (1.0 + u)

    top = u32(r_bar) - u32(r_lo)
    bottom = (
        math.atan(math.sqrt(r_bar))
        - math.atan(math.sqrt(r_lo))
        - (u12(r_bar) - u12(r_lo))
    )
    ratio = top / bottom
    return -(p_lo**2 + p_bar**2) * math.log1p(-2.0 / 3.0 * ratio) - (
        2.0 * p_lo * p_bar
    ) * math.log1p(2.0 * ratio)


def verify_second_derivative_identity(
    phi: Sequence[float], n: int, p: float, step: float = 1e-4
) -> tuple[float, float]:
    """Second derivative of p E_p[phi(X)] two ways.

    lhs: central second finite difference with the given step.
    rhs: the exact expectation (1/p) E[X {(X+1)phi(X) - 2X phi(X-1)
         + (X-1) phi(X-2)}].
    """
    if len(phi) != n + 1:
        raise ValueError(f"phi must have one value per x = 0..{n}")
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if not (p - 2.0 * step > 0.0 and p + 2.0 * step < 1.0):
        raise ValueError(f"finite-difference stencil leaves (0, 1) at p={p}")

    def g(q: float) -> float:
        return q * math.fsum(w * v for w, v in zip(window_row(n, q), phi))

    lhs = (g(p + step) - 2.0 * g(p) + g(p - step)) / step**2
    weights = window_row(n, p)
    terms = []
    for x in range(n + 1):
        inner = (x + 1) * phi[x]
        if x >= 1:
            inner -= 2 * x * phi[x - 1]
        if x >= 2:
            inner += (x - 1) * phi[x - 2]
        terms.append(weights[x] * x * inner)
    rhs = math.fsum(terms) / p
    return lhs, rhs


def verify_log_jensen_bound(
    weights: Mapping[float, float]
) -> tuple[float, float]:
    """E[log(1-T)] vs log(1-mu) - var/2 for a discrete T on (0, 1)."""
    points = list(weights.keys())
    probs = list(weights.values())
    if any(not 0.0 < t < 1.0 for t in points):
        raise ValueError("support points must lie strictly inside (0, 1)")
    if any(w < 0.0 for w in probs) or abs(math.fsum(probs) - 1.0) > 1e-12:
        raise ValueError("weights must be a probability vector")
    mu = math.fsum(w * t for t, w in weights.items())
    var = math.fsum(w * (t - mu) ** 2 for t, w in weights.items())
    if var <= 0.0:
        raise ValueError("the distribution must have positive variance")
    lhs = math.fsum(w * math.log1p(-t) for t, w in weights.items())
    rhs = math.log1p(-mu) - var / 2.0
    return lhs, rhs
