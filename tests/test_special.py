"""log B, the log C row, and the log lower incomplete gamma and c against
mpmath at 50 digits, with scipy's values on the same points as the bar to meet."""

import math
import sys

import mpmath
import pytest
from scipy.special import betaln, gammainc, gammaln

from binrisk import poisson
from binrisk.binom import _coeff_entries
from binrisk.special import log_beta

# a + b in every decade from 1 to 1e5, split evenly and unevenly, and a
# small shape against a large one
SHAPES = [
    (s * frac, s * (1.0 - frac))
    for s in (1.0, 10.0, 100.0, 1e3, 1e4, 1e5)
    for frac in (0.5, 0.3, 0.1, 0.01)
] + [
    (0.5, 1e5),
    (1e5, 0.5),
    (1.5, 1e4),
    (3.0, 1e5 + 0.5),
    (1e-3, 2.0),
    (9.99, 10.01),
    (20000.5, 20001.0),
    (1e5, 1e5),
]


def _error(value: float, exact) -> float:
    return abs(float(mpmath.mpf(value) - exact))


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(50):
        yield


def _log_beta_exact(a: float, b: float):
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    return mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b)


@pytest.mark.parametrize("a, b", SHAPES)
def test_log_beta_is_no_worse_than_scipy(a, b):
    exact = _log_beta_exact(a, b)
    assert _error(log_beta(a, b), exact) <= max(_error(float(betaln(a, b)), exact), 1e-14)


def test_log_beta_is_symmetric_and_exact_at_small_integers():
    assert log_beta(3.0, 1e4) == log_beta(1e4, 3.0)
    # B(1, 1) = 1, B(2, 3) = 1/12
    assert abs(log_beta(1.0, 1.0)) < 1e-15
    assert log_beta(2.0, 3.0) == pytest.approx(-math.log(12.0), abs=1e-15)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, -2.0), (math.inf, 1.0), (1.0, math.nan)])
def test_log_beta_rejects_shapes_outside_the_domain(a, b):
    with pytest.raises(ValueError, match="finite and positive"):
        log_beta(a, b)


@pytest.mark.parametrize("n", [10, 1000, 100_000])
def test_log_binomial_row_is_no_worse_than_scipy(n):
    # log C(n, x), the row of every short pmf window and the entries of the
    # long predictive masses; the worst error over the row (every 97th x at
    # n = 1e5, plus both ends and the middle)
    xs = sorted(set(range(0, n + 1, 1 if n <= 1000 else 97)) | {1, n // 2, n - 1, n})
    row = {x: _coeff_entries(n, x, x + 1)[0] for x in xs}
    lg_n = mpmath.loggamma(n + 1)
    ours = scipys = 0.0
    for x in xs:
        exact = lg_n - mpmath.loggamma(x + 1) - mpmath.loggamma(n - x + 1)
        ours = max(ours, _error(row[x], exact))
        scipys = max(
            scipys, _error(float(gammaln(n + 1) - gammaln(x + 1) - gammaln(n - x + 1)), exact)
        )
    assert ours <= max(scipys, 1e-14)


def _report_arguments() -> dict[str, set[tuple[float, float]]]:
    """Every (alpha, z) at which limit_convergence_report takes the lower
    incomplete gamma, by caller: the predictive masses read its log through
    _log_gamma_moment, the posterior means read c; over prior exponents
    and truncations like those of the CLI's and the benchmark's reports."""
    seen = {"_log_gamma_moment": set(), "poisson_posterior_mean": set()}
    helper = poisson._lower_gamma_logs

    def recording(alpha: float, z: float) -> tuple[float, float]:
        seen[sys._getframe(1).f_code.co_name].add((alpha, z))
        return helper(alpha, z)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poisson, "_lower_gamma_logs", recording)
        for a in (0.5, 1.0, 2.0, 3.0):
            for lambda_bar in (0.75, 1.0, 1.37, 2.0):
                for x_tilde in (0, 3):
                    config = poisson.PoissonConfig(r=1.0, s=1.0, a=a, lambda_bar=lambda_bar)
                    poisson.limit_convergence_report([10.0, 100.0], 0.5, config, x_tilde)
    return seen


def test_log_lower_gamma_on_the_report_arguments():
    # only the masses' arguments: the means read c, not log gamma
    arguments = _report_arguments()["_log_gamma_moment"]
    # both branches run: the series below z = alpha + 1, the continued
    # fraction above
    assert any(z < alpha + 1.0 for alpha, z in arguments)
    assert any(z >= alpha + 1.0 for alpha, z in arguments)
    for alpha, z in arguments:
        exact = mpmath.log(mpmath.gammainc(alpha, 0, z))
        # 1e-14 on the log is 1e-14 relative on the integral
        assert _error(poisson._lower_gamma_logs(alpha, z)[0], exact) <= 1e-14, (alpha, z)


@pytest.mark.parametrize("alpha, z", [(0.5, 30.0), (3.0, 1e-8), (50.0, 49.0), (50.0, 52.0)])
def test_log_lower_gamma_matches_scipy_beyond_the_report(alpha, z):
    # deep in either branch and on both sides of the switch at alpha + 1
    exact = mpmath.log(mpmath.gammainc(alpha, 0, z))
    scipy_value = float(gammaln(alpha) + math.log(gammainc(alpha, z)))
    assert _error(poisson._lower_gamma_logs(alpha, z)[0], exact) <= max(
        _error(scipy_value, exact), 1e-14 * max(1.0, abs(float(exact)))
    )


def _check_c(alpha: float, z: float) -> None:
    """c = z^alpha e^-z / gamma(alpha, z) as the helper returns it: where it
    is normal, its log within 2e-15 max(1, |log c|) of the exact one; where
    log c < -745.13, under half the least subnormal, 0.0."""
    exact = alpha * mpmath.log(z) - z - mpmath.log(mpmath.gammainc(alpha, 0, z))
    c = poisson._lower_gamma_logs(alpha, z)[1]
    if exact < -1075 * math.log(2.0):
        assert c == 0.0, (alpha, z)
    else:
        assert c >= sys.float_info.min, (alpha, z)
        assert _error(math.log(c), exact) <= 2e-15 * max(1.0, abs(float(exact))), (alpha, z)


def test_c_on_the_means_arguments():
    # the posterior means read c; on the report's arguments every one is a
    # series
    for alpha, z in _report_arguments()["poisson_posterior_mean"]:
        _check_c(alpha, z)


@pytest.mark.parametrize(
    "alpha, z", [(0.5, 30.0), (2.0, 3.0), (50.0, 52.0), (3.0, 400.0), (1001.5, 1200.0), (1.5, 1e5)]
)
def test_c_in_the_continued_fraction(alpha, z):
    # above z = alpha + 1, where c = e^-E / (1 - h e^-E) with E in
    # Stirling's form, out to z where log c is about -z: at (1.5, 1e5) c
    # is 0.0
    _check_c(alpha, z)
