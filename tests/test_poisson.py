"""Poisson-side procedures and the binomial-to-Poisson convergence check."""

import math
import random
import re
import sys
from itertools import accumulate

import mpmath
import pytest
from scipy.special import gammaln

from binrisk import binom, estimators, poisson, predictive
from binrisk.binom import BinomialSetup
from binrisk.estimators import EstimateTable
from binrisk.poisson import (
    PoissonConfig,
    induced_binomial_prior,
    limit_convergence_report,
    poisson_entropy_risk,
    poisson_posterior_mean,
    poisson_predictive,
)

from conftest import filled


class TestPosteriorMean:
    def test_untruncated_closed_form(self):
        cfg = PoissonConfig(r=2.0, a=1.0)
        assert poisson_posterior_mean(2, cfg) == pytest.approx(1.5)

    def test_truncated_closed_form(self):
        # a=1, r=1, bound 1, count 0: (1 - 2/e) / (1 - 1/e)
        cfg = PoissonConfig(r=1.0, a=1.0, lambda_bar=1.0)
        expected = (1.0 - 2.0 * math.exp(-1.0)) / (1.0 - math.exp(-1.0))
        assert poisson_posterior_mean(0, cfg) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_loose_truncation_recovers_untruncated(self):
        loose = PoissonConfig(r=1.5, a=2.0, lambda_bar=200.0)
        tight = PoissonConfig(r=1.5, a=2.0)
        assert poisson_posterior_mean(3, loose) == pytest.approx(
            poisson_posterior_mean(3, tight), rel=1e-10
        )

    @pytest.mark.parametrize("lambda_bar", [0.75, 2.0, 300.0, 3000.0])
    def test_truncated_matches_mpmath_up_to_large_counts(self, lambda_bar):
        # one form on both sides of z = alpha + 1; as the difference of two
        # logs of size about lgamma(alpha) it was 2.1e-14 off at lambda_bar
        # = 2, and 9.9e-14 and 4.5e-12 just below z = alpha + 1 at 300 and 3000
        cfg = PoissonConfig(r=1.0, a=0.5, lambda_bar=lambda_bar)
        edge = math.floor(lambda_bar - 0.5)
        xs = range(0, 200, 7) if lambda_bar < 300 else (0, edge - 1, edge + 1, 2 * edge + 101)
        with mpmath.workdps(40):
            for x in xs:
                alpha = x + 0.5
                exact = mpmath.gammainc(alpha + 1, 0, lambda_bar) / mpmath.gammainc(
                    alpha, 0, lambda_bar
                )
                assert abs(poisson_posterior_mean(x, cfg) - exact) <= 2e-15 * exact, x

    @pytest.mark.parametrize(
        "x, cfg, mean",
        [
            (10**6, PoissonConfig(r=1.0, lambda_bar=1e300), 1000001.0),
            (10**6, PoissonConfig(r=1.0, lambda_bar=1e303), 1000001.0),
            (3, PoissonConfig(r=0.5, a=3.0, lambda_bar=1e16), 12.0),
            (0, PoissonConfig(r=2.0, a=0.5, lambda_bar=7.5e307), 0.25),
            (5, PoissonConfig(r=2.0, a=0.5, lambda_bar=7.5e307), 2.75),
        ],
    )
    def test_far_truncations_give_the_untruncated_mean_exactly(self, x, cfg, mean):
        # c(alpha+1, z) underflows to 0.0 once z is far above alpha, and
        # neither alpha z nor r (z + c) is formed, which overflow here
        assert poisson_posterior_mean(x, cfg) == mean

    def test_a_far_truncation_skips_the_fraction(self):
        # z = 1.6e308: e^-E is 0.0, so the fraction, whose Lentz ratio stays a
        # few ulps off 1 once 1/b is subnormal, is not run; it ran 100,000 steps
        cfg = PoissonConfig(r=2.0, a=0.5, lambda_bar=8e307)
        assert poisson_posterior_mean(0, cfg) == 0.25

    @pytest.mark.parametrize("alpha, z", [(2.5, 1.0), (2.5, 10.0)])
    def test_gamma_pass_that_does_not_converge_raises(self, monkeypatch, alpha, z):
        # the series below z = alpha + 1, the continued fraction above
        monkeypatch.setattr(poisson, "_GAMMA_MAX_ITER", 1)
        with pytest.raises(ArithmeticError, match="incomplete gamma did not converge"):
            poisson._lower_gamma_logs(alpha, z)

    def test_a_tiny_truncation_at_a_huge_exposure_does_not_overflow(self):
        # z = 1 and c(alpha+1, z) is about alpha, so r (z + c) and r (1 + c / z)
        # would overflow; the mean is alpha lambda_bar / (alpha + 1) up to
        # 1/alpha^2. c is formed as it is: read back from its log, near 23,
        # it put the mean 1.16e-15 off
        lam_hat = poisson_posterior_mean(10**10, PoissonConfig(r=1e300, lambda_bar=1e-300))
        assert lam_hat == pytest.approx(1e-300 * (1e10 + 1) / (1e10 + 2), rel=1e-15, abs=0)

    @pytest.mark.parametrize("r, lambda_bar", [(1e-200, 1e-200), (1e200, 1e200)])
    def test_a_truncation_outside_the_double_range_is_an_error(self, r, lambda_bar):
        # r lambda_bar underflows to 0.0, where the one form would be 0.0,
        # or overflows to inf, where the continued fraction would be NaN
        message = r"^lower incomplete gamma underflows or overflows at \(alpha=2\.0, z="
        with pytest.raises(ArithmeticError, match=message):
            poisson_posterior_mean(0, PoissonConfig(r=r, lambda_bar=lambda_bar))

    def test_truncated_mean_below_bound(self):
        cfg = PoissonConfig(r=0.5, a=1.0, lambda_bar=2.0)
        for x in range(0, 30, 5):
            assert poisson_posterior_mean(x, cfg) < 2.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            poisson_posterior_mean(-1, PoissonConfig(r=1.0))
        with pytest.raises(ValueError):
            PoissonConfig(r=0.0)
        with pytest.raises(ValueError):
            PoissonConfig(r=1.0, lambda_bar=-1.0)
        for bad in (math.nan, math.inf, -math.inf):
            for kwargs in ({"r": bad}, {"r": 1.0, "s": bad}, {"r": 1.0, "a": bad},
                           {"r": 1.0, "lambda_bar": bad}):
                with pytest.raises(ValueError):
                    PoissonConfig(**kwargs)


class TestPredictive:
    @pytest.mark.parametrize(
        "cfg", [PoissonConfig(r=1.0, s=1.0, a=1.0),
                PoissonConfig(r=2.0, s=0.5, a=1.5, lambda_bar=3.0)]
    )
    def test_normalization(self, cfg):
        total = math.fsum(poisson_predictive(y, 1, cfg) for y in range(200))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_untruncated_matches_negative_binomial(self):
        r, s, a, x = 2.0, 1.5, 1.3, 4
        cfg = PoissonConfig(r=r, s=s, a=a)
        shape = x + a
        q = r / (r + s)
        for y in range(8):
            closed = math.exp(
                float(gammaln(y + shape) - gammaln(y + 1) - gammaln(shape))
                + shape * math.log(q)
                + y * math.log(1.0 - q)
            )
            assert poisson_predictive(y, x, cfg) == pytest.approx(
                closed, rel=1e-12, abs=0
            )

    def test_domain_errors_name_the_count(self):
        cfg = PoissonConfig(r=1.0)
        with pytest.raises(ValueError, match="y_tilde must be an integer >= 0"):
            poisson_predictive(-1, 0, cfg)
        with pytest.raises(ValueError, match="x_tilde must be an integer >= 0"):
            poisson_predictive(0, 1.0, cfg)

    def test_tiny_future_exposure_concentrates_at_zero(self):
        cfg = PoissonConfig(r=1.0, s=1e-8, a=1.0)
        assert poisson_predictive(0, 2, cfg) == pytest.approx(1.0, abs=1e-6)


def entropy_risk_oracle(lam, lambda_bar):
    """The entropy risk at r = a = 1 in 40 digits, over the counts within 12
    standard deviations and 40 of the mean, outside which the pmf is under
    e^-70; the truncated posterior mean is a ratio of two lower incomplete
    gammas, and each gamma is taken once."""
    with mpmath.workdps(40):
        lam = mpmath.mpf(lam)
        spread = 12 * mpmath.sqrt(lam) + 40
        ks = range(max(0, int(lam - spread)), int(lam + spread))
        if lambda_bar is not None:
            lower = [mpmath.gammainc(k + 1, 0, lambda_bar) for k in range(ks.start, ks.stop + 1)]
        total = mpmath.mpf(0)
        for i, k in enumerate(ks):
            w = mpmath.exp(k * mpmath.log(lam) - lam - mpmath.loggamma(k + 1))
            lhat = k + 1 if lambda_bar is None else lower[i + 1] / lower[i]
            total += w * (lhat - lam - lam * mpmath.log(lhat / lam))
        return total


class TestEntropyRisk:
    def test_nonnegative(self):
        for cfg in (
            PoissonConfig(r=1.0, a=1.0),
            PoissonConfig(r=1.0, a=1.0, lambda_bar=1.0),
        ):
            assert poisson_entropy_risk(cfg, 0.5) >= 0.0

    def test_untruncated_matches_brute_force(self):
        cfg = PoissonConfig(r=1.0, a=1.0)
        lam = 0.8
        brute = 0.0
        for k in range(200):
            w = math.exp(k * math.log(lam) - lam - float(gammaln(k + 1)))
            lhat = (k + 1.0) / 1.0
            brute += w * (lhat - lam - lam * math.log(lhat / lam))
        assert poisson_entropy_risk(cfg, lam) == pytest.approx(brute, rel=1e-12, abs=0)

    def test_rejects_rate_outside_truncation(self):
        cfg = PoissonConfig(r=1.0, a=1.0, lambda_bar=1.0)
        with pytest.raises(ValueError):
            poisson_entropy_risk(cfg, 1.5)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_rate_that_is_not_finite_and_positive(self, lam):
        with pytest.raises(ValueError, match="lam must be finite and positive"):
            poisson_entropy_risk(PoissonConfig(r=1.0), lam)

    @pytest.mark.parametrize(
        "lam, rel", [(0.5, 1e-14), (20.0, 1e-14), (50.0, 1e-14), (1000.0, 1e-12)]
    )
    @pytest.mark.parametrize("bar", [None, 1.2], ids=["untruncated", "bar-1.2lam"])
    def test_matches_a_40_digit_oracle(self, lam, rel, bar):
        # the sum runs over every k whose pmf is not 0.0; a stop at
        # cumulative mass 1 - 1e-15, which the rounded running sum need not
        # reach, raised "Poisson tail failed to close" from lam = 20 on. At
        # lam = 1000 the lgamma in the pmf limits the error
        lambda_bar = None if bar is None else bar * lam
        got = poisson_entropy_risk(PoissonConfig(r=1.0, lambda_bar=lambda_bar), lam)
        expected = entropy_risk_oracle(lam, lambda_bar)
        assert abs(got - expected) <= rel * expected

    def test_mean_above_the_trial_cap_is_refused(self):
        # the sum takes about r lam terms, so the mean is capped as n is
        with pytest.raises(ValueError, match=r"^the mean r\*lam must be at most 1000000, got "):
            poisson_entropy_risk(PoissonConfig(r=2.0), 600_000.0)


class TestLimitCorrespondence:
    def test_induced_prior_has_unit_second_exponent(self):
        cfg = PoissonConfig(r=1.0, a=1.7, lambda_bar=1.0)
        prior = induced_binomial_prior(cfg, 50.0)
        assert prior.b == 1.0
        assert prior.a == 1.7
        assert prior.p_bar == pytest.approx(0.02)

    def test_scale_too_small_rejected(self):
        cfg = PoissonConfig(r=1.0, a=1.0, lambda_bar=2.0)
        with pytest.raises(ValueError):
            induced_binomial_prior(cfg, 1.0)

    def test_errors_decay_monotonically(self):
        cfg = PoissonConfig(r=1.0, s=1.0, a=1.0, lambda_bar=1.0)
        report = limit_convergence_report([10.0, 100.0, 1000.0], 0.5, cfg, 0)
        assert report.monotone_decay()
        assert report.estimator_errors[-1] < 1e-3
        assert report.risk_errors[-1] < 1e-3

    def test_rejects_count_above_the_trial_count(self):
        # K = 10 gives n = 10 trials, so x_tilde = 11 is not observable
        cfg = PoissonConfig(r=1.0, a=1.0, lambda_bar=1.0)
        with pytest.raises(ValueError, match=r"x must be an integer in \[0, 10\], got 11"):
            limit_convergence_report([10.0], 0.5, cfg, 11)

    def test_builds_one_table_per_scale(self, monkeypatch):
        # the estimate and the risk read the same table
        build = EstimateTable.build.__func__
        calls = []

        def counting(cls, setup, prior):
            calls.append(setup.n)
            return build(cls, setup, prior)

        monkeypatch.setattr(EstimateTable, "build", classmethod(counting))
        cfg = PoissonConfig(r=1.0, s=1.0, a=1.0, lambda_bar=1.0)
        limit_convergence_report([10.0, 300.0], 0.5, cfg, 3)
        assert calls == [10, 300]

    def test_reads_one_predictive_denominator_per_scale(self, monkeypatch, cold_measures):
        # each y read takes its numerator; the denominator is taken once per K
        measures, ys_read = [], []
        measure, masses = predictive._log_beta_measure, poisson._masses
        monkeypatch.setattr(
            predictive, "_log_beta_measure", lambda *args: measures.append(args) or measure(*args)
        )

        def counting(*args):
            for mass in masses(*args):
                ys_read.append(mass)
                yield mass

        monkeypatch.setattr(poisson, "_masses", counting)
        cfg = PoissonConfig(r=1.0, s=1.0, a=1.0, lambda_bar=1.0)
        limit_convergence_report([10.0, 100.0], 0.5, cfg, 2)
        assert len(measures) == 2 + len(ys_read)

    def test_takes_each_poisson_mass_once_per_report(self, monkeypatch):
        # the Poisson target does not depend on K: one denominator
        # G(1, 1) and one numerator G(y + 1, 2) per y that some K reads
        # (6 of them: the sups at K = 10, 100 and 1000 read 4, 5 and 6
        # masses). Each posterior mean, of the estimate and of the entropy
        # risk at every k = 0..156, is one pass at (k + a + 1, z) whose c
        # it reads
        calls = {"_log_gamma_moment": [], "poisson_posterior_mean": []}
        reads = []
        helper, pois = poisson._lower_gamma_logs, poisson.poisson_predictive

        def recording(alpha, z):
            calls[sys._getframe(1).f_code.co_name].append((alpha, z))
            return helper(alpha, z)

        monkeypatch.setattr(poisson, "_lower_gamma_logs", recording)
        monkeypatch.setattr(
            poisson, "poisson_predictive", lambda *args: reads.append(args) or pois(*args)
        )
        cfg = PoissonConfig(r=1.0, s=1.0, a=1.0, lambda_bar=1.0)
        limit_convergence_report([10.0, 100.0, 1000.0], 0.5, cfg, 0)
        masses = calls["_log_gamma_moment"]
        assert len(masses) == 7
        assert [c for c in masses if c[1] == 2.0] == [(y + 1.0, 2.0) for y in range(6)]
        assert calls["poisson_posterior_mean"] == [(k + 2.0, 1.0) for k in [0, *range(157)]]
        assert reads == []

    def test_shared_masses_equal_the_public_predictive(self, monkeypatch):
        masses = []
        mass = poisson._predictive_mass
        monkeypatch.setattr(
            poisson,
            "_predictive_mass",
            lambda *args: masses.append((args[0], mass(*args))) or masses[-1][1],
        )
        # s = 2 spreads the predictive masses: the sup at K = 100 reads 9
        cfg = PoissonConfig(r=2.0, s=2.0, a=1.5, lambda_bar=1.5)
        limit_convergence_report([10.0, 100.0], 0.5, cfg, 2)
        monkeypatch.undo()
        assert len(masses) == 9
        assert [y for y, _ in masses] == list(range(len(masses)))
        assert all(m == poisson_predictive(y, 2, cfg) for y, m in masses)

    def test_predictive_sup_equals_a_full_scan(self, monkeypatch):
        # seeded draws of the prior, the truncation, the exposures, x and
        # lambda, at one K each from 3 up to l = 2,000: the sup equals, bit
        # for bit, the sup over every y = 0..l, and it reads y up to the
        # first where the mass unread on both sides, max(1 - sum b, 1 -
        # sum q), is at most the sup so far
        read, masses = [], poisson._masses

        def counting(*args):
            read.append(0)
            for mass in masses(*args):
                read[-1] += 1
                yield mass

        monkeypatch.setattr(poisson, "_masses", counting)
        rng = random.Random(55)
        for _ in range(40):
            a, r, s = 10.0 ** rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
            lambda_bar = rng.choice([None, 10.0 ** rng.uniform(-0.5, 1.0)])
            low = math.log10(max(3.0, 1.2 * (lambda_bar or 0.0)))
            K = 10.0 ** rng.uniform(low, math.log10(2_000.0 / max(r, s)))
            lam = min(lambda_bar or 10.0, 0.9 * K) * rng.uniform(0.01, 1.0)
            setup = BinomialSetup(n=round(r * K), l=round(s * K))
            cfg = PoissonConfig(r=r, s=s, a=a, lambda_bar=lambda_bar)
            x = min(rng.randrange(10), setup.n)
            draw = (a, r, s, lambda_bar, lam, K, x)
            found = limit_convergence_report([K], lam, cfg, x).predictive_errors[0]
            ys = range(setup.l + 1)
            bs = [*masses(ys, x, setup, induced_binomial_prior(cfg, K))]
            qs = [poisson_predictive(y, x, cfg) for y in ys]
            sups = [*accumulate([abs(b - q) for b, q in zip(bs, qs)], max)]
            assert found == sups[-1], draw
            unread = [max(1.0 - u, 1.0 - v) for u, v in zip(accumulate(bs), accumulate(qs))]
            stop = next((y for y in ys if unread[y] <= sups[y]), setup.l)
            assert read[-1] == stop + 1, draw

    def test_reads_under_a_percent_of_the_largest_rows(self, coeff_entries):
        # at K = 1e4 (n = l = 1e4, p = 5e-5) the masses read the y up to
        # where the unread mass is at most the sup (8 of them) and the risk
        # sums a window near x = 0: log C(1e4, y) is computed one y at a
        # time for the masses alone, as the window walks its terms, and the
        # table's two log rows fill only the window's entries, where each
        # was built whole for x = 0..1e4
        estimators._build_large_table.cache_clear()
        cfg = PoissonConfig(r=1.0, s=1.0, a=1.0, lambda_bar=1.0)
        limit_convergence_report([10.0, 100.0, 1000.0, 10000.0], 0.5, cfg, 1)
        table = EstimateTable.build(BinomialSetup(n=10_000), induced_binomial_prior(cfg, 1e4))
        long_entries = [(start, stop) for n, start, stop in coeff_entries if n == 10_000]
        assert 0 < len(long_entries) < 100
        assert all(stop == start + 1 for start, stop in long_entries)
        rows = table._logs[:2]
        assert all(len(row) == 10_001 for row in rows)
        assert [filled(row) < 100 for row in rows] == [True] * 2

    def test_rejects_unsorted_grid(self):
        cfg = PoissonConfig(r=1.0, a=1.0)
        with pytest.raises(ValueError):
            limit_convergence_report([100.0, 10.0], 0.5, cfg, 0)

    @pytest.mark.parametrize("K", [math.inf, math.nan, 0.0])
    def test_rejects_a_scale_that_is_not_finite_and_positive(self, K):
        # checked before K is rounded to n: round(inf) raises OverflowError,
        # which reads as a numerical failure, round(nan) a ValueError that
        # does not name K, and K = 0 divides by zero
        with pytest.raises(ValueError, match=rf"^K must be finite and positive, got {K}$"):
            limit_convergence_report([K], 0.5, PoissonConfig(r=1.0), 0)

    @pytest.mark.parametrize("K, r", [(1e308, 10.0), (1e300, 1.0), (2e6, 0.5)])
    def test_rejects_a_scale_whose_trial_counts_exceed_the_cap(self, K, r):
        # checked before r*K and s*K are rounded: r*K = inf raised
        # OverflowError, a numerical failure, and a finite n past the cap
        # was reported with all its digits
        for scale, config in ((K, PoissonConfig(r=r)), (K / r, PoissonConfig(r=1.0, s=r))):
            message = f"K={scale} gives r*K or s*K above {binom.MAX_TRIALS} trials"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                limit_convergence_report([scale], 0.5, config, 0)

    def test_rejects_a_scale_that_puts_p_outside_the_unit_interval(self):
        with pytest.raises(ValueError, match=r"^K=0\.25 induces p=2\.0 outside \(0, 1\)$"):
            limit_convergence_report([0.25, 10.0], 0.5, PoissonConfig(r=1.0), 0)
