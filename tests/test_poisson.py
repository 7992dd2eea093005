"""Poisson-side procedures and the binomial-to-Poisson convergence check."""

import math

import mpmath
import pytest
from scipy.special import gammaln

from binrisk import poisson, predictive
from binrisk.estimators import EstimateTable
from binrisk.poisson import (
    PoissonConfig,
    induced_binomial_prior,
    limit_convergence_report,
    poisson_entropy_risk,
    poisson_posterior_mean,
    poisson_predictive,
)


class TestPosteriorMean:
    def test_untruncated_closed_form(self):
        cfg = PoissonConfig(r=2.0, a=1.0)
        assert poisson_posterior_mean(2, cfg) == pytest.approx(1.5)

    def test_truncated_closed_form(self):
        # a=1, r=1, bound 1, count 0: (1 - 2/e) / (1 - 1/e)
        cfg = PoissonConfig(r=1.0, a=1.0, lambda_bar=1.0)
        expected = (1.0 - 2.0 * math.exp(-1.0)) / (1.0 - math.exp(-1.0))
        assert poisson_posterior_mean(0, cfg) == pytest.approx(expected, rel=1e-12)

    def test_loose_truncation_recovers_untruncated(self):
        loose = PoissonConfig(r=1.5, a=2.0, lambda_bar=200.0)
        tight = PoissonConfig(r=1.5, a=2.0)
        assert poisson_posterior_mean(3, loose) == pytest.approx(
            poisson_posterior_mean(3, tight), rel=1e-10
        )

    @pytest.mark.parametrize("lambda_bar", [0.75, 2.0])
    def test_truncated_matches_mpmath_up_to_large_counts(self, lambda_bar):
        # a ratio of two series below z = alpha + 1; as the difference of
        # two logs of size about alpha it was 2.1e-14 off at lambda_bar = 2
        cfg = PoissonConfig(r=1.0, a=0.5, lambda_bar=lambda_bar)
        with mpmath.workdps(40):
            for x in range(0, 200, 7):
                alpha = x + 0.5
                exact = mpmath.gammainc(alpha + 1, 0, lambda_bar) / mpmath.gammainc(
                    alpha, 0, lambda_bar
                )
                assert abs(poisson_posterior_mean(x, cfg) - exact) <= 2e-15 * exact, x

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
                closed, rel=1e-12
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
        assert poisson_entropy_risk(cfg, lam) == pytest.approx(brute, rel=1e-12)

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
        measure, masses = predictive.log_beta_measure, poisson._masses
        monkeypatch.setattr(
            predictive, "log_beta_measure", lambda *args: measures.append(args) or measure(*args)
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
        # (17 of them); the posterior means, of the estimate and of the
        # entropy risk at every k = 0..156, take none, since below
        # z = alpha + 1 each is a ratio of two series
        calls, reads = [], []
        lower_gamma, pois = poisson._log_lower_gamma, poisson.poisson_predictive
        monkeypatch.setattr(
            poisson, "_log_lower_gamma", lambda *args: calls.append(args) or lower_gamma(*args)
        )
        monkeypatch.setattr(
            poisson, "poisson_predictive", lambda *args: reads.append(args) or pois(*args)
        )
        cfg = PoissonConfig(r=1.0, s=1.0, a=1.0, lambda_bar=1.0)
        limit_convergence_report([10.0, 100.0, 1000.0], 0.5, cfg, 0)
        assert len(calls) == 18
        assert [c for c in calls if c[1] == 2.0] == [(y + 1.0, 2.0) for y in range(17)]
        assert reads == []

    def test_shared_masses_equal_the_public_predictive(self, monkeypatch):
        masses = []
        mass = poisson._predictive_mass
        monkeypatch.setattr(
            poisson,
            "_predictive_mass",
            lambda *args: masses.append((args[0], mass(*args))) or masses[-1][1],
        )
        cfg = PoissonConfig(r=2.0, s=0.5, a=1.5, lambda_bar=1.5)
        limit_convergence_report([10.0, 100.0], 0.5, cfg, 2)
        monkeypatch.undo()
        assert len(masses) > 5
        assert [y for y, _ in masses] == list(range(len(masses)))
        assert all(m == poisson_predictive(y, 2, cfg) for y, m in masses)

    def test_rejects_unsorted_grid(self):
        cfg = PoissonConfig(r=1.0, a=1.0)
        with pytest.raises(ValueError):
            limit_convergence_report([100.0, 10.0], 0.5, cfg, 0)
