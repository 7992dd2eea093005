"""Bayesian predictive densities and plug-in densities."""

import math

import pytest
from scipy.special import betaln

from binrisk import predictive
from binrisk.binom import BinomialSetup, PriorSpec, pmf_row
from binrisk.estimators import posterior_mean
from binrisk.incbeta import log_beta_measure
from binrisk.predictive import PredictiveTable, bayes_predictive, plug_in_density

from conftest import quad_beta_measure


class TestBayesPredictive:
    def test_uniform_single_step(self):
        setup = BinomialSetup(n=1, l=1)
        prior = PriorSpec(a=1.0, b=1.0)
        assert bayes_predictive(1, 1, setup, prior) == pytest.approx(
            2.0 / 3.0, rel=1e-13
        )
        assert bayes_predictive(0, 1, setup, prior) == pytest.approx(
            1.0 / 3.0, rel=1e-13
        )

    @pytest.mark.parametrize(
        "prior",
        [
            PriorSpec(a=1.0, b=1.0),
            PriorSpec(a=0.5, b=2.0, p_bar=0.3),
            PriorSpec(a=2.0, b=0.5, p_bar=0.4, p_lo=0.1),
        ],
    )
    @pytest.mark.parametrize("l", [1, 2, 5])
    def test_normalization(self, prior, l):
        setup = BinomialSetup(n=4, l=l)
        for x in range(5):
            total = math.fsum(
                bayes_predictive(y, x, setup, prior) for y in range(l + 1)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_unrestricted_matches_beta_binomial(self):
        # closed form: C(l,y) B(y+x+a, l-y+n-x+b) / B(x+a, n-x+b)
        n, l, a, b = 5, 4, 1.5, 0.7
        setup = BinomialSetup(n=n, l=l)
        prior = PriorSpec(a=a, b=b)
        for x in range(n + 1):
            for y in range(l + 1):
                closed = math.exp(
                    math.lgamma(l + 1)
                    - math.lgamma(y + 1)
                    - math.lgamma(l - y + 1)
                    + betaln(y + x + a, l - y + n - x + b)
                    - betaln(x + a, n - x + b)
                )
                assert bayes_predictive(y, x, setup, prior) == pytest.approx(
                    closed, rel=1e-12
                )

    def test_truncated_matches_quadrature(self):
        setup = BinomialSetup(n=2, l=2)
        prior = PriorSpec(a=1.0, b=1.0, p_bar=0.5)
        for y in range(3):
            num = quad_beta_measure(y + 1 + 1.0, 2 - y + 1 + 1.0, 0.0, 0.5)
            den = quad_beta_measure(1 + 1.0, 1 + 1.0, 0.0, 0.5)
            coeff = [1.0, 2.0, 1.0][y]
            assert bayes_predictive(y, 1, setup, prior) == pytest.approx(
                coeff * num / den, rel=1e-10
            )

    def test_single_step_equals_posterior_mean(self):
        for prior in (
            PriorSpec(a=1.0, b=1.0),
            PriorSpec(a=0.5, b=2.0, p_bar=0.3),
            PriorSpec(a=2.0, b=0.5, p_bar=0.4, p_lo=0.1),
        ):
            n = 4
            setup = BinomialSetup(n=n, l=1)
            for x in range(n + 1):
                assert bayes_predictive(1, x, setup, prior) == pytest.approx(
                    posterior_mean(x, prior, n), rel=1e-12
                )

    def test_not_a_binomial_family_member_for_two_steps(self):
        # no single success probability reproduces all three masses
        setup = BinomialSetup(n=3, l=2)
        prior = PriorSpec(a=1.0, b=1.0)
        table = [bayes_predictive(y, 1, setup, prior) for y in range(3)]
        d = 1.0 - math.sqrt(table[0])  # the d that fits y = 0
        assert abs(pmf_row(2, d)[1] - table[1]) > 1e-3

    def test_domain_errors(self):
        setup = BinomialSetup(n=2, l=2)
        prior = PriorSpec(a=1.0, b=1.0)
        with pytest.raises(ValueError):
            bayes_predictive(3, 1, setup, prior)
        with pytest.raises(ValueError):
            bayes_predictive(1, 3, setup, prior)


class TestPlugIn:
    def test_examples(self):
        assert plug_in_density(0, 1, 0.5) == pytest.approx(0.5)
        assert plug_in_density(2, 2, 0.3) == pytest.approx(0.09, rel=1e-13)

    def test_normalization(self):
        total = math.fsum(plug_in_density(y, 6, 0.37) for y in range(7))
        assert total == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("l, d", [(1, 0.5), (6, 0.37), (40, 1e-3), (3000, 0.3), (3000, 1e-6)])
    def test_every_mass_is_the_pmf_row_entry_bit_for_bit(self, l, d):
        # at l = 3000 the window of d leaves exact zeros on one or both sides
        row = pmf_row(l, d)
        masses = [plug_in_density(y, l, d) for y in range(l + 1)]
        assert [m.hex() for m in masses] == [v.hex() for v in row]
        if l == 3000:
            assert 0.0 in masses

    def test_domain_error(self):
        with pytest.raises(ValueError):
            plug_in_density(0, 1, 0.0)
        with pytest.raises(ValueError):
            plug_in_density(2, 1, 0.5)  # y = l + 1
        for trials in (0, 1.5):
            with pytest.raises(ValueError, match="l must"):
                plug_in_density(0, trials, 0.5)


class TestPredictiveTable:
    def test_build_valid(self):
        table = PredictiveTable.build(
            BinomialSetup(n=2, l=3), PriorSpec(a=1.0, b=1.0, p_bar=0.4), 1
        )
        assert len(table.density) == 4
        assert math.fsum(table.density) == pytest.approx(1.0, abs=1e-12)
        assert table[0] > 0.0

    def test_one_denominator_per_table(self, monkeypatch):
        # one measure per y for the numerators and one shared denominator
        calls = []

        def counting(*args):
            calls.append(args)
            return log_beta_measure(*args)

        monkeypatch.setattr(predictive, "log_beta_measure", counting)
        setup, prior = BinomialSetup(n=4, l=5), PriorSpec(a=2.0, b=1.0, p_lo=0.2, p_bar=0.7)
        table = PredictiveTable.build(setup, prior, 3)
        assert len(calls) == setup.l + 2
        assert table.density == tuple(bayes_predictive(y, 3, setup, prior) for y in range(6))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PredictiveTable(
                setup=BinomialSetup(n=1, l=1),
                prior=PriorSpec(a=1.0, b=1.0),
                x=0,
                density=(0.3, 0.3),
            )

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            PredictiveTable(
                setup=BinomialSetup(n=1, l=1),
                prior=PriorSpec(a=1.0, b=1.0),
                x=0,
                density=(0.0, 1.0),
            )

    @pytest.mark.parametrize("density", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
    def test_rejects_nan_mass(self, density):
        # every comparison with NaN is False, so only a check that must pass rejects it
        with pytest.raises(ValueError, match="strictly positive"):
            PredictiveTable(
                setup=BinomialSetup(n=2, l=1), prior=PriorSpec(1.0, 1.0), x=0, density=density
            )
