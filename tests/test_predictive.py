"""Bayesian predictive densities and plug-in densities."""

import itertools
import math
import random

import pytest
from scipy.special import betaln

from binrisk import binom, predictive
from binrisk.binom import BinomialSetup, PriorSpec
from binrisk.cli import EXIT_VALIDATION, main
from binrisk.estimators import posterior_mean
from binrisk.incbeta import _log_beta_measure
from binrisk.predictive import PredictiveTable, bayes_predictive, plug_in_density
from binrisk.risk import bayes_predictive_tables

from conftest import quad_beta_measure, window_row


class TestBayesPredictive:
    def test_uniform_single_step(self):
        setup = BinomialSetup(n=1, l=1)
        prior = PriorSpec(a=1.0, b=1.0)
        assert bayes_predictive(1, 1, setup, prior) == pytest.approx(
            2.0 / 3.0, rel=1e-13, abs=0
        )
        assert bayes_predictive(0, 1, setup, prior) == pytest.approx(
            1.0 / 3.0, rel=1e-13, abs=0
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
                    closed, rel=1e-12, abs=0
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
                    posterior_mean(x, prior, n), rel=1e-12, abs=0
                )

    def test_not_a_binomial_family_member_for_two_steps(self):
        # no single success probability reproduces all three masses
        setup = BinomialSetup(n=3, l=2)
        prior = PriorSpec(a=1.0, b=1.0)
        table = [bayes_predictive(y, 1, setup, prior) for y in range(3)]
        d = 1.0 - math.sqrt(table[0])  # the d that fits y = 0
        assert abs(window_row(2, d)[1] - table[1]) > 1e-3

    def test_domain_errors(self):
        setup = BinomialSetup(n=2, l=2)
        prior = PriorSpec(a=1.0, b=1.0)
        with pytest.raises(ValueError):
            bayes_predictive(3, 1, setup, prior)
        with pytest.raises(ValueError):
            bayes_predictive(1, 3, setup, prior)

    @pytest.mark.parametrize("y, x", [(True, 1), (1, True), (False, 0)])
    def test_bool_counts_are_rejected(self, y, x):
        # bool is an int subclass, but True is no count: it used to give
        # the y = 1 mass, 0.4 here
        with pytest.raises(ValueError, match="must be an integer"):
            bayes_predictive(y, x, BinomialSetup(3, 2), PriorSpec(1, 1))


class TestValidationAtTheBoundary:
    # the mass helper checks nothing; each public entry checks x and y
    setup, prior = BinomialSetup(n=3, l=2), PriorSpec(a=1.0, b=1.0, p_bar=0.4)

    @pytest.mark.parametrize("x", [-1, 4, 9, 1.5, True])
    def test_bad_x_raises_the_same_error_at_each_entry(self, x):
        message = f"x must be an integer in [0, 3], got {x}"
        for entry in (
            lambda: bayes_predictive(0, x, self.setup, self.prior),
            lambda: PredictiveTable.build(self.setup, self.prior, x),
        ):
            with pytest.raises(ValueError) as caught:
                entry()
            assert type(caught.value) is ValueError and str(caught.value) == message

    def test_bad_x_on_the_command_line_is_a_validation_error(self, capsys):
        assert main(["predictive", "--x", "9", "--n", "3"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: x must be an integer in [0, 3], got 9\n"

    def test_y_is_checked_before_x(self):
        with pytest.raises(ValueError, match="y must be an integer in \\[0, 2\\], got 3"):
            bayes_predictive(3, 9, self.setup, self.prior)


class TestPlugIn:
    def test_examples(self):
        assert plug_in_density(0, 1, 0.5) == pytest.approx(0.5)
        assert plug_in_density(2, 2, 0.3) == pytest.approx(0.09, rel=1e-13, abs=0)

    def test_normalization(self):
        total = math.fsum(plug_in_density(y, 6, 0.37) for y in range(7))
        assert total == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize(
        "l, d",
        [
            (1, 0.5),
            (6, 0.37),
            (40, 1e-3),
            (3000, 0.3),
            (3000, 1e-6),
            *itertools.product((1, 12, 2000), (1e-300, 0.3, 1.0 - 1e-16)),
        ],
    )
    def test_every_mass_is_the_pmf_row_entry_bit_for_bit(self, l, d):
        # computed apart from the window, each mass is the window's term, and
        # every y outside the exact window gets its 0.0: at l >= 2000, and at
        # d = 1e-300 for l > 1, the window leaves exact zeros
        row = window_row(l, d)
        masses = [plug_in_density(y, l, d) for y in range(l + 1)]
        assert [m.hex() for m in masses] == [v.hex() for v in row]
        if l >= 2000 or d == 1e-300 and l > 1:
            assert 0.0 in masses

    def test_a_plug_in_sweep_builds_no_pmf_window(self):
        # every estimate d is a new p: its window would be built for one term
        caches = (binom._short_windows, binom._long_windows)
        before = [cache.cache_info() for cache in caches]
        for l in (1, 5, 12, 2000):
            for d in (1e-300, 0.01, 0.3, 0.77, 1.0 - 1e-16):
                for y in range(l + 1):
                    plug_in_density(y, l, d)
        assert [cache.cache_info() for cache in caches] == before

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

    def test_one_denominator_per_table(self, monkeypatch, cold_measures):
        # one measure per y for the numerators and one shared denominator
        calls = []

        def counting(*args):
            calls.append(args)
            return _log_beta_measure(*args)

        monkeypatch.setattr(predictive, "_log_beta_measure", counting)
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

    def test_rejects_a_density_of_the_wrong_length(self):
        with pytest.raises(ValueError, match=r"^need one mass per y = 0\.\.l$"):
            PredictiveTable(
                setup=BinomialSetup(n=1, l=2), prior=PriorSpec(1.0, 1.0), x=0, density=(0.5, 0.5)
            )

    @pytest.mark.parametrize("density", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
    def test_rejects_nan_mass(self, density):
        # every comparison with NaN is False, so only a check that must pass rejects it
        with pytest.raises(ValueError, match="strictly positive"):
            PredictiveTable(
                setup=BinomialSetup(n=2, l=1), prior=PriorSpec(1.0, 1.0), x=0, density=density
            )


# configurations whose table set fails, with what building its tables one
# by one raised
FAILING = [
    (30, 4, 0.4, 0.6, 0.5, ValueError,
     "predictive density sums to 0.9999999994617518, not 1"),
    (30, 4, 0.4, 0.6, 1.0, ValueError,
     "predictive density sums to 0.9999999983232396, not 1"),
    (30, 4, 0.4, 0.6, 2.0, ValueError,
     "predictive density sums to 0.9999999997396402, not 1"),
    (30, 10, 0.4, 0.6, 0.5, ValueError,
     "predictive density sums to 1.0000000041357338, not 1"),
    (30, 10, 0.4, 0.6, 1.0, ValueError,
     "predictive density sums to 1.0000000005862981, not 1"),
    (30, 10, 0.4, 0.6, 2.0, ValueError,
     "predictive density sums to 0.9999999998791823, not 1"),
    (60, 4, 0.4, 0.6, 0.5, ValueError,
     "predictive density sums to 0.9967630606534537, not 1"),
    (60, 4, 0.4, 0.6, 1.0, ValueError,
     "predictive density sums to 0.9931561270142124, not 1"),
    (60, 4, 0.4, 0.6, 2.0, ValueError,
     "predictive density sums to 1.0013427502503642, not 1"),
    (60, 4, 0.2, 0.8, 0.5, ValueError,
     "predictive density sums to 0.9999999997591813, not 1"),
    (60, 4, 0.2, 0.8, 1.0, ValueError,
     "predictive density sums to 0.9999999998571375, not 1"),
    (60, 4, 0.2, 0.8, 2.0, ValueError,
     "predictive density sums to 1.0000000000010647, not 1"),
    (60, 10, 0.4, 0.6, 0.5, ArithmeticError,
     "beta measure lost to cancellation on [0.4, 0.6] (alpha=0.5, beta=71.0)"),
    (60, 10, 0.4, 0.6, 1.0, ArithmeticError,
     "beta measure lost to cancellation on [0.4, 0.6] (alpha=1.0, beta=71.0)"),
    (60, 10, 0.4, 0.6, 2.0, ValueError,
     "predictive density sums to 1.0008259289482042, not 1"),
    (60, 10, 0.2, 0.8, 0.5, ValueError,
     "predictive density sums to 0.9999999992251952, not 1"),
    (60, 10, 0.2, 0.8, 1.0, ValueError,
     "predictive density sums to 0.9999999997248664, not 1"),
    (60, 10, 0.2, 0.8, 2.0, ValueError,
     "predictive density sums to 1.000000000027006, not 1"),
    (80, 4, 0.4, 0.6, 0.5, ArithmeticError,
     "beta measure lost to cancellation on [0.4, 0.6] (alpha=0.5, beta=81.0)"),
    (80, 4, 0.4, 0.6, 1.0, ArithmeticError,
     "beta measure lost to cancellation on [0.4, 0.6] (alpha=1.0, beta=81.0)"),
    (80, 4, 0.4, 0.6, 2.0, ArithmeticError,
     "beta measure lost to cancellation on [0.4, 0.6] (alpha=2.0, beta=81.0)"),
    (80, 4, 0.2, 0.8, 0.5, ValueError,
     "predictive density sums to 1.000000007368513, not 1"),
    (80, 4, 0.2, 0.8, 1.0, ValueError,
     "predictive density sums to 0.9999999686488972, not 1"),
    (80, 4, 0.2, 0.8, 2.0, ValueError,
     "predictive density sums to 1.0000000011024857, not 1"),
    (80, 4, 0.1, 0.3, 0.5, ValueError,
     "predictive density sums to 0.9999999999974684, not 1"),
    (80, 4, 0.1, 0.3, 1.0, ValueError,
     "predictive density sums to 0.999999999998765, not 1"),
    (80, 10, 0.4, 0.6, 0.5, ArithmeticError,
     "beta measure lost to cancellation on [0.4, 0.6] (alpha=0.5, beta=81.0)"),
    (80, 10, 0.4, 0.6, 1.0, ArithmeticError,
     "beta measure lost to cancellation on [0.4, 0.6] (alpha=1.0, beta=81.0)"),
    (80, 10, 0.4, 0.6, 2.0, ArithmeticError,
     "beta measure lost to cancellation on [0.4, 0.6] (alpha=2.0, beta=81.0)"),
    (80, 10, 0.2, 0.8, 0.5, ValueError,
     "predictive density sums to 0.9999999251008682, not 1"),
    (80, 10, 0.2, 0.8, 1.0, ValueError,
     "predictive density sums to 0.9999999974513001, not 1"),
    (80, 10, 0.2, 0.8, 2.0, ValueError,
     "predictive density sums to 1.0000000042059765, not 1"),
    (80, 10, 0.1, 0.3, 2.0, ValueError,
     "predictive density sums to 0.9999999999986641, not 1"),
    (200, 4, 0.4, 0.6, 0.5, ArithmeticError,
     "beta measure lost to cancellation on [0.4, 0.6] (alpha=0.5, beta=201.0)"),
    (200, 4, 0.4, 0.6, 1.0, ArithmeticError,
     "beta measure lost to cancellation on [0.4, 0.6] (alpha=1.0, beta=201.0)"),
    (200, 4, 0.4, 0.6, 2.0, ArithmeticError,
     "beta measure lost to cancellation on [0.4, 0.6] (alpha=2.0, beta=201.0)"),
    (200, 4, 0.2, 0.8, 0.5, ArithmeticError,
     "beta measure lost to cancellation on [0.2, 0.8] (alpha=0.5, beta=201.0)"),
    (200, 4, 0.2, 0.8, 1.0, ArithmeticError,
     "beta measure lost to cancellation on [0.2, 0.8] (alpha=1.0, beta=201.0)"),
    (200, 4, 0.2, 0.8, 2.0, ArithmeticError,
     "beta measure lost to cancellation on [0.2, 0.8] (alpha=2.0, beta=201.0)"),
    (200, 4, 0.1, 0.3, 0.5, ValueError,
     "predictive density sums to 1.000003365907977, not 1"),
    (200, 4, 0.1, 0.3, 1.0, ValueError,
     "predictive density sums to 1.0000006511809334, not 1"),
    (200, 4, 0.1, 0.3, 2.0, ValueError,
     "predictive density sums to 0.9999999078844601, not 1"),
    (200, 4, 0.05, 0.5, 0.5, ValueError,
     "predictive density sums to 0.9999999999904908, not 1"),
    (200, 4, 0.05, 0.5, 1.0, ValueError,
     "predictive density sums to 0.9999999999929867, not 1"),
    (200, 4, 0.05, 0.5, 2.0, ValueError,
     "predictive density sums to 0.9999999999970517, not 1"),
    (200, 10, 0.4, 0.6, 0.5, ArithmeticError,
     "beta measure lost to cancellation on [0.4, 0.6] (alpha=0.5, beta=201.0)"),
    (200, 10, 0.4, 0.6, 1.0, ArithmeticError,
     "beta measure lost to cancellation on [0.4, 0.6] (alpha=1.0, beta=201.0)"),
    (200, 10, 0.4, 0.6, 2.0, ArithmeticError,
     "beta measure lost to cancellation on [0.4, 0.6] (alpha=2.0, beta=201.0)"),
    (200, 10, 0.2, 0.8, 0.5, ArithmeticError,
     "beta measure lost to cancellation on [0.2, 0.8] (alpha=0.5, beta=201.0)"),
    (200, 10, 0.2, 0.8, 1.0, ArithmeticError,
     "beta measure lost to cancellation on [0.2, 0.8] (alpha=1.0, beta=201.0)"),
    (200, 10, 0.2, 0.8, 2.0, ArithmeticError,
     "beta measure lost to cancellation on [0.2, 0.8] (alpha=2.0, beta=201.0)"),
    (200, 10, 0.1, 0.3, 0.5, ValueError,
     "predictive density sums to 1.0000000377873048, not 1"),
    (200, 10, 0.1, 0.3, 1.0, ValueError,
     "predictive density sums to 1.0000007721832693, not 1"),
    (200, 10, 0.1, 0.3, 2.0, ValueError,
     "predictive density sums to 0.999999970362004, not 1"),
    (200, 10, 0.05, 0.5, 0.5, ValueError,
     "predictive density sums to 1.0000000000013083, not 1"),
    (200, 10, 0.05, 0.5, 1.0, ValueError,
     "predictive density sums to 0.999999999987876, not 1"),
    (200, 10, 0.05, 0.5, 2.0, ValueError,
     "predictive density sums to 0.9999999999987559, not 1"),
]


PRIOR_MODES = [
    lambda a, b: PriorSpec(a, b),
    lambda a, b: PriorSpec(a, b, p_bar=0.3),
    lambda a, b: PriorSpec(a, b, p_bar=0.4, p_lo=0.1),
]


class TestTableSet:
    @pytest.mark.parametrize("mode", PRIOR_MODES, ids=["none", "upper", "interval"])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_every_table_is_its_one_point_masses_bit_for_bit(self, mode, a, b):
        # the set and each one-point call read the same measures, with the
        # same float arguments
        prior = mode(a, b)
        for n in range(1, 13):
            for l in range(1, 7):
                setup = BinomialSetup(n=n, l=l)
                for x, table in enumerate(bayes_predictive_tables(setup, prior)):
                    masses = tuple(bayes_predictive(y, x, setup, prior) for y in range(l + 1))
                    assert [v.hex() for v in table.density] == [v.hex() for v in masses]
                    assert table.x == x

    @pytest.mark.parametrize("n, l", [(1, 1), (4, 5), (8, 3), (12, 6)])
    @pytest.mark.parametrize("mode", PRIOR_MODES, ids=["none", "upper", "interval"])
    def test_one_measure_per_numerator_and_per_denominator(
        self, monkeypatch, cold_measures, mode, n, l
    ):
        # (n + l + 1) numerators M(k+a, n+l-k+b) and n + 1 denominators,
        # where building the tables one by one takes (n + 1)(l + 2)
        calls = []

        def counting(*args):
            calls.append(args)
            return _log_beta_measure(*args)

        monkeypatch.setattr(predictive, "_log_beta_measure", counting)
        prior = mode(2.0, 0.5)
        bayes_predictive_tables(BinomialSetup(n=n, l=l), prior)
        assert len(calls) == (n + l + 1) + (n + 1)
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize("mode", PRIOR_MODES[1:], ids=["upper", "interval"])
    def test_configurations_share_their_measures(self, monkeypatch, cold_measures, mode):
        # (3, 4) and (4, 3) share the numerator total 7, so the second set
        # computes only its five denominators M(x+a, 4-x+b), not all 13 of
        # its measures
        prior = mode(2.0, 0.5)
        lo, hi = prior.support
        bayes_predictive_tables(BinomialSetup(n=3, l=4), prior)
        calls, measure = [], predictive._log_beta_measure
        monkeypatch.setattr(
            predictive, "_log_beta_measure", lambda *args: calls.append(args) or measure(*args)
        )
        warm = bayes_predictive_tables(BinomialSetup(n=4, l=3), prior)
        assert calls == [(x + 2.0, 4 - x + 0.5, lo, hi) for x in range(5)]
        predictive._log_measure.cache_clear()
        cold = bayes_predictive_tables(BinomialSetup(n=4, l=3), prior)
        assert [[v.hex() for v in t.density] for t in warm] == [
            [v.hex() for v in t.density] for t in cold
        ]

    def test_a_shuffled_sweep_equals_cold_builds(self, cold_measures):
        # the acceptance sweep's configurations in a seeded random order,
        # each set against a build with an empty memo
        configs = list(
            itertools.product(
                range(1, 9), range(1, 6), [0.5, 1.0, 2.0], [0.5, 1.0, 2.0], PRIOR_MODES
            )
        )
        random.Random(2103).shuffle(configs)
        warm = []
        for n, l, a, b, mode in configs:
            tables = bayes_predictive_tables(BinomialSetup(n=n, l=l), mode(a, b))
            warm.append([[v.hex() for v in t.density] for t in tables])
        for (n, l, a, b, mode), hexes in zip(configs, warm):
            predictive._log_measure.cache_clear()
            tables = bayes_predictive_tables(BinomialSetup(n=n, l=l), mode(a, b))
            assert [[v.hex() for v in t.density] for t in tables] == hexes

    @pytest.mark.parametrize("n, l, p_lo, p_bar, a, error, message", FAILING)
    def test_failing_configurations_raise_what_they_raised_table_by_table(
        self, n, l, p_lo, p_bar, a, error, message
    ):
        # literals from building the tables one by one; the masses are read in
        # first-use order and each table is validated before the next one's
        # measures, so the first failure is the same one
        with pytest.raises(error) as caught:
            bayes_predictive_tables(BinomialSetup(n=n, l=l), PriorSpec(a, 1.0, p_bar, p_lo))
        assert type(caught.value) is error and str(caught.value) == message

    @pytest.mark.parametrize(
        "n, l, p_lo, p_bar, a, error, message", [case for case in FAILING if case[0] == 30]
    )
    def test_a_warm_memo_raises_what_a_cold_one_raises(
        self, monkeypatch, cold_measures, n, l, p_lo, p_bar, a, error, message
    ):
        # (10, 20) builds, and its numerators M(k+a, 30-k+1) are the failing
        # set's 31 denominators; a second attempt finds every measure the
        # first one computed
        prior = PriorSpec(a, 1.0, p_bar, p_lo)
        bayes_predictive_tables(BinomialSetup(n=10, l=20), prior)
        calls, measure = [], predictive._log_beta_measure
        monkeypatch.setattr(
            predictive, "_log_beta_measure", lambda *args: calls.append(args) or measure(*args)
        )
        for computes in (True, False):
            with pytest.raises(error) as caught:
                bayes_predictive_tables(BinomialSetup(n=n, l=l), prior)
            assert type(caught.value) is error and str(caught.value) == message
            # numerators only, and none on the second attempt
            assert all(alpha + beta == n + l + a + 1.0 for alpha, beta, *_ in calls)
            assert bool(calls) is computes
            calls.clear()
