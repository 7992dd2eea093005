"""Posterior-mean estimators under the three restriction modes."""

import math
import random
from array import array
from functools import cached_property

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from binrisk import dominance, estimators, incbeta
from binrisk.binom import BinomialSetup, PriorSpec
from binrisk.dominance import (
    _j_rows,
    exhaustive_dominance_check,
    max_risk_diff_symmetric_n1,
    smallpbar_sufficient_conditions,
)
from binrisk.estimators import EstimateTable, posterior_mean
from binrisk.incbeta import SingularBoundError, _log_I
from binrisk.predictive import PredictiveTable
from binrisk.risk import point_risk

from conftest import (
    eval_I,
    filled,
    log_rows,
    loss_row,
    pair_rows,
    quad_posterior_mean,
    two_pass_upper_table,
)

A_B_GRID = [0.5, 1.0, 2.0]
TABLE_CACHES = (estimators._build_table, estimators._build_large_table)


def clear_tables():
    for cache in TABLE_CACHES:
        cache.cache_clear()


class TestUnrestricted:
    def test_examples(self):
        assert posterior_mean(1, PriorSpec(1.0, 1.0), 2) == pytest.approx(0.5)
        assert posterior_mean(0, PriorSpec(0.5, 0.5), 1) == pytest.approx(0.25)
        assert posterior_mean(9, PriorSpec(1.0, 1.0), 9) == pytest.approx(
            10.0 / 11.0
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            posterior_mean(3, PriorSpec(1.0, 1.0), 2)
        with pytest.raises(ValueError):
            posterior_mean(0, PriorSpec(-1.0, 1.0), 1)


class TestUpperTruncated:
    def test_wide_bound_recovers_unrestricted(self):
        loose = posterior_mean(2, PriorSpec(1.0, 1.0, p_bar=1.0 - 1e-6), 5)
        assert loose == pytest.approx(
            posterior_mean(2, PriorSpec(1.0, 1.0), 5), abs=1e-4
        )

    def test_tiny_bound_forces_zero(self):
        assert posterior_mean(2, PriorSpec(1.0, 1.0, p_bar=1e-6), 5) < 1e-6

    def test_exact_rational_value(self):
        # x=0, n=1, a=b=1, p_bar=1/2: ratio of polynomial integrals = 2/9
        assert posterior_mean(0, PriorSpec(1.0, 1.0, p_bar=0.5), 1) == pytest.approx(
            2.0 / 9.0, rel=1e-12, abs=0
        )

    def test_stays_inside_restriction(self):
        for pb in (0.1, 0.4, 0.8):
            for x in range(6):
                v = posterior_mean(x, PriorSpec(1.0, 2.0, p_bar=pb), 5)
                assert 0.0 < v < pb

    @pytest.mark.parametrize("a", A_B_GRID)
    @pytest.mark.parametrize("b", A_B_GRID)
    def test_ratio_identities(self, a, b):
        # trunc/unres = 1 - 1/{(x+a) I}; (1-trunc)/(1-unres) = 1 + 1/{(n-x+b) I}
        n, pb = 6, 0.35
        for x in range(n + 1):
            i_val = eval_I(x + a, n + a + b, pb)
            trunc = posterior_mean(x, PriorSpec(a, b, p_bar=pb), n)
            unres = posterior_mean(x, PriorSpec(a, b), n)
            assert trunc / unres == pytest.approx(
                1.0 - 1.0 / ((x + a) * i_val), rel=1e-10
            )
            assert (1.0 - trunc) / (1.0 - unres) == pytest.approx(
                1.0 + 1.0 / ((n - x + b) * i_val), rel=1e-10
            )


class TestATerm:
    """The interval correction A(x) = (x+a) - (n+a+b) posterior_mean."""

    @staticmethod
    def a_term(x, n, a, b, lo, hi):
        # undoing the estimate's last steps costs a few ulps, far below
        # every tolerance here
        return (x + a) - (n + a + b) * posterior_mean(
            x, PriorSpec(a, b, p_bar=hi, p_lo=lo), n
        )

    def test_symmetric_midpoint_zero(self):
        assert self.a_term(1, 2, 1.0, 1.0, 0.3, 0.7) == 0.0

    def test_sign_follows_half(self):
        assert self.a_term(0, 2, 1.0, 1.0, 0.3, 0.7) < 0.0
        assert self.a_term(2, 2, 1.0, 1.0, 0.3, 0.7) > 0.0

    def test_polynomial_oracle(self):
        # x=0, n=1, a=b=1: [p(1-p)^2] from 0.25 to 0.5 over int of (1-p)
        num = 0.5 * 0.25 - 0.25 * 0.5625
        den = (0.5 - 0.5**2 / 2.0) - (0.25 - 0.25**2 / 2.0)
        assert self.a_term(0, 1, 1.0, 1.0, 0.25, 0.5) == pytest.approx(
            num / den, rel=1e-12, abs=0
        )

    def test_small_lower_bound_matches_upper_correction(self):
        # with the lower cut removed, A/(n+a+b) is the one-sided correction
        x, n, a, b, pb = 1, 3, 1.0, 1.0, 0.4
        a_val = self.a_term(x, n, a, b, 1e-12, pb)
        expected = 1.0 / eval_I(x + a, n + a + b, pb)
        assert a_val == pytest.approx(expected, rel=1e-9)


class TestTwoSided:
    def test_symmetric_center(self):
        assert posterior_mean(
            1, PriorSpec(1.0, 1.0, p_bar=0.7, p_lo=0.3), 2
        ) == pytest.approx(0.5, abs=1e-14)
        assert posterior_mean(
            2, PriorSpec(0.7, 0.7, p_bar=0.8, p_lo=0.2), 4
        ) == pytest.approx(0.5, abs=1e-14)

    def test_small_lower_bound_recovers_upper_truncated(self):
        two = posterior_mean(1, PriorSpec(1.0, 1.0, p_bar=0.4, p_lo=1e-12), 3)
        one = posterior_mean(1, PriorSpec(1.0, 1.0, p_bar=0.4), 3)
        assert two == pytest.approx(one, rel=1e-10)

    def test_quadrature_value(self):
        assert posterior_mean(
            1, PriorSpec(1.0, 1.0, p_bar=0.75, p_lo=0.25), 1
        ) == pytest.approx(quad_posterior_mean(1, 1, 1.0, 1.0, 0.25, 0.75), rel=1e-10)

    def test_stays_inside_restriction(self):
        for x in range(5):
            v = posterior_mean(x, PriorSpec(2.0, 0.5, p_bar=0.45, p_lo=0.15), 4)
            assert 0.15 < v < 0.45


class TestOracleEquivalence:
    @pytest.mark.parametrize("a", A_B_GRID)
    @pytest.mark.parametrize("b", A_B_GRID)
    @pytest.mark.parametrize(
        "lo,hi", [(0.0, 1.0), (0.0, 0.3), (0.1, 0.4)]
    )
    def test_matches_quadrature_ratio(self, a, b, lo, hi):
        for n in (1, 4, 9):
            prior = PriorSpec(
                a=a,
                b=b,
                p_bar=None if hi == 1.0 else hi,
                p_lo=None if lo == 0.0 else lo,
            )
            for x in range(n + 1):
                assert posterior_mean(x, prior, n) == pytest.approx(
                    quad_posterior_mean(x, n, a, b, lo, hi), rel=1e-8
                )


class TestMonotonicity:
    @pytest.mark.parametrize(
        "prior",
        [
            PriorSpec(a=1.0, b=1.0),
            PriorSpec(a=0.5, b=2.0, p_bar=0.3),
            PriorSpec(a=2.0, b=0.5, p_bar=0.4, p_lo=0.1),
        ],
    )
    def test_strictly_increasing_in_x(self, prior):
        for n in range(1, 21):
            vals = [posterior_mean(x, prior, n) for x in range(n + 1)]
            assert all(y > v for v, y in zip(vals, vals[1:]))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 12),
        a=st.floats(0.3, 3.0),
        b=st.floats(0.3, 3.0),
        pb=st.floats(0.1, 0.9),
        frac=st.floats(0.05, 0.9),
    )
    def test_random_priors_monotone_and_in_support(self, n, a, b, pb, frac):
        prior = PriorSpec(a=a, b=b, p_bar=pb, p_lo=frac * pb)
        vals = [posterior_mean(x, prior, n) for x in range(n + 1)]
        assert all(y > v for v, y in zip(vals, vals[1:]))
        assert all(frac * pb < v < pb for v in vals)


class TestEstimateTable:
    def test_build_and_index(self):
        table = EstimateTable.build(BinomialSetup(n=3), PriorSpec(a=1.0, b=1.0))
        assert table[2] == pytest.approx(3.0 / 5.0)
        assert len(table.values) == 4

    def test_rejects_out_of_support_values(self):
        setup = BinomialSetup(n=1)
        prior = PriorSpec(a=1.0, b=1.0, p_bar=0.3)
        with pytest.raises(ValueError):
            EstimateTable(setup=setup, prior=prior, values=(0.1, 0.5))
        with pytest.raises(ValueError):
            EstimateTable(setup=setup, prior=prior, values=(0.1,))

    def test_scalar_reads_the_validated_table(self):
        # the correction form gives 0.352 at x = 0, outside [0.4, 0.6]; the
        # table rejects it, and with it every x of the table, as a numerical
        # failure, since the prior and n are valid
        prior = PriorSpec(1.0, 1.0, p_lo=0.4, p_bar=0.6)
        for x in (0, 30):
            with pytest.raises(estimators.OutOfSupportError, match="outside the restriction"):
                posterior_mean(x, prior, 65)

    def test_scalar_calls_build_one_table(self):
        prior = PriorSpec(a=1.3, b=0.7, p_bar=0.45, p_lo=0.05)
        clear_tables()
        values = [posterior_mean(x, prior, 20) for x in range(21)]
        assert estimators._build_table.cache_info().misses == 1
        assert tuple(values) == EstimateTable.build(BinomialSetup(n=20), prior).values


class TestTableRows:
    """Each table carries the p-free log rows of its risk sums, kept as
    long as the table is."""

    def test_rows_are_built_once_per_table(self, monkeypatch):
        calls = []
        build = EstimateTable.__dict__["_logs"].func

        def counting(table):
            calls.append(table.values)
            return build(table)

        rows = cached_property(counting)
        rows.__set_name__(EstimateTable, "_logs")
        monkeypatch.setattr(EstimateTable, "_logs", rows)
        setup, prior = BinomialSetup(n=300), PriorSpec(a=1.5, b=2.0, p_bar=0.4)
        values = EstimateTable.build(setup, prior).values
        table = EstimateTable(setup=setup, prior=prior, values=values)
        for k in range(1, 10):
            point_risk(table, k / 10)
        assert len(calls) == 1 and calls[0] is values
        log_ds, log_es = [math.log(d) for d in values], [math.log1p(-d) for d in values]
        # a table of 301 estimates fills its rows where the sums read them;
        # read whole, they are the logs of every estimate
        rows, ceiling = log_rows(table), table._logs[2]
        assert tuple(map(list, rows)) == (log_ds, log_es) and (
            ceiling == max(-min(log_ds), -min(log_es))
        )
        assert len(calls) == 1 and table._logs[:2] == rows

    @pytest.mark.parametrize("n", [1, 63, 64, 300])
    def test_rows_of_at_most_64_estimates_are_whole_lists(self, n):
        # a short table's rows are built whole, as lists, with no fill; a
        # long one's are packed rows of the table's length that hold NaN
        # where no sum has read them, and its fill computes both over a span
        table = EstimateTable.build(BinomialSetup(n=n), PriorSpec(a=1.5, b=2.0, p_bar=0.4))
        log_ds, log_es, ceiling, fill = EstimateTable(table.setup, table.prior, table.values)._logs
        kind = list if n + 1 <= 64 else array
        assert type(log_ds) is type(log_es) is kind and len(log_ds) == len(log_es) == n + 1
        assert ceiling == max(-math.log(min(table.values)), -math.log1p(-max(table.values)))
        if n + 1 <= 64:
            assert fill is None and None not in log_ds + log_es
            return
        assert filled(log_ds) == filled(log_es) == 0
        fill(10, 20)
        fill(40, 50)  # the stretch between the two spans is filled too
        assert [x for x, v in enumerate(log_ds) if v == v] == list(range(10, 50))
        assert list(log_ds[10:50]) == [math.log(d) for d in table.values[10:50]]
        assert list(log_es[10:50]) == [math.log1p(-d) for d in table.values[10:50]]

    @settings(max_examples=200, deadline=None)
    @given(
        mode=st.sampled_from(["none", "upper", "interval"]),
        n=st.integers(1, 12),
        a=st.floats(0.3, 5.0),
        b=st.floats(0.3, 5.0),
        pb=st.floats(1e-6, 0.99),
        frac=st.floats(0.05, 0.9),
        p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_no_loss_exceeds_the_ceiling(self, mode, n, a, b, pb, frac, p):
        # the certificate of the risk sums bounds each loss the core window
        # leaves out by 2 ceiling + 1; rounding keeps every loss within a
        # few ulps of the ceiling itself
        prior = {
            "none": PriorSpec(a, b),
            "upper": PriorSpec(a, b, p_bar=pb),
            "interval": PriorSpec(a, b, p_bar=pb, p_lo=frac * pb),
        }[mode]
        log_ds, log_es, ceiling, _ = EstimateTable.build(BinomialSetup(n=n), prior)._logs
        losses = loss_row([1.0] * (n + 1), log_ds, log_es, p)
        assert max(losses) <= 2.0 * ceiling + 1.0
        assert max(losses) <= ceiling * (1.0 + 2.0**-50)

    @pytest.mark.parametrize("n", [12, 300])
    def test_rows_leave_equality_hash_and_repr_alone(self, n):
        setup, prior = BinomialSetup(n=n), PriorSpec(a=1.0, b=1.0, p_lo=0.1, p_bar=0.7)
        table = EstimateTable.build(setup, prior)
        point_risk(table, 0.3)
        assert "_logs" in vars(table)
        fresh = EstimateTable(setup, prior, table.values)
        assert "_logs" not in vars(fresh)
        assert table == fresh and hash(table) == hash(fresh)
        assert repr(table) == repr(fresh)

    @pytest.mark.parametrize("n", [1, 40, 63, 64, 255, 256, 3000])
    def test_hand_built_copy_gives_the_same_risk(self, n):
        prior = PriorSpec(a=0.5, b=3.0, p_bar=0.45)
        built = EstimateTable.build(BinomialSetup(n=n), prior)
        copy = EstimateTable(setup=BinomialSetup(n=n), prior=prior, values=built.values)
        for p in (1e-9, 0.01, 0.3, 0.45, 0.9):
            assert point_risk(copy, p).hex() == point_risk(built, p).hex()

    @pytest.mark.parametrize("n", [10, 100])
    def test_the_pair_builds_no_untruncated_table(self, n):
        # a restricted table reads its pair from rho = d_u/d - 1, which its
        # builder kept: c(x+1)/(p_bar s) from the upper row, A(x)/(s d) from
        # the interval's corrections; so the pair builds and holds no table
        # of untruncated estimates, and its ceiling equals the one read from
        # that table
        setup = BinomialSetup(n=n)
        for p_lo in (None, 0.2):
            clear_tables()
            prior = PriorSpec(a=1.5, b=2.0, p_bar=0.4 if p_lo is None else 0.8, p_lo=p_lo)
            table = EstimateTable.build(setup, prior)
            misses = [cache.cache_info().misses for cache in TABLE_CACHES]
            _, _, ceiling, fill = table._pair
            alphas, betas = pair_rows(table)
            assert [cache.cache_info().misses for cache in TABLE_CACHES] == misses
            s, ds = n + 3.5, table.values
            if p_lo is None:
                kept, rhos = [], [c / 0.4 / s for c in table._c_row[1:]]
            else:
                kept = [tuple(estimators._correction(x, s, prior) for x in range(n + 1))]
                rhos = [A / (s * d) for A, d in zip(kept[0], ds)]
            if fill is not None:  # the rows' and rho's entries hold d and the corrections
                entries = (*fill.__self__._entries, table._rhos)
                held = [arg for part in entries for arg in part.args if isinstance(arg, tuple)]
                assert [arg for arg in held if arg is not ds] == kept
            assert list(alphas) == [math.log1p(rho) for rho in rhos]
            assert list(betas) == [
                -math.log1p(rho * (s * d) / (n - x + 2.0))
                for x, (rho, d) in enumerate(zip(rhos, ds))
            ]
            twin = EstimateTable.build(setup, PriorSpec(a=1.5, b=2.0)).values
            assert ceiling == 2.0 * max(estimators._ceiling(twin), estimators._ceiling(ds))

    def test_only_tables_of_at_most_64_estimates_go_to_the_4096_cache(self):
        # the caches split where the log rows do: whole rows by the thousand
        clear_tables()
        prior = PriorSpec(a=1.0, b=1.0)
        EstimateTable.build(BinomialSetup(n=63), prior)
        assert estimators._build_table.cache_info().currsize == 1
        assert estimators._build_large_table.cache_info().currsize == 0
        EstimateTable.build(BinomialSetup(n=64), prior)
        assert estimators._build_table.cache_info().currsize == 1
        assert estimators._build_large_table.cache_info().currsize == 1

    def test_at_most_2_long_tables_are_kept(self):
        # the untruncated and restricted pair of one configuration: a third
        # long table drops the first, with its rows, and it is built again
        clear_tables()
        setup = BinomialSetup(n=300)
        priors = [
            PriorSpec(a=1.0, b=1.0),
            PriorSpec(a=1.0, b=1.0, p_bar=0.3),
            PriorSpec(a=2.0, b=1.0),
        ]
        first, second = (EstimateTable.build(setup, prior) for prior in priors[:2])
        for table in (first, second):
            point_risk(table, 0.2)
        EstimateTable.build(setup, priors[2])
        long_tables = estimators._build_large_table.cache_info()
        assert long_tables.misses == 3 and long_tables.currsize == 2
        assert estimators._build_table.cache_info().currsize == 0
        assert EstimateTable.build(setup, priors[1]) is second
        rebuilt = EstimateTable.build(setup, priors[0])
        assert rebuilt is not first and "_logs" not in vars(rebuilt)


ROW_NS = [1, 2, 5, 12, 32, 300, 1000, 3000]
ROW_P_BARS = [1e-5, 0.05, 0.3, 0.6, 0.95, 0.999]
ROW_SHAPES = [(1.0, 1.0), (0.5, 3.0), (2.0, 0.5)]
# 50 digits agree with 40 + n/20 digits to 1e-47 at every point sampled here
ROW_DPS = 50


def _row_case(n, p_bar):
    """The (a, b) of one sweep point, cycling over ROW_SHAPES, and the x < n
    it samples: both ends, the middle and the count nearest n p_bar."""
    a, b = ROW_SHAPES[(ROW_NS.index(n) + ROW_P_BARS.index(p_bar)) % len(ROW_SHAPES)]
    return a, b, sorted({0, n // 2, int(p_bar * n), n - 1})


def upper_error(value, x, n, a, b, p_bar):
    """The relative error of value as the upper-truncated estimate at x."""
    with mpmath.workdps(ROW_DPS):
        alpha, beta = mpmath.mpf(x) + a, mpmath.mpf(n - x) + b
        exact = mpmath.betainc(alpha + 1, beta, 0, p_bar) / mpmath.betainc(alpha, beta, 0, p_bar)
        return float(abs(value / exact - 1))


class TestUpperRows:
    """The upper-truncated table and the J rows, both read from the one row
    1/I(x+a, n+a+b+1, p_bar) that the table keeps: a kernel call at
    x = n + 1 and a backward recurrence."""

    @pytest.mark.parametrize("p_bar", ROW_P_BARS)
    @pytest.mark.parametrize("n", ROW_NS)
    def test_table_matches_mpmath(self, n, p_bar):
        a, b, xs = _row_case(n, p_bar)
        table = EstimateTable.build(BinomialSetup(n=n), PriorSpec(a, b, p_bar=p_bar))
        for x in xs:
            assert upper_error(table[x], x, n, a, b, p_bar) < 1e-14, x
        # x = n reads c(n+1), the anchor itself, which is alpha / cf where the
        # lower fraction runs; exp(log M - alpha log r_bar - gamma log(1-p_bar))
        # added and took away terms of size alpha |log p_bar|
        assert upper_error(table[n], n, n, a, b, p_bar) < 2e-15

    @pytest.mark.parametrize(
        "n, a, b, p_bar",
        [
            # p_bar far below the posterior mode, where the correction form
            # (n+a)/s - c(n)/s cancels: 1.8e-7 off, 2.7e-2 off, an estimate
            # above p_bar, and a silent 35.5% error
            (3000, 1.0, 1.0, 1e-5),
            (3000, 0.5, 3.0, 1e-10),
            (3000, 1.0, 1.0, 1e-10),
            (2478, 0.047601545651219955, 0.26627709287052237, 2.380150465934854e-11),
            # x = n was 2.1e-12 off through the anchor's round trip
            (3000, 2.0, 0.5, 1e-5),
        ],
    )
    def test_far_bounds_match_mpmath_at_every_x(self, n, a, b, p_bar):
        table = EstimateTable.build(BinomialSetup(n=n), PriorSpec(a, b, p_bar=p_bar))
        for x in (0, n // 2, n - 1):
            assert upper_error(table[x], x, n, a, b, p_bar) < 1e-14, x
        # x = n reads the anchor, 1.3e-11 off at p_bar = 1e-10 by its round trip
        assert upper_error(table[n], n, n, a, b, p_bar) < 2e-15

    def test_random_tables_all_build(self):
        # the correction form at x = n gave 28 of these an estimate outside
        # (0, p_bar], which the table rejects
        rng = random.Random(2024)
        for _ in range(500):
            n = int(10 ** rng.uniform(0.0, 3.5))
            a, b = 10 ** rng.uniform(-1.5, 1.5), 10 ** rng.uniform(-1.5, 1.5)
            p_bar = 10 ** rng.uniform(-12.0, -0.01)
            estimators._estimate_table(BinomialSetup(n=n), PriorSpec(a, b, p_bar=p_bar))

    @pytest.mark.parametrize("p_bar", ROW_P_BARS)
    @pytest.mark.parametrize("n", ROW_NS)
    def test_j_rows_match_mpmath(self, n, p_bar):
        a, b, xs = _row_case(n, p_bar)
        gamma = n + a + b + 1.0
        table = EstimateTable.build(BinomialSetup(n=n), PriorSpec(a, b, p_bar=p_bar))
        c_row = table._c_row
        assert len(c_row) == n + 2
        with mpmath.workdps(ROW_DPS):
            q = 1 - mpmath.mpf(p_bar)
            for x in xs + [n]:
                alpha = mpmath.mpf(x) + a
                exact = mpmath.betainc(alpha, gamma - alpha, 0, p_bar) * (q / p_bar) ** alpha / q**gamma
                if exact < 1e300:
                    # x = n is one recurrence step from the anchor at n + 1
                    assert abs(1.0 / c_row[x] / exact - 1) < (2e-13 if x == n else 1e-13), x
        # the anchor at x = n + 1 is the kernel's own value
        assert c_row[n + 1] == math.exp(-_log_I(n + 1 + a, gamma, p_bar))
        rows = _j_rows(table)
        # no rows exactly where some I = 1/c(x) is beyond double range,
        # c = 0.0 included
        assert (rows is None) == any(not c or 1.0 / c == math.inf for c in c_row[: n + 1])
        if rows is not None:
            # the table's own c(0..n), bit for bit, and their reciprocals
            i_row, inv = rows
            assert [c.hex() for c in inv] == [c.hex() for c in c_row[: n + 1]]
            assert i_row == [1.0 / c for c in inv]

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (3.0, 3.0), (0.5, 2.0)])
    @pytest.mark.parametrize("n", [10, 59, 300, 3000])
    @pytest.mark.parametrize("p_bar", [0.9999, 1.0 - 1e-6, 1.0 - 1e-9])
    def test_last_two_c_match_mpmath_near_one(self, p_bar, n, a, b):
        # the anchor I(n+1+a, gamma, p_bar) is rescaled by p_bar^alpha
        # (1-p_bar)^beta; its rescale as r_bar^alpha (1-p_bar)^gamma took
        # terms of size gamma |log(1-p_bar)| that cancel to beta |log(1-p_bar)|,
        # and left 30 of these 72 values more than 2e-13 off, 4.1e-12 at worst
        table = EstimateTable.build(BinomialSetup(n=n), PriorSpec(a, b, p_bar=p_bar))
        gamma = n + a + b + 1.0
        with mpmath.workdps(ROW_DPS):
            q = 1 - mpmath.mpf(p_bar)
            for x in (n - 1, n):
                alpha = mpmath.mpf(x) + a
                exact = mpmath.betainc(alpha, gamma - alpha, 0, p_bar) * (q / p_bar) ** alpha / q**gamma
                assert abs(table._c_row[x] * exact - 1) < 2e-13, x

    @pytest.mark.parametrize(
        "a, b, p_bar",
        [(1.0, 1.0, 0.3), (0.5, 3.0, 1e-5), (2.0, 0.5, 0.95), (0.05, 0.3, 0.999), (0.1, 0.2, 0.3)],
    )
    @pytest.mark.parametrize("n", [1, 63, 64, 300, 3000])
    def test_one_pass_equals_the_two_pass_build(self, n, a, b, p_bar):
        # the row is written packed and each estimate formed from the c it
        # has just read, with the operands and order of the two-pass build;
        # under (0.1, 0.2) at n = 1 and 63, (s + 1) - 1 is not s
        table = estimators._estimate_table(BinomialSetup(n=n), PriorSpec(a, b, p_bar=p_bar))
        values, c_row = two_pass_upper_table(n, a, b, p_bar)
        assert isinstance(table._c_row, array) and len(table._c_row) == n + 2
        assert all(new == old for new, old in zip(table.values, values, strict=True))
        assert all(new == old for new, old in zip(table._c_row, c_row, strict=True))
        if (n, p_bar) in ((3000, 0.95), (3000, 0.999)):
            assert 0.0 in c_row  # c that underflows stays 0.0 in both

    def test_underflowed_row_gives_the_untruncated_estimate(self):
        n, a, b, p_bar = 3000, 1.0, 1.0, 0.95
        s = n + a + b
        table = EstimateTable.build(BinomialSetup(n=n), PriorSpec(a, b, p_bar=p_bar))
        under = [x for x in range(n + 1) if table._c_row[x + 1] == 0.0]
        assert under
        assert all(table[x] == (x + a) / s for x in under)

    @staticmethod
    def count_fraction_passes(monkeypatch):
        """Counts the continued-fraction passes: an upper I whose lower
        fraction runs takes its pass without a kernel call."""
        fraction = incbeta._betacf
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return fraction(*args)

        monkeypatch.setattr(incbeta, "_betacf", counting)
        return calls

    def test_rows_take_one_kernel_call_at_any_n(self, monkeypatch):
        calls = self.count_fraction_passes(monkeypatch)
        counts = []
        for n in (10, 1000):
            clear_tables()
            calls[0] = 0
            table = EstimateTable.build(BinomialSetup(n=n), PriorSpec(1.0, 1.0, p_bar=0.3))
            table_calls, calls[0] = calls[0], 0
            _j_rows(table)
            counts.append((table_calls, calls[0]))
        # the anchor at x = n + 1 lies on the lower fraction's side, and the
        # J rows read the table's row
        assert counts == [(1, 0), (1, 0)]

    @pytest.mark.parametrize("n", [10, 200], ids=["row-pass", "window-pass"])
    def test_upper_check_takes_two_kernel_calls(self, n, monkeypatch):
        # the table's row gives the estimates, the J rows and c0 of the
        # small-p_bar condition; c_bar = 1/I(a, a+b+1, p_bar) is the other
        calls = self.count_fraction_passes(monkeypatch)
        clear_tables()
        exhaustive_dominance_check(n, 1.0, 1.0, 0.3)
        assert calls == [2]

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("lambda_bar", [0.75, 1.5, 2.0])
    def test_poisson_scale_tables_at_n_1e5_build(self, lambda_bar, a):
        # the correction form put an estimate above p_bar in every one
        n = 100_000
        prior = PriorSpec(a, 1.0, p_bar=lambda_bar / n)
        table = EstimateTable.build(BinomialSetup(n=n), prior)
        assert all(0.0 < v <= prior.p_bar for v in table.values)


# within 1e-12 of 1, where I diverges
SINGULAR = 1.0 - 1e-13
SINGULAR_MESSAGE = "p_bar=0.9999999999999 is within 1e-12 of 1; I diverges"


class TestOneCeilingCheck:
    """The integral family reads checked values; the one check it needs, the
    ceiling on p_bar, runs once per table."""

    def test_interval_table_checks_the_ceiling_once(self, monkeypatch):
        # the bracket term and I at every x checked the prior again: 102
        # ceiling checks, 102 interval checks and 51 shape checks at n = 50
        calls, check = [], incbeta._check_p_bar
        for module in (incbeta, estimators, dominance):
            monkeypatch.setattr(module, "_check_p_bar", lambda p_bar: calls.append(p_bar) or check(p_bar))
        estimators._estimate_table(BinomialSetup(n=50), PriorSpec(2.0, 2.0, p_bar=0.5, p_lo=0.05))
        assert calls == [0.5]

    @pytest.mark.parametrize(
        "entry",
        [
            lambda: EstimateTable.build(BinomialSetup(n=5), PriorSpec(1.0, 1.0, p_bar=SINGULAR)),
            lambda: EstimateTable.build(
                BinomialSetup(n=5), PriorSpec(1.0, 1.0, p_bar=SINGULAR, p_lo=0.3)
            ),
            lambda: max_risk_diff_symmetric_n1(1.0, SINGULAR),
            lambda: smallpbar_sufficient_conditions(5, 1.0, 1.0, SINGULAR),
        ],
        ids=["upper-table", "interval-table", "symmetric-n1", "smallpbar"],
    )
    def test_entries_raise_the_ceiling_error(self, entry):
        # thm32_bound's and standardized_risk_difference's are pinned in
        # tests/test_dominance.py with their other argument checks
        clear_tables()
        with pytest.raises(SingularBoundError) as caught:
            entry()
        assert str(caught.value) == SINGULAR_MESSAGE

    @pytest.mark.parametrize("p_lo", [None, 0.3])
    def test_predictive_tables_need_no_ceiling(self, p_lo):
        # a predictive mass is a ratio of beta measures of the support, finite
        # for any p_bar < 1; 30-digit mpmath gives each mass
        n, l, a, b = 3, 2, 1.0, 2.0
        setup, prior = BinomialSetup(n=n, l=l), PriorSpec(a, b, p_bar=SINGULAR, p_lo=p_lo)
        lo = 0.0 if p_lo is None else p_lo
        for x in range(n + 1):
            table = PredictiveTable.build(setup, prior, x)
            with mpmath.workdps(30):
                den = mpmath.betainc(x + a, n - x + b, lo, SINGULAR)
                for y in range(l + 1):
                    k = x + y
                    num = mpmath.binomial(l, y) * mpmath.betainc(k + a, n + l - k + b, lo, SINGULAR)
                    assert table[y] == pytest.approx(float(num / den), rel=1e-13, abs=0)
