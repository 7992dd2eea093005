"""Dominance conditions, risk-difference bounds, thresholds, grid verdicts."""

import functools
import math
import random
import sys
import time

import mpmath
import numpy
import pytest

from binrisk.dominance import (
    BoundUndefinedError,
    cor41_conditions,
    dominance_threshold_n1,
    exhaustive_dominance_check,
    max_risk_diff_symmetric_n1,
    p_grid,
    risk_curves,
    risk_difference,
    smallpbar_sufficient_conditions,
    standardized_risk_difference,
    thm32_bound,
    thm33_necessary,
    thm34_necessary,
    thm41_conditions,
    threshold_scan,
)
from binrisk import binom, dominance, estimators, incbeta
from binrisk.binom import BinomialSetup, PriorSpec
from binrisk.estimators import EstimateTable
from binrisk.risk import point_risk

from conftest import (
    eval_J,
    filled,
    full_row_difference,
    full_row_dominance,
    log_rows,
    pair_rows,
    max_risk_diff_jeffreys,
    max_risk_diff_uniform,
)

WINDOW_CACHES = (binom._short_windows, binom._long_windows)


def clear_windows():
    for cache in WINDOW_CACHES:
        cache.cache_clear()


class TestNecessaryConditions:
    def test_thm33_examples(self):
        assert thm33_necessary(1, 1.0, 1.0, 0.5) is True  # 0.5 < 2/3
        assert thm33_necessary(1, 1.0, 1.0, 0.7) is False  # 0.7 > 2/3
        assert thm33_necessary(100, 1.0, 1.0, 0.9) is True  # large n

    def test_thm33_contrapositive_positive_difference(self):
        # when the necessary condition fails, the difference at the endpoint
        # must be strictly positive
        for n, a, b in [(1, 1.0, 1.0), (3, 0.5, 2.0)]:
            pb = (n + a) / (n + a + b) + 0.01
            assert risk_difference(pb, n, a, b, pb) > 0.0

    def test_thm34_small_bound_true(self):
        assert thm34_necessary(3, 1.0, 0.01) is True

    def test_thm34_direct_arithmetic(self):
        n, a, pb = 1, 1.0, 0.5
        lhs = pb * math.log1p((1.0 - pb) * (a + 1.0) / (pb * (n + a + 1.0)))
        rhs = (1.0 - pb) * math.log(
            (n + a + 1.0) * (1.0 - pb ** (n + 1)) / ((n + 1.0) * (1.0 - pb))
        )
        assert thm34_necessary(n, a, pb) is (lhs < rhs)

    def test_thm34_near_one(self):
        # both sides shrink to zero approaching the boundary
        assert isinstance(thm34_necessary(2, 1.0, 0.999), bool)

    @pytest.mark.parametrize("p_bar", [-0.2, 0.0, 1.0, 1.5, math.nan])
    def test_p_bar_outside_the_unit_interval_is_rejected(self, p_bar):
        # both used to return a flag or raise ZeroDivisionError, which
        # reads as a numerical failure
        with pytest.raises(ValueError, match="p_bar must be in \\(0, 1\\)"):
            thm33_necessary(5, 1.0, 1.0, p_bar)
        with pytest.raises(ValueError, match="p_bar must be in \\(0, 1\\)"):
            thm34_necessary(5, 1.0, p_bar)


class TestSufficientConditions:
    def test_tiny_upper_bound_satisfies_general(self):
        cond_general, cond_small = smallpbar_sufficient_conditions(
            1, 1.0, 1.0, 0.01
        )
        assert cond_general is True
        assert cond_small is True

    @pytest.mark.parametrize("n, a, b, p_bar", [(4000, 1.0, 1.0, 0.3), (1, 1.0, 400.0, 0.999)])
    def test_an_i_beyond_double_range_fails_them_without_error(self, n, a, b, p_bar):
        # I(a, n+a+b+1, p_bar) and I(a, a+b+1, p_bar) overflow here in
        # turn; the conditions read only their inverses, which are 0.0
        assert smallpbar_sufficient_conditions(n, a, b, p_bar) == (False, False)

    def test_a_tiny_a_reads_the_true_c_bar(self):
        # c_bar = 1/I(1e-25, 2 + 1e-25, 1e-20) is about 1e-25; the clamped
        # kernel made it 1.4e-11 and both conditions read as holding
        assert smallpbar_sufficient_conditions(1, 1e-25, 1.0, 1e-20) == (False, False)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 0.0, 1.0, 2.0), "n must be an integer >= 1, got 0"),
            ((3, 0.0, 1.0, 2.0), "a must be finite and positive, got 0.0"),
            ((3, 1.0, -1.0, 2.0), "b must be finite and positive, got -1.0"),
            ((3, 1.0, 1.0, 2.0), "p_bar must be in (0, 1), got 2.0"),
        ],
    )
    def test_arguments_are_checked_n_first(self, args, message):
        with pytest.raises(ValueError) as caught:
            smallpbar_sufficient_conditions(*args)
        assert type(caught.value) is ValueError and str(caught.value) == message

    def test_small_variant_requires_pbar_below_inverse_n(self):
        _, cond_small = smallpbar_sufficient_conditions(5, 1.0, 1.0, 0.5)
        assert cond_small is False  # 0.5 > 1/5

    def test_thm41_tiny_upper_bound(self):
        c1, c2 = thm41_conditions(1, 1.0, 1.0, 0.005, 0.02)
        assert c1 and c2

    def test_thm41_symmetric_large_bound_fails_first(self):
        c1, _ = thm41_conditions(2, 1.0, 1.0, 0.3, 0.6)
        assert c1 is False  # a = b forces p_bar <= 1/2 and tighter

    def test_cor41_examples(self):
        # a=1, c_lo=0.5, c_bar=1: log(2.5) + 0.5 = 1.416 > 1 fails
        assert cor41_conditions(1.0, 0.5, 1.0) is False
        assert cor41_conditions(1.0, 0.5, 2.5) is False  # c_bar >= a + 1
        # a=2, c_lo=0.5, c_bar=1: log(3.5) + 0.5 = 1.75 < 2 holds
        assert cor41_conditions(2.0, 0.5, 1.0) is True

    def test_thm41_rejects_an_empty_interval(self):
        with pytest.raises(ValueError, match=r"^need 0 < p_lo < p_bar < 1, got \(0\.6, 0\.4\)$"):
            thm41_conditions(5, 1.0, 1.0, 0.6, 0.4)

    def test_cor41_rejects_an_empty_interval(self):
        with pytest.raises(ValueError, match=r"^need 0 < c_lo < c_bar, got \(2\.0, 1\.0\)$"):
            cor41_conditions(1.0, 2.0, 1.0)


class TestBound:
    @pytest.mark.parametrize("n", [1, 5, 9])
    @pytest.mark.parametrize("pb", [0.1, 0.4])
    def test_bound_dominates_standardized_difference(self, n, pb):
        grid = [pb * (i + 1) / 64 for i in range(64)]
        for p in grid:
            assert thm32_bound(p, n, 1.0, 1.0, pb) >= standardized_risk_difference(
                p, n, 1.0, 1.0, pb
            ) - 1e-10

    def test_negative_in_small_regime(self):
        assert thm32_bound(0.05, 1, 1.0, 1.0, 0.1) < 0.0

    def test_standardized_sign_matches_exact_difference(self):
        p, n, a, b, pb = 0.1, 5, 1.0, 1.0, 0.2
        std = standardized_risk_difference(p, n, a, b, pb)
        raw = risk_difference(p, n, a, b, pb)
        assert (std < 0.0) == (raw < 0.0)

    def test_risk_difference_checks_p_before_it_builds_tables(self):
        caches = (estimators._build_table, estimators._build_large_table)
        misses = [cache.cache_info().misses for cache in caches]
        for n in (100_000, 0):  # p is reported before any other bad argument
            with pytest.raises(ValueError, match=r"^p must be in \(0, 1\), got 1.5$"):
                risk_difference(1.5, n, 1.0, 1.0, 0.3)
        assert [cache.cache_info().misses for cache in caches] == misses

    def test_wide_bound_makes_difference_vanish(self):
        assert abs(risk_difference(0.3, 2, 1.0, 1.0, 1.0 - 1e-6)) < 1e-4

    @pytest.mark.parametrize("entry", [thm32_bound, standardized_risk_difference])
    def test_a_j_row_beyond_double_range_leaves_the_bound_undefined(self, entry):
        # I(1, 403, 0.9) is about 3e399: J(p) has no double value, while D does
        with pytest.raises(BoundUndefinedError) as caught:
            entry(0.5, 400, 1.0, 1.0, 0.9)
        assert str(caught.value) == "J(0.5) undefined: I(x+a, 403.0, 0.9) overflows"
        assert math.isfinite(risk_difference(0.5, 400, 1.0, 1.0, 0.9))

    def test_domain_error_p_outside(self):
        with pytest.raises(ValueError):
            thm32_bound(0.5, 1, 1.0, 1.0, 0.4)

    @pytest.mark.parametrize("entry", [thm32_bound, standardized_risk_difference])
    @pytest.mark.parametrize(
        "args, error, message",
        [
            ((0.1, 3, 0.0, 1.0, 0.5), ValueError, "a must be finite and positive, got 0.0"),
            ((0.1, 3, math.nan, 1.0, 0.5), ValueError, "a must be finite and positive, got nan"),
            ((0.1, 3, 1.0, -1.0, 0.5), ValueError, "b must be finite and positive, got -1.0"),
            ((0.1, 0, 1.0, 1.0, 0.5), ValueError, "n must be an integer >= 1, got 0"),
            ((0.1, 2.0, 1.0, 1.0, 0.5), ValueError, "n must be an integer >= 1, got 2.0"),
            ((0.1, 3, 1.0, 1.0, 0.0), ValueError, "p_bar must be in (0, 1), got 0.0"),
            ((0.1, 3, 1.0, 1.0, 1.0), ValueError, "p_bar must be in (0, 1), got 1.0"),
            (
                (0.1, 3, 1.0, 1.0, 1.0 - 1e-13),
                incbeta.SingularBoundError,
                "p_bar=0.9999999999999 is within 1e-12 of 1; I diverges",
            ),
            ((0.6, 3, 1.0, 1.0, 0.5), ValueError, "p must be in (0, p_bar], got p=0.6, p_bar=0.5"),
            ((0.0, 3, 1.0, 1.0, 0.5), ValueError, "p must be in (0, p_bar], got p=0.0, p_bar=0.5"),
            # several bad arguments: shape, then n, then p_bar, then p
            ((7.0, 0, 0.0, 1.0, 2.0), ValueError, "a must be finite and positive, got 0.0"),
            ((7.0, 0, 1.0, 1.0, 2.0), ValueError, "n must be an integer >= 1, got 0"),
            ((7.0, 3, 1.0, 1.0, 2.0), ValueError, "p_bar must be in (0, 1), got 2.0"),
            # bool is an int subclass, but True is no count
            ((0.1, True, 1.0, 1.0, 0.5), ValueError, "n must be an integer >= 1, got True"),
        ],
    )
    def test_public_entries_check_their_arguments(self, entry, args, error, message):
        # the J rows take a, b and n as checked, so each one-point entry
        # checks them itself, in the order the rows' callers always had
        with pytest.raises(error) as caught:
            entry(*args)
        assert type(caught.value) is error and str(caught.value) == message

    def test_odds_weighted_j_monotone_for_small_bound(self):
        # {p/(1-p)} J(p) is nondecreasing on (0, p_bar] when p_bar <= 1/n
        for n, a, b, pb in [(2, 1.0, 1.0, 0.4), (5, 0.5, 2.0, 0.2)]:
            grid = [pb * i / 200 for i in range(1, 201)]
            vals = [p / (1.0 - p) * eval_J(p, n, a, b, pb) for p in grid]
            assert all(y >= v - 1e-15 for v, y in zip(vals, vals[1:]))


class TestSymmetricMaxDifference:
    def test_matches_closed_forms(self):
        for a, closed_form in ((1.0, max_risk_diff_uniform), (0.5, max_risk_diff_jeffreys)):
            for pb in (0.55, 0.65, 0.725, 0.8, 0.9):
                assert max_risk_diff_symmetric_n1(a, pb) == pytest.approx(
                    closed_form(pb), rel=1e-10, abs=1e-12
                )

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_one_beta_measure_per_value(self, a, monkeypatch):
        # the symmetry gives c(1) = -c(0), so one correction, and with it
        # one two-sided measure, serves both log ratios at every a
        calls = []
        measure = incbeta._log_beta_measure

        def spy(*args):
            calls.append(args)
            return measure(*args)

        monkeypatch.setattr(incbeta, "_log_beta_measure", spy)
        max_risk_diff_symmetric_n1(a, 0.7)
        assert len(calls) == 1

    def test_negative_near_center(self):
        # symmetric intervals close to 1/2 always favor the truncated estimator
        for a in (0.5, 1.0, 2.0):
            for pb in (0.51, 0.55):
                assert max_risk_diff_symmetric_n1(a, pb) < 0.0

    def test_matches_exact_risk_difference_maximum(self):
        for a, pb in [(1.0, 0.6), (0.5, 0.8), (2.0, 0.7)]:
            pl = 1.0 - pb
            grid = [pl + (pb - pl) * i / 256 for i in range(257)]
            worst = max(
                risk_difference(p, 1, a, a, pb, p_lo=pl) for p in grid
            )
            assert worst == pytest.approx(
                max_risk_diff_symmetric_n1(a, pb), abs=1e-9
            )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            max_risk_diff_symmetric_n1(1.0, 0.4)

    @pytest.mark.parametrize(
        "a, p_bar",
        [(10.0, 0.99), (20.0, 0.9), (200.0, 0.7), (1000.0, 0.55), (200.0, 0.5001), (2000.0, 0.5001)],
    )
    def test_matches_mpmath_betainc(self, a, p_bar):
        # the log ratios of the untruncated to the truncated estimate, with
        # the truncated one a ratio of mpmath beta measures at 80 + a digits,
        # so the oracle keeps its accuracy as the measures shrink with a
        with mpmath.workdps(int(80 + a)):
            s, pb = mpmath.mpf(a), mpmath.mpf(p_bar)
            pl = 1 - pb
            unres = s / (1 + 2 * s)
            trunc = mpmath.betainc(s + 1, s + 1, pl, pb) / mpmath.betainc(s, s + 1, pl, pb)
            r0 = mpmath.log(unres / trunc)
            r1 = mpmath.log((1 - unres) / (1 - trunc))
            oracle = float((pl**2 + pb**2) * r1 + 2 * pl * pb * r0)
        value = max_risk_diff_symmetric_n1(a, p_bar)
        assert value == pytest.approx(oracle, rel=1e-11, abs=0.0)

    def test_integral_path_returns_a_python_float(self):
        # its complete beta once came from a library that returns numpy.float64
        assert type(max_risk_diff_symmetric_n1(200.0, 0.6)) is float


class TestThreshold:
    def test_root_is_a_sign_change(self):
        root = dominance_threshold_n1(1.0)
        assert max_risk_diff_symmetric_n1(1.0, root - 1e-4) < 0.0
        assert max_risk_diff_symmetric_n1(1.0, root + 1e-4) > 0.0
        assert abs(max_risk_diff_symmetric_n1(1.0, root)) < 1e-5

    def test_roots_decrease_with_heavier_prior(self):
        # flatter priors tolerate wider symmetric intervals
        assert dominance_threshold_n1(0.5) > dominance_threshold_n1(1.0)

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            dominance_threshold_n1(0.0)

    def test_jeffreys_root_matches_independent_oracle(self):
        # root of the a = 1/2 maximum risk difference found by mpmath at 40
        # digits; the bisection stops once its bracket is narrower than
        # 1e-6, so the returned midpoint lies within 1e-6 of the root
        oracle = 0.78008584820426251473332528259343
        assert abs(dominance_threshold_n1(0.5) - oracle) < 1e-6

    @pytest.mark.parametrize("a", [146.36, 200.0])
    def test_root_found_when_the_upper_end_is_rounding_noise(self, a):
        # the sign change lies in (0.5001, 0.6), while the value at the
        # scan's upper end 1 - 1e-4 is below 1e-12; the bisection brackets
        # the scan's first sign change, not its ends
        assert max_risk_diff_symmetric_n1(a, 0.5001) < 0.0
        assert max_risk_diff_symmetric_n1(a, 0.6) > 0.0
        assert abs(max_risk_diff_symmetric_n1(a, 1.0 - 1e-4)) < 1e-12
        root = dominance_threshold_n1(a)
        assert 0.5001 < root < 0.6
        assert max_risk_diff_symmetric_n1(a, root - 1e-4) < 0.0
        assert max_risk_diff_symmetric_n1(a, root + 1e-4) > 0.0

    @pytest.mark.parametrize("a", [3e4, 1e5])
    def test_large_a_root_matches_quadrature_oracle(self, a):
        # the values once came from four log measures of size about 5.5a,
        # whose rounding noise (+2.2e-10 and +4.8e-10 at 0.5001, where the
        # true values are -1.4e-10 and -1.2e-11) hid the sign change here
        assert abs(dominance_threshold_n1(a) - _quadrature_threshold(a)) < 1e-6

    @pytest.mark.parametrize("a", [1e7])
    def test_no_root_when_the_scan_shows_no_sign_change(self, a):
        # the root lies below the scan's first point: 40-digit mpmath
        # quadrature gives +3.4e-16 at 0.5001 and +1.8e-15 at 0.5002
        assert max_risk_diff_symmetric_n1(a, 0.5001) > 0.0
        with pytest.raises(ArithmeticError, match="no sign change"):
            dominance_threshold_n1(a)

    @pytest.mark.parametrize("a", [20.0, 200.0])
    def test_root_matches_mpmath_oracle(self, a):
        # for n = 1 the risk difference is quadratic in p,
        # B + 2p(1-p)(A - B) with A, B the log ratios of the untruncated to
        # the truncated estimate (and of its complement) at x = 0, so its
        # maximum over [1 - p_bar, p_bar] lies at p_bar or at 1/2
        start = time.perf_counter()
        with mpmath.workdps(40):
            s = mpmath.mpf(a)
            unres, half = s / (1 + 2 * s), mpmath.mpf(1) / 2

            def max_diff(p_bar):
                p_lo = 1 - p_bar
                trunc = mpmath.betainc(s + 1, s + 1, p_lo, p_bar) / mpmath.betainc(
                    s, s + 1, p_lo, p_bar
                )
                r0 = mpmath.log(unres / trunc)
                r1 = mpmath.log((1 - unres) / (1 - trunc))
                return max(r1 + 2 * p * (1 - p) * (r0 - r1) for p in (p_bar, half))

            oracle = mpmath.findroot(
                max_diff, (mpmath.mpf("0.5001"), mpmath.mpf("0.6")), solver="anderson"
            )
        assert abs(dominance_threshold_n1(a) - float(oracle)) < 1e-6
        assert time.perf_counter() - start < 2.0


def _quadrature_threshold(a: float) -> float:
    """Root in (0.5001, 0.51) of the n = 1 symmetric maximum risk difference,
    with the truncated mean a ratio of mpmath.quad integrals at 30 digits
    (mpmath.betainc does not converge for a >= 3e4)."""
    with mpmath.workdps(30):
        s = mpmath.mpf(a)
        half = mpmath.mpf(1) / 2
        unres = s / (1 + 2 * s)

        def scaled_measure(al, be, lo, hi):
            # int_lo^hi t^(al-1) (1-t)^(be-1) dt times 2^(al+be-2)
            return mpmath.quad(lambda t: (2 * t) ** (al - 1) * (2 - 2 * t) ** (be - 1), [lo, half, hi])

        def max_diff(p_bar):
            p_lo = 1 - p_bar
            trunc = scaled_measure(s + 1, s + 1, p_lo, p_bar) / scaled_measure(s, s + 1, p_lo, p_bar) / 2
            r0 = mpmath.log(unres / trunc)
            r1 = mpmath.log((1 - unres) / (1 - trunc))
            return max(r1 + 2 * p * (1 - p) * (r0 - r1) for p in (p_bar, half))

        return float(
            mpmath.findroot(max_diff, (mpmath.mpf("0.5001"), mpmath.mpf("0.51")), solver="anderson")
        )


class TestThresholdRoundingBound:
    """For large a the values near the root shrink to a few 1e-12; read
    from the interval corrections they keep their sign, so the roots stay
    resolved to a bisection tolerance."""

    @pytest.mark.parametrize("a", [1e3, 3e3, 6.7e3, 8e3, 1e4, 3e4])
    def test_root_matches_quadrature_oracle_or_raises(self, a):
        oracle = _quadrature_threshold(a)
        try:
            root = dominance_threshold_n1(a)
        except ArithmeticError as exc:
            assert "rounding bound" in str(exc)
        else:
            assert abs(root - oracle) < 1e-6

    @pytest.mark.parametrize(
        "a, root", [(146.36, 0.5224294549942017), (200.0, 0.519195885658264)]
    )
    def test_roots_found_before_the_bound_stay(self, a, root):
        assert abs(dominance_threshold_n1(a) - root) < 1e-6

    def test_logspace_roots_up_to_a_thousand_stay_resolved(self):
        # every a of numpy.logspace(-3, 4, 141) up to 1e3 had a root before
        # the rounding bound; each still has one, with a sign change within
        # THRESHOLD_TOL of it
        for a in numpy.logspace(-3, 3, 121):
            a = float(a)
            root = dominance_threshold_n1(a)
            assert max_risk_diff_symmetric_n1(a, root - 1e-6) < 0.0, a
            assert max_risk_diff_symmetric_n1(a, root + 1e-6) > 0.0, a

    def test_logspace_roots_up_to_1e5_are_resolved(self):
        # a rounding bound on a difference of log measures once made every
        # a from about 1,259 on raise, although the roots exist
        for a in numpy.logspace(-3, 5, 161):
            a = float(a)
            root = dominance_threshold_n1(a)
            assert max_risk_diff_symmetric_n1(a, root - 1e-6) < 0.0, a
            assert max_risk_diff_symmetric_n1(a, root + 1e-6) > 0.0, a


class TestExhaustiveCheck:
    @pytest.mark.parametrize(
        "entry",
        [
            lambda size: p_grid(0.3, None, size),
            lambda size: exhaustive_dominance_check(3, 1.0, 1.0, 0.3, grid_size=size),
            lambda size: threshold_scan(1.0, size),
        ],
        ids=["p-grid", "dominance", "threshold"],
    )
    def test_grid_size_is_capped(self, entry):
        # each would build a grid of this size; the check comes first
        assert binom.MAX_GRID == 10**6
        with pytest.raises(ValueError, match=r"grid size must be an integer in \[2, 1000000\]"):
            entry(binom.MAX_GRID + 1)

    def test_large_n_tiny_a_tiny_bound_gives_a_report(self):
        # a J-row anchor between the mean and (alpha+1)/(alpha+beta+2) did not
        # converge in the swapped tail
        report = exhaustive_dominance_check(
            3083, 0.04516426319536268, 6.854577320790074, 2.0413247500533756e-05, grid_size=8
        )
        assert report.grid_verdict in ("dominates", "dominated_somewhere")

    @pytest.mark.parametrize(
        "n, p_bar, curves",
        [
            (10000, 0.05, True),
            (13964, 0.05, False),
            (2000, 0.3, True),
            (10000, 0.3, False),
            (400, 0.5, True),
            (2000, 0.5, False),
            (400, 0.9, False),
            (400, 0.99, False),
        ],
    )
    def test_large_n_reports_return_with_or_without_curves(self, n, p_bar, curves):
        # of n in {400, 2000, 10000, 13964}, the first at which some I of the
        # J row is beyond double range and the one below it; the J row raised
        # at the first, and the report with it
        report = exhaustive_dominance_check(n, 1.0, 1.0, p_bar, grid_size=64)
        assert (report.thm32_bound_curve is not None) is curves
        assert (report.standardized_diff_curve is not None) is curves
        assert report.worst_difference == risk_difference(report.worst_p, n, 1.0, 1.0, p_bar)
        if (n, p_bar) == (13964, 0.05):
            # c(0) is positive but below 1/DBL_MAX: a test of c > 0 alone
            # would let an infinite I into J
            table = EstimateTable.build(BinomialSetup(n=n), PriorSpec(1.0, 1.0, p_bar=p_bar))
            assert 0.0 < min(table._c_row) < 1.0 / sys.float_info.max

    def test_seeded_sweep_returns_every_upper_report(self):
        rng = random.Random(50)
        absent = 0
        for draw in range(120):
            n = round(10 ** rng.uniform(0.0, 2.5))
            a, b = rng.choice((0.5, 1.0, 2.0, 3.0)), rng.choice((0.5, 1.0, 2.0, 3.0))
            p_bar = 1.0 - 10 ** rng.uniform(-9.0, -1.0) if draw % 2 else rng.uniform(0.3, 0.95)
            report = exhaustive_dominance_check(n, a, b, p_bar, grid_size=16)
            curves = risk_curves(n, a, b, p_bar, grid_size=16)
            table = EstimateTable.build(BinomialSetup(n=n), PriorSpec(a, b, p_bar=p_bar))
            beyond = any(not c or 1.0 / c == math.inf for c in table._c_row[:-1])
            case = (n, a, b, p_bar)
            assert (report.thm32_bound_curve is None) is beyond, case
            assert (report.standardized_diff_curve is None) is beyond, case
            assert (curves.thm32_bound_curve is None) is beyond, case
            absent += beyond
        # 16 of these raised on the J row
        assert absent >= 10

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 3.0])
    def test_benchmark_box_keeps_its_curves(self, a, b):
        # the dominance jobs of perfbench's dominance-upper workload (n <= 32,
        # p_bar < 0.6) read every standardized difference as a float; c falls
        # with n and p_bar, so its far corner has the smallest, 1.23e-14 at
        # (a, b) = (0.5, 3)
        table = EstimateTable.build(BinomialSetup(n=32), PriorSpec(a, b, p_bar=0.6))
        assert dominance._j_rows(table) is not None
        assert min(table._c_row) > 1e-14

    def test_small_upper_bound_dominates(self):
        report = exhaustive_dominance_check(1, 1.0, 1.0, 0.1)
        assert report.grid_verdict == "dominates"
        assert report.worst_difference <= 1e-12
        assert report.condition_flags["thm33_necessary"] is True
        assert report.thm32_bound_curve is not None
        assert report.standardized_diff_curve is not None

    def test_wide_symmetric_interval_fails(self):
        report = exhaustive_dominance_check(1, 1.0, 1.0, 0.8, p_lo=0.2)
        assert report.grid_verdict == "dominated_somewhere"
        assert report.worst_difference > 0.0
        assert report.condition_flags["thm41_c1"] is False

    def test_endpoint_witness_when_necessary_condition_fails(self):
        report = exhaustive_dominance_check(1, 1.0, 1.0, 0.75)
        assert report.grid_verdict == "dominated_somewhere"
        assert report.worst_p == pytest.approx(0.75, abs=0.05)

    def test_verdict_implies_every_point(self):
        report = exhaustive_dominance_check(2, 2.0, 1.0, 0.15, grid_size=128)
        if report.grid_verdict == "dominates":
            assert all(d <= 0.0 for d in report.risk_difference)

    def test_bound_curve_dominates_standardized_curve(self):
        report = exhaustive_dominance_check(1, 1.0, 1.0, 0.3, grid_size=64)
        for bound, std in zip(
            report.thm32_bound_curve, report.standardized_diff_curve
        ):
            if bound is not None:
                assert bound >= std - 1e-10

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            exhaustive_dominance_check(1, 1.0, 1.0, 0.3, grid_size=1)

    @pytest.mark.parametrize(
        "n, a, b, pb, p_lo, grid_size",
        [
            pytest.param(5, 1.0, 1.0, 0.3, None, 64, id="5-1.0-1.0-0.3"),
            pytest.param(9, 0.5, 3.0, 0.4, None, 64, id="9-0.5-3.0-0.4"),
            pytest.param(1, 2.0, 1.0, 0.6, None, 64, id="1-2.0-1.0-0.6"),
            # both routes of the grid pass: the row pass up to n = 63, one
            # pmf window per p from n = 64; p_bar down to 1e-6, grid 2
            (1, 0.5, 0.5, 1e-6, None, 2),
            (17, 2.0, 0.5, 0.02, None, 64),
            (63, 3.0, 0.5, 0.2, None, 33),
            (64, 0.5, 2.0, 0.5, None, 16),
            (63, 1.0, 1.0, 1e-6, None, 64),
            (1, 1.0, 1.0, 1e-6, 5e-7, 2),
            (17, 1.0, 3.0, 0.4, 0.1, 64),
            (63, 2.0, 3.0, 0.3, 0.1, 2),
            (64, 0.5, 0.5, 1e-6, 2e-7, 16),
        ],
    )
    def test_curves_equal_scalar_functions_bit_for_bit(self, n, a, b, pb, p_lo, grid_size):
        report = exhaustive_dominance_check(n, a, b, pb, p_lo=p_lo, grid_size=grid_size)
        if p_lo is not None:
            assert report.thm32_bound_curve is report.standardized_diff_curve is None
        for i, p in enumerate(report.p_grid):
            if p_lo is None:
                assert report.thm32_bound_curve[i] == thm32_bound(p, n, a, b, pb)
                assert report.standardized_diff_curve[i] == standardized_risk_difference(
                    p, n, a, b, pb
                )
            assert report.risk_difference[i] == risk_difference(p, n, a, b, pb, p_lo)

    def test_kernel_calls_do_not_grow_with_the_grid(self, monkeypatch):
        # counted as continued-fraction passes, which an upper I whose lower
        # fraction runs takes without a kernel call
        fraction = incbeta._betacf
        calls = []

        def counting(*args):
            calls.append(args)
            return fraction(*args)

        monkeypatch.setattr(incbeta, "_betacf", counting)
        counts = []
        for grid_size in (16, 512):
            for cache in (estimators._build_table, estimators._build_large_table):
                cache.cache_clear()
            calls.clear()
            exhaustive_dominance_check(5, 1.0, 1.0, 0.3, grid_size=grid_size)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    @pytest.fixture
    def rows_built(self, summed_rows):
        """Counts of pmf windows built (misses of their cold caches, one for
        short rows and one for long ones) and of loss rows built, each
        seen as a row the risk sums sum."""
        clear_windows()

        def counts():
            misses = sum(c.cache_info().misses for c in WINDOW_CACHES)
            return {"pmf": misses, "loss": len(summed_rows)}

        return counts

    @pytest.mark.parametrize("n", [1, 7, 60])
    def test_point_risk_builds_one_pmf_row_and_one_loss_row(self, rows_built, n):
        # the pmf row is one window of it, the loss row spans that window
        table = EstimateTable.build(BinomialSetup(n=n), PriorSpec(a=1.0, b=1.0))
        point_risk(table, 0.3)
        assert rows_built() == {"pmf": 1, "loss": 1}

    def test_pmf_rows_per_grid_point_do_not_grow_with_n(self, rows_built):
        # from n = 64 on the grid pass reads one pmf window per p
        grid_size = 16
        counts = []
        for n in (70, 400):
            clear_windows()
            exhaustive_dominance_check(n, 1.0, 1.0, 0.3, grid_size=grid_size)
            counts.append(rows_built()["pmf"])
        assert counts[0] == counts[1] == grid_size

    @pytest.mark.parametrize("p_lo", [None, 0.1])
    def test_one_pmf_window_per_grid_point(self, rows_built, p_lo):
        # both risks and, in the upper case, J(p) and E_p[1/I] read the
        # one window built for each p
        exhaustive_dominance_check(n=70, a=1.0, b=1.0, p_bar=0.3, p_lo=p_lo, grid_size=64)
        assert rows_built()["pmf"] == 64

    @pytest.mark.parametrize("p_lo", [None, 0.1])
    def test_row_pass_reads_one_coefficient_row_per_configuration(self, rows_built, p_lo):
        # up to n = 63 the grid pass builds no pmf window and no loss row:
        # it forms every term from the one row of log C(n, x)
        binom._whole_coeffs.cache_clear()
        for n in (1, 17, 63):
            exhaustive_dominance_check(n, 1.0, 1.0, 0.3, p_lo=p_lo, grid_size=100)
        info = binom._whole_coeffs.cache_info()
        assert (info.misses, info.hits) == (3, 0)
        assert rows_built() == {"pmf": 0, "loss": 0}

    @pytest.mark.parametrize(
        "n, a, b, p_bar, p_lo, grid_size",
        [
            pytest.param(300, 0.5, 2.0, 0.3, None, 64, id="None"),
            pytest.param(300, 0.5, 2.0, 0.3, 0.05, 64, id="0.05"),
            (1, 0.5, 2.0, 0.3, None, 2),
            (17, 2.0, 1.0, 1e-6, None, 64),
            (63, 1.0, 1.0, 0.02, None, 100),
            (63, 3.0, 0.5, 1e-6, None, 2),
            (64, 0.5, 0.5, 0.5, None, 64),
            (1, 1.0, 1.0, 1e-6, 5e-7, 64),
            (17, 0.5, 2.0, 0.3, 0.05, 2),
            (63, 2.0, 3.0, 0.3, 0.1, 100),
            (64, 1.0, 1.0, 1e-6, 2e-7, 64),
            # p_lo sits 1.2e-8 under the estimate 1/4 at x = 0, where the
            # loss rounds below 0.0 and only its clamp keeps the sum
            (2, 1.0, 1.0, 0.3, 0.249999997, 2),
            # an I of the J row beyond double range: no curves, by each engine
            (40, 1.0, 1.0, 0.99999999, None, 32),
            (400, 1.0, 1.0, 0.9, None, 16),
        ],
    )
    def test_report_equals_the_full_row_sums(self, n, a, b, p_bar, p_lo, grid_size):
        # the windows drop only pmf terms that are exactly 0.0, and the row
        # pass keeps them; the same holds for the risk curves
        report = exhaustive_dominance_check(n, a, b, p_bar, p_lo=p_lo, grid_size=grid_size)
        curves = risk_curves(n, a, b, p_bar, p_lo=p_lo, grid_size=grid_size)
        expected, expected_curves = full_row_dominance(n, a, b, p_bar, p_lo, grid_size)
        for name, value in expected.items():
            assert getattr(report, name) == value, name
        for name, value in expected_curves.items():
            assert getattr(curves, name) == value, name
        upper = p_lo is None
        c1, c2 = (None, None) if upper else thm41_conditions(n, a, b, p_lo, p_bar)
        assert report.condition_flags == {
            "thm33_necessary": thm33_necessary(n, a, b, p_bar),
            "thm34_necessary": thm34_necessary(n, a, p_bar) if b == 1.0 else None,
            "thm41_c1": c1,
            "thm41_c2": c2,
            "smallpbar_sufficient": (
                smallpbar_sufficient_conditions(n, a, b, p_bar)[0] if upper else None
            ),
        }
        worst = expected["worst_difference"]
        assert report.grid_verdict == ("dominates" if worst <= 0.0 else "dominated_somewhere")
        for record in (report, curves):
            assert (record.n, record.a, record.b, record.restriction, record.p_lo,
                    record.p_bar) == (n, a, b, "upper" if upper else "interval", p_lo, p_bar)


class TestVerdictAgreesWithTheConditions:
    """The grid verdict never contradicts the paper's conditions: Thm 3.3
    is necessary for domination, and the small-p_bar condition and Thm
    4.1's c1 and c2 are sufficient."""

    @pytest.mark.parametrize("seed", [49, 50])
    def test_seeded_sweep(self, seed):
        rng = random.Random(seed)
        shapes = (0.5, 1.0, 2.0, 3.0)
        checked = {"necessary": 0, "sufficient": 0, "thm41": 0}
        for draw in range(200):
            n, a, b = rng.randint(1, 63), rng.choice(shapes), rng.choice(shapes)
            p_lo, kind = None, draw % 4
            if kind == 0:
                p_bar = rng.uniform(0.01, 0.95)
            elif kind == 1:  # truncation barely binds: D at p_bar is tiny
                p_bar = 1.0 - 10 ** rng.uniform(-7.0, -1.0)
            elif kind == 2:  # small p_bar, where the sufficient condition holds
                p_bar = 10 ** rng.uniform(-6.0, -1.0) / n
            else:  # an interval under Thm 4.1's c1 bound (a+1)/(n+a+b+1)
                p_bar = rng.uniform(0.02, 1.0) * (a + 1.0) / (n + a + b + 1.0)
                p_lo = p_bar * rng.uniform(0.05, 0.95)
            try:
                report = exhaustive_dominance_check(n, a, b, p_bar, p_lo=p_lo, grid_size=32)
            except ArithmeticError:
                continue  # no report where the table does not build
            flags, case = report.condition_flags, (n, a, b, p_lo, p_bar)
            if flags["thm33_necessary"] is False:
                assert report.grid_verdict == "dominated_somewhere", case
                checked["necessary"] += 1
            if flags["smallpbar_sufficient"]:
                assert report.grid_verdict == "dominates", case
                checked["sufficient"] += 1
            if flags["thm41_c1"] and flags["thm41_c2"]:
                assert report.grid_verdict == "dominates", case
                checked["thm41"] += 1
        assert checked["necessary"] >= 40 and checked["sufficient"] >= 40
        assert checked["thm41"] >= 15


class TestGridEngines:
    """The row pass and the window pass return the same columns: each
    table's risk, then each pair's difference, then each value row's
    expectation, correctly rounded."""

    @staticmethod
    def passes(n, p_lo, sums, grid_size):
        a, b, p_bar = (0.5, 2.0, 0.3) if p_lo is None else (2.0, 0.5, 0.3)
        setup = BinomialSetup(n=n)
        unres = EstimateTable.build(setup, PriorSpec(a=a, b=b))
        trunc = EstimateTable.build(setup, PriorSpec(a=a, b=b, p_bar=p_bar, p_lo=p_lo))
        tables = (unres, trunc) if sums in ("risks", "all") else ()
        pairs = (trunc,) if sums in ("pair", "all") else ()
        # the J rows of the upper table of the same (a, b, p_bar), also in
        # the interval case
        upper = EstimateTable.build(setup, PriorSpec(a=a, b=b, p_bar=p_bar))
        rows = dominance._j_rows(upper) if sums == "all" else ()
        grid = p_grid(p_bar, p_lo, grid_size)
        for table in tables:
            log_rows(table)  # the row pass reads them whole, as they are up to n = 63
        if pairs:
            pair_rows(trunc)
        return [
            [[v.hex() for v in column] for column in engine(n, grid, tables, pairs, rows)]
            for engine in (dominance._row_pass, dominance._window_pass)
        ]

    @pytest.mark.parametrize("grid_size", [2, 64, 65, 512])
    @pytest.mark.parametrize("sums", ["risks", "pair", "all"])
    @pytest.mark.parametrize("p_lo", [None, 0.05], ids=["upper", "interval"])
    @pytest.mark.parametrize("n", [1, 2, 17, 40, 63, 64, 65, 200, 300])
    def test_engines_return_equal_columns_bit_for_bit(self, n, p_lo, sums, grid_size):
        # the row pass sums every x of the row in order, the window pass
        # the core or the exact window; fsum rounds the exact sum once, so
        # neither the dropped zeros nor the order may show
        by_rows, by_windows = self.passes(n, p_lo, sums, grid_size)
        assert len(by_rows) == {"risks": 2, "pair": 1, "all": 5}[sums]
        assert all(len(column) == grid_size for column in by_rows)
        assert by_windows == by_rows

    def test_scalar_functions_read_one_point_of_the_window_pass_each(self, monkeypatch):
        points = []
        window_pass = dominance._window_pass

        def counting(n, grid, tables=(), pairs=(), rows=()):
            points.append((len(tables), len(pairs), len(rows), len(grid)))
            return window_pass(n, grid, tables, pairs, rows)

        monkeypatch.setattr(dominance, "_window_pass", counting)
        thm32_bound(0.1, 5, 1.0, 1.0, 0.3)
        risk_difference(0.1, 5, 1.0, 1.0, 0.3)
        assert points == [(0, 0, 2, 1), (0, 1, 0, 1)]
        points.clear()
        standardized_risk_difference(0.1, 5, 1.0, 1.0, 0.3)
        assert points == [(0, 0, 2, 1), (0, 1, 0, 1)]


@functools.lru_cache(maxsize=None)
def _exact_pair(n, a, b, p_bar, p_lo, dps):
    """The pair alpha = log(d_u/d_t), beta = log((1-d_u)/(1-d_t)) over x =
    0..n in dps-digit mpmath, over the exact estimates: d_u = (x+a)/s and
    d_t a ratio of mpmath beta measures over the restriction."""
    with mpmath.workdps(dps):
        lo, hi = mpmath.mpf(0 if p_lo is None else p_lo), mpmath.mpf(p_bar)
        s = n + mpmath.mpf(a) + mpmath.mpf(b)
        pair = []
        for x in range(n + 1):
            al, be = x + mpmath.mpf(a), n - x + mpmath.mpf(b)
            t = mpmath.betainc(al + 1, be, lo, hi) / mpmath.betainc(al, be, lo, hi)
            pair.append((mpmath.log(al / s / t), mpmath.log(be / s / (1 - t))))
        return pair


def _oracle_difference(n, a, b, p_bar, p_lo, p):
    """D(p) over the exact estimates, with its scale p E|alpha| + q E|beta|:
    the sum in mpmath at 50 digits and then 30 more at a time, until two
    precisions agree to 1e-20 of the scale."""
    last = None
    for dps in range(50, 231, 30):
        with mpmath.workdps(dps):
            mp = mpmath.mpf(p)
            mq, total, scale = 1 - mp, mpmath.mpf(0), mpmath.mpf(0)
            for x, (al, be) in enumerate(_exact_pair(n, a, b, p_bar, p_lo, dps)):
                w = mpmath.binomial(n, x) * mp**x * mq ** (n - x)
                total += w * (mp * al + mq * be)
                scale += w * (mp * abs(al) + mq * abs(be))
            if last is not None and abs(total - last) <= 1e-20 * scale:
                return float(total), float(scale)
            last = total
    raise AssertionError(f"no two precisions agree at {(n, a, b, p_bar, p_lo, p)}")


class TestDifferenceSum:
    """D(p) is one sum over the truncated table's difference pair, held to
    1e-13 of its scale p E|alpha| + q E|beta| against mpmath over the exact
    estimates."""

    def test_matches_mpmath_on_a_seeded_sweep(self):
        # n <= 158 under both restrictions: the library's pmf terms lose
        # accuracy as n grows, which no form of the difference can mend
        rng = numpy.random.default_rng(52)
        classes = ((0.4, 0.6), (0.2, 0.8), (0.1, 0.3), (0.05, 0.5))
        checked = {"upper": 0, "interval": 0}
        for draw in range(40):
            n = int(round(10 ** rng.uniform(0.0, math.log10(158.0))))
            a, b = (float(v) for v in rng.choice([0.5, 1.0, 2.0, 3.0], size=2))
            if draw % 2:
                p_lo, p_bar = classes[draw // 2 % 4]
            else:
                p_lo, p_bar = None, float(10 ** rng.uniform(-8.0, -0.05))
            prior = PriorSpec(a, b, p_bar=p_bar, p_lo=p_lo)
            try:
                EstimateTable.build(BinomialSetup(n=n), prior)
            except ArithmeticError:
                continue  # a table that does not build has no difference
            lo = p_bar / 64 if p_lo is None else p_lo
            for p in (lo, float(rng.uniform(lo, p_bar)), p_bar):
                oracle, scale = _oracle_difference(n, a, b, p_bar, p_lo, p)
                value = risk_difference(p, n, a, b, p_bar, p_lo)
                assert abs(value - oracle) <= 1e-13 * scale, (n, a, b, p_bar, p_lo, p)
                checked[prior.restriction] += 1
        assert checked["upper"] >= 60 and checked["interval"] >= 54

    def test_matches_mpmath_near_one(self):
        # p_bar = 1 - 10^U(-7, -2), at p_bar and in its upper half: the I of
        # the table's anchor was rescaled by terms of size gamma |log(1-p_bar)|
        # that cancel, and 4 of these 24 differences were over 1e-13 of their
        # scale, 4.3e-13 at worst
        rng = numpy.random.default_rng(53)
        for _ in range(12):
            n = int(round(10 ** rng.uniform(0.0, math.log10(158.0))))
            a, b = (float(v) for v in rng.choice([0.5, 1.0, 2.0, 3.0], size=2))
            p_bar = 1.0 - float(10 ** rng.uniform(-7.0, -2.0))
            for p in (p_bar * float(rng.uniform(0.5, 1.0)), p_bar):
                oracle, scale = _oracle_difference(n, a, b, p_bar, None, p)
                value = risk_difference(p, n, a, b, p_bar)
                assert abs(value - oracle) <= 1e-13 * scale, (n, a, b, p_bar, p)

    @pytest.mark.parametrize(
        "n, a, b, p_bar",
        [
            (59, 3.0, 3.0, 0.9999441630457291),
            (85, 21.252592230150274, 19.995494057980203, 0.9980617869662416),
            (27, 3.0, 3.0, 0.9999999344576226),
        ],
    )
    def test_matches_mpmath_at_p_bar_near_one(self, n, a, b, p_bar):
        # points of a seeded verdict sweep: 1.56e-13, 1.41e-13 and 1.02e-13 of
        # the scale under the rescale by r_bar^alpha (1-p_bar)^gamma
        oracle, scale = _oracle_difference(n, a, b, p_bar, None, p_bar)
        assert abs(risk_difference(p_bar, n, a, b, p_bar) - oracle) <= 1e-13 * scale

    @pytest.mark.parametrize(
        "n, a, b, p_bar, p, oracle",
        [
            (40, 1.0, 1.0, 0.9, 0.01, -1.125903648464177e-33),
            (40, 1.0, 1.0, 0.9, 0.05, -2.4044846114660804e-25),
            (40, 1.0, 1.0, 0.9, 0.1, -2.2603291797948518e-20),
            (64, 0.5, 2.0, 0.5, 1 / 1024, -1.6770122537609693e-20),
            (64, 0.5, 2.0, 0.5, 1 / 512, -7.929660150300283e-20),
            (64, 0.5, 2.0, 0.5, 3 / 1024, -2.543409561979604e-19),
        ],
    )
    def test_differences_far_below_the_risks(self, n, a, b, p_bar, p, oracle):
        # D is far below the rounding of the estimates here: at n = 64, the
        # first three grid points of dominance --n 64 --a 0.5 --b 2 --p-bar
        # 0.5, t - u of the two risks reads 0.0, 0.0 and -8.67e-19
        exact, scale = _oracle_difference(n, a, b, p_bar, None, p)
        assert exact == pytest.approx(oracle, rel=1e-15, abs=0)
        assert abs(risk_difference(p, n, a, b, p_bar) - oracle) <= 1e-13 * scale

    def test_the_grid_reads_the_scalar_difference(self):
        report = exhaustive_dominance_check(64, 0.5, 2.0, 0.5)
        assert report.p_grid[:3] == (1 / 1024, 1 / 512, 3 / 1024)
        for p, value in zip(report.p_grid[:3], report.risk_difference):
            assert value == risk_difference(p, 64, 0.5, 2.0, 0.5)

    def test_tiny_upper_bound_keeps_its_difference(self):
        # d_t is 1e-20 of d_u here, so rho is about 1e20
        for p in (1e-21, 5e-21, 1e-20):
            oracle, scale = _oracle_difference(3, 1.0, 1.0, 1e-20, None, p)
            assert abs(risk_difference(p, 3, 1.0, 1.0, 1e-20) - oracle) <= 1e-13 * scale

    def test_a_worst_difference_near_the_boundary_keeps_its_sign(self):
        # p_bar bisected across the dominance boundary at n = 3, a = b = 1:
        # the worst difference, at p = p_bar, is about 1e-10 against a scale
        # near 0.44, a positive D resolved far beyond its accuracy
        report = exhaustive_dominance_check(3, 1.0, 1.0, 0.379164, grid_size=16)
        assert report.grid_verdict == "dominated_somewhere"
        assert report.worst_p == 0.379164
        oracle, scale = _oracle_difference(3, 1.0, 1.0, 0.379164, None, 0.379164)
        assert abs(report.worst_difference - oracle) <= 1e-13 * scale
        assert oracle > 0.0 and report.worst_difference > 0.0

    @pytest.mark.parametrize(
        "n, a, b, p_bar", [(3, 2.0, 3.0, 0.99999), (10, 1.0, 3.0, 0.9999), (20, 2.0, 3.0, 0.9999)]
    )
    def test_a_tiny_positive_worst_difference_is_dominated_somewhere(self, n, a, b, p_bar):
        # truncation barely binds: D at p_bar is 2.1e-14 to 2.7e-10, exact to
        # its last digits, and Thm 3.3's necessary condition fails
        report = exhaustive_dominance_check(n, a, b, p_bar, grid_size=64)
        assert report.condition_flags["thm33_necessary"] is False
        assert report.grid_verdict == "dominated_somewhere"
        assert report.worst_p == p_bar
        oracle, scale = _oracle_difference(n, a, b, p_bar, None, p_bar)
        assert oracle > 0.0 and abs(report.worst_difference - oracle) <= 1e-13 * scale

    @pytest.mark.parametrize(
        "n, a, b, p_bar, p",
        [(64, 0.5, 2.0, 0.5, 0.04), (64, 0.5, 2.0, 0.5, 0.01), (80, 2.0, 1.0, 0.4, 0.00625)],
    )
    def test_a_failed_certificate_sums_the_exact_window(self, n, a, b, p_bar, p, monkeypatch):
        # the terms the core leaves out could move the rounded sum here, so
        # the sum runs over the exact window, and equals the full-row sum
        clear_windows()
        reads = []
        exact = binom.PmfWindows.exact

        def counting(self):
            reads.append(self)
            return exact(self)

        monkeypatch.setattr(binom.PmfWindows, "exact", counting)
        value = risk_difference(p, n, a, b, p_bar)
        assert len(reads) == 1
        trunc = EstimateTable.build(BinomialSetup(n=n), PriorSpec(a=a, b=b, p_bar=p_bar))
        assert value == full_row_difference(trunc, p)

    def test_a_long_table_fills_its_pair_only_over_the_window_read(self):
        n, p = 100_000, 0.29
        prior = PriorSpec(a=1.0, b=1.0, p_bar=0.3)
        trunc = EstimateTable.build(BinomialSetup(n=n), prior)
        vars(trunc).pop("_pair", None)
        clear_windows()
        risk_difference(p, n, 1.0, 1.0, 0.3)
        alphas, betas, _, fill = trunc._pair
        assert fill is not None
        start, core = binom.pmf_windows(n, p).core
        assert filled(alphas) == filled(betas) == len(core) < n // 10
        assert all(v == v for v in alphas[start : start + len(core)])
