"""Binomial primitives: pmf windows, entropy-loss rows, KL divergence, descriptors
and the records built on them."""

import copy
import math
import pickle
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from binrisk import binom
from binrisk.binom import (
    BinomialSetup,
    PriorSpec,
    _log_binom_coeffs,
    pmf_windows,
)
from binrisk.dominance import (
    DominanceReport,
    exhaustive_dominance_check,
    smallpbar_sufficient_conditions,
    standardized_risk_difference,
    thm32_bound,
)
from binrisk.estimators import EstimateTable
from binrisk.poisson import PoissonConfig, limit_convergence_report
from binrisk.predictive import PredictiveTable, plug_in_density
from binrisk.risk import connection_sum
from binrisk.special import _stirling_error, log_beta

from conftest import entropy_loss_direct, filled, full_pmf_row, unit_losses, window_row


def kl_binomial(l, p, q):
    """KL divergence from Bin(l, p) to Bin(l, q) by the factorization
    l times the entropy loss of the estimate q at p."""
    return l * unit_losses([q], p)[0]


class TestBinomPmf:
    def test_simple_value(self):
        assert window_row(2, 0.5)[1] == pytest.approx(0.5, rel=1e-14, abs=0)

    def test_direct_product_oracle(self):
        # C(9,3) 0.3^3 0.7^6 multiplied out factor by factor
        expected = 84.0
        for _ in range(3):
            expected *= 0.3
        for _ in range(6):
            expected *= 0.7
        assert window_row(9, 0.3)[3] == pytest.approx(expected, rel=1e-13, abs=0)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 50), p=st.floats(0.001, 0.999))
    def test_normalization(self, n, p):
        total = math.fsum(window_row(n, p))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "n, p",
        [
            (1, 0.5),
            (9, 0.3),
            (60, 0.017),
            (2000, 1e-3),
            (10_000, 1e-12),
            (10_000, 1.0 - 1e-12),
            (10_000, 0.3 / 512),
            (10_000, 0.5),
            (10_000, 1e-300),
            (300, 5e-324),
        ],
    )
    def test_row_is_the_per_term_formula_bit_for_bit(self, n, p):
        # the per-term scalar over every x, kept as the reference: the
        # window may leave out only terms that are exactly 0.0
        assert window_row(n, p) == full_pmf_row(n, p)

    @pytest.mark.parametrize("p, at_start", [(1e-12, True), (1.0 - 1e-12, False)])
    def test_window_reaches_a_mode_at_either_end(self, p, at_start):
        # the mode is x = 0 for p = 1e-12 and x = n for p = 1 - 1e-12
        n = 10_000
        start, terms = pmf_windows(n, p).exact()
        if at_start:
            assert start == 0 and terms[0] == max(terms) > 0.99
        else:
            assert start + len(terms) == n + 1 and terms[-1] == max(terms) > 0.99

    def test_window_skips_the_underflowed_terms(self):
        # at n = 1e4 and p = 0.5 the terms beyond about 40 standard
        # deviations of the mode are exactly 0.0
        start, terms = pmf_windows(10_000, 0.5).exact()
        assert start > 0 and start + len(terms) < 10_001
        assert len(terms) < 4_000

    def test_window_is_cached_per_n_and_p(self):
        # a row of n + 1 = 41 terms is long: it goes to the long-row cache
        binom._long_windows.cache_clear()
        pmf_windows(40, 0.2)
        pmf_windows(40, 0.2)
        pmf_windows(40, 0.3)
        assert binom._long_windows.cache_info()[:2] == (1, 2)

    @pytest.mark.parametrize("n", [1, 63, 64, 1_000])
    def test_a_row_of_at_most_64_entries_is_built_whole(self, n):
        # one row per n: a plain list up to 64 entries, which the row pass
        # and the predictive masses at small l read whole; above it a lazy
        # row with nothing computed until it is read
        binom._whole_coeffs.cache_clear()
        binom._lazy_coeffs.cache_clear()
        row = _log_binom_coeffs(n)
        assert row is _log_binom_coeffs(n) and (type(row) is list) == (n + 1 <= 64)
        assert len(getattr(row, "values", row)) == n + 1
        assert filled(row) == (n + 1 if n + 1 <= 64 else 0)

    def test_a_lazy_row_computes_what_is_read(self):
        spans = []

        def entries(start, stop):
            spans.append((start, stop))
            return [float(x) for x in range(start, stop)]

        row = binom._LazyRow(100, entries)
        assert row[7] == 7.0 and row[99] == 99.0 and spans == [(7, 8), (99, 100)]
        assert binom._exp_terms((99, row, 0.0, 0.0), 40, 40) == () and len(spans) == 2
        binom._exp_terms((99, row, 0.0, 0.0), 20, 30)
        assert row[25] == 25.0 and spans[-1] == (20, 30)
        row.span(50, 60)  # the stretch grows over the gap, once
        row.span(10, 12)
        assert spans[2:] == [(20, 30), (30, 60), (10, 20)]
        assert [x for x, v in enumerate(row.values) if v == v] == [7, *range(10, 60), 99]
        assert list(row.values[20:30]) == [float(x) for x in range(20, 30)]
        with pytest.raises(IndexError):
            row[100]
        # two rows, one entries function each: an index and each stretch
        # compute both rows there, each function called once per stretch
        spans.clear()
        down_spans = []

        def down(start, stop):
            down_spans.append((start, stop))
            return [-float(x) for x in range(start, stop)]

        row = binom._LazyRow(100, entries, down)
        ups, downs = row.rows
        assert row.values is ups and filled(ups) == filled(downs) == 0
        assert row[7] == 7.0 and downs[7] == -7.0
        row.span(20, 30)
        row.span(50, 60)
        row.span(10, 12)
        row.span(25, 55)  # inside the filled stretch: nothing is computed
        assert spans == down_spans == [(7, 8), (20, 30), (30, 60), (10, 20)]
        assert [x for x, v in enumerate(downs) if v == v] == [7, *range(10, 60)]
        assert list(downs[10:60]) == [-v for v in ups[10:60]]

    def test_log_coeff_cached_values(self):
        assert math.exp(_log_binom_coeffs(9)[3]) == pytest.approx(84.0, rel=1e-12)
        assert _log_binom_coeffs(5)[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 8, 9, 10, 11, 300, 3000, 100_000])
    def test_log_coeff_row_is_log_beta_bit_for_bit(self, n):
        # the row shares one delta per argument; log_beta takes its own
        # three. Stirling's series serves the arguments from 10 on, so the
        # x of n = 1e5 reach both branches of delta
        xs = range(n + 1) if n <= 3000 else (0, 9, 10, n // 2, n - 1, n)
        row = _log_binom_coeffs(n)
        expected = [(-math.log(n + 1) - log_beta(x + 1, n - x + 1)).hex() for x in xs]
        assert [row[x].hex() for x in xs] == expected

    @pytest.mark.parametrize("n", [1, 63, 64, 1_000, 100_000, binom.MAX_TRIALS])
    def test_searched_exponent_is_the_rows_within_1e_6(self, n):
        # the edge searches bisect on the lgamma form of the pmf exponent,
        # which reads no row; the windows' margins absorb its gap to the
        # exponent the terms are computed from (4e-9 up to n = 1e6)
        rng = random.Random(n)
        entries = partial(
            binom._coeff_entries, n, math.log(n + 1), math.log(n + 2), _stirling_error(n + 2)
        )
        for _ in range(40):
            x, p = rng.randint(0, n), 10 ** rng.uniform(-12.0, 0.0) * 0.999
            log_p, log_q = math.log(p), math.log1p(-p)
            row = entries(x, x + 1)[0] + x * log_p + (n - x) * log_q
            assert binom._log_pmf(n, log_p, log_q, x) == pytest.approx(row, rel=0.0, abs=1e-6)

    @pytest.mark.parametrize(
        "n, p",
        [
            (9, 0.3),
            (300, 1e-300),
            (1_000, 0.3),
            (10_000, 1e-6),
            (10_000, 0.5),
            (100_000, 1.0 - 1e-6),
        ],
    )
    def test_window_terms_are_the_per_term_formula_bit_for_bit(self, n, p):
        # the windows count x and n - x as floats; each exponent must be the
        # one the int arithmetic gives
        coeffs, log_p, log_q = _log_binom_coeffs(n), math.log(p), math.log1p(-p)
        windows = pmf_windows(n, p)
        for start, terms in (windows.core, windows.exact()):
            expected = [
                math.exp(coeffs[x] + x * log_p + (n - x) * log_q)
                for x in range(start, start + len(terms))
            ]
            assert [t.hex() for t in terms] == [t.hex() for t in expected]
        assert windows.tail == 0.0 or len(windows.core[1]) < len(windows.exact()[1])

    @pytest.mark.parametrize("n, p", [(3, 0.3), (12, 0.9), (10_000, 0.3)])
    def test_exact_logs_are_the_nonzero_terms_with_their_logs(self, n, p):
        # at n = 1e4 and p = 0.3 the exact window ends in terms that are
        # exactly 0.0 (exponents in [-746.2, -745.13)), so the ys of the
        # triples skip them and are not a range
        binom._short_windows.cache_clear()
        binom._long_windows.cache_clear()
        windows = pmf_windows(n, p)
        start, terms = windows.exact()
        expected = [(y, f, math.log(f)) for y, f in enumerate(terms, start) if f != 0.0]
        triples = windows.exact_logs()
        assert isinstance(triples, tuple)
        assert [(y, f.hex(), g.hex()) for y, f, g in triples] == [
            (y, f.hex(), g.hex()) for y, f, g in expected
        ]
        ys = [y for y, _, _ in triples]
        assert (ys == list(range(start, start + len(terms)))) == (0.0 not in terms)
        if n == 10_000:
            assert terms[0] == terms[-1] == 0.0 and len(ys) < len(terms)
        # one entry keeps its triples: every call returns the same tuple
        assert windows.exact_logs() is triples
        assert pmf_windows(n, p).exact_logs() is triples


class TestEntropyLoss:
    def test_zero_at_truth(self):
        assert unit_losses([0.3], 0.3) == [0.0]

    def test_direct_arithmetic(self):
        expected = 0.4 * math.log(2.0) + 0.6 * math.log(0.75)
        assert unit_losses([0.2], 0.4)[0] == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("d", [0.0, 1.0, -0.2, 1.2, math.nan])
    def test_every_estimate_is_checked(self, d):
        # the loss rows take the log of every estimate of a table, and a
        # table checks each of them
        with pytest.raises(ValueError, match=r"outside \(0, 1\)"):
            EstimateTable(BinomialSetup(n=2), PriorSpec(a=1.0, b=1.0), (0.3, d, 0.6))

    def test_row_is_the_per_term_formula_bit_for_bit(self):
        # log d and log(1-d) are taken first, then combined as before
        ds, p = [1e-9, 0.013, 0.3, 0.5, 0.77, 1.0 - 1e-9], 0.27
        log_p, log_q = math.log(p), math.log1p(-p)
        expected = [
            max(p * (log_p - math.log(d)) + (1.0 - p) * (log_q - math.log1p(-d)), 0.0)
            for d in ds
        ]
        assert unit_losses(ds, p) == expected

    @settings(max_examples=80, deadline=None)
    @given(d=st.floats(0.001, 0.999), p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_nonnegative_and_matches_direct(self, d, p):
        lv = unit_losses([d], p)[0]
        assert lv >= 0.0
        assert lv == pytest.approx(
            max(entropy_loss_direct(d, p), 0.0), abs=1e-13
        )

    def test_convex_in_estimate(self):
        p = 0.35
        grid = [0.05 + 0.9 * i / 100 for i in range(101)]
        vals = unit_losses(grid, p)
        for i in range(1, len(vals) - 1):
            assert vals[i + 1] - 2.0 * vals[i] + vals[i - 1] >= -1e-12


class TestKlBinomial:
    def test_zero_at_equality(self):
        assert kl_binomial(5, 0.3, 0.3) == 0.0

    def test_single_trial_identity(self):
        assert kl_binomial(1, 0.2, 0.4) == pytest.approx(
            unit_losses([0.4], 0.2)[0], rel=1e-15, abs=0
        )

    def test_scales_linearly(self):
        assert kl_binomial(3, 0.2, 0.4) == pytest.approx(
            3.0 * unit_losses([0.4], 0.2)[0], rel=1e-15, abs=0
        )

    @pytest.mark.parametrize("l", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("p,q", [(0.2, 0.4), (0.5, 0.1), (0.85, 0.6)])
    def test_matches_brute_force_outcome_sum(self, l, p, q):
        # factorization check: the l-trial KL equals the exact sum over outcomes
        brute = math.fsum(
            fp * (math.log(fp) - math.log(fq))
            for fp, fq in zip(window_row(l, p), window_row(l, q))
        )
        assert kl_binomial(l, p, q) == pytest.approx(brute, rel=1e-10, abs=1e-14)


class TestDescriptors:
    def test_setup_validation(self):
        assert BinomialSetup(n=3).l == 1
        with pytest.raises(ValueError):
            BinomialSetup(n=0)
        with pytest.raises(ValueError):
            BinomialSetup(n=1, l=0)

    @pytest.mark.parametrize("n, l", [(True, 1), (3, True), (False, 1)])
    def test_setup_rejects_bool_counts(self, n, l):
        # bool is an int subclass; True used to build the n = 1 table
        with pytest.raises(ValueError, match="must be an integer >= 1, got (True|False)"):
            BinomialSetup(n=n, l=l)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda n: BinomialSetup(n=n),
            lambda l: BinomialSetup(n=1, l=l),
            lambda l: plug_in_density(0, l, 0.5),
            lambda n: connection_sum(0.5, n, 1, PriorSpec(1.0, 1.0)),
            lambda l: connection_sum(0.5, 1, l, PriorSpec(1.0, 1.0)),
            lambda n: thm32_bound(0.1, n, 1.0, 1.0, 0.5),
            lambda n: standardized_risk_difference(0.1, n, 1.0, 1.0, 0.5),
            lambda n: smallpbar_sufficient_conditions(n, 1.0, 1.0, 0.5),
        ],
        ids=[
            "setup-n", "setup-l", "plug-in-l", "connection-n", "connection-l", "thm32", "std-diff",
            "smallpbar",
        ],
    )
    def test_trial_counts_are_capped(self, entry):
        # each of these would build a row as long as its count
        assert binom.MAX_TRIALS == 10**6
        with pytest.raises(ValueError, match=r"an integer in \[1, 1000000\], got 1000001$"):
            entry(binom.MAX_TRIALS + 1)

    def test_prior_modes(self):
        assert PriorSpec(a=1.0, b=1.0).restriction == "none"
        assert PriorSpec(a=1.0, b=1.0, p_bar=0.3).restriction == "upper"
        assert (
            PriorSpec(a=1.0, b=1.0, p_bar=0.4, p_lo=0.1).restriction == "interval"
        )
        assert PriorSpec(a=1.0, b=1.0, p_bar=0.3).support == (0.0, 0.3)

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            PriorSpec(a=0.0, b=1.0)
        with pytest.raises(ValueError):
            PriorSpec(a=1.0, b=1.0, p_lo=0.1)  # lower bound without upper
        with pytest.raises(ValueError):
            PriorSpec(a=1.0, b=1.0, p_bar=0.3, p_lo=0.4)
        with pytest.raises(ValueError):
            PriorSpec(a=1.0, b=1.0, p_bar=0.5, p_lo=0.5)  # an empty interval

    @pytest.mark.parametrize("a,b", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)])
    def test_prior_rejects_non_finite_shape(self, a, b):
        with pytest.raises(ValueError):
            PriorSpec(a=a, b=b)


# one valid instance of each record, and the name of one of its fields
RECORDS = {
    "BinomialSetup": (lambda: BinomialSetup(3, l=2), "n"),
    "PriorSpec": (lambda: PriorSpec(1.0, 2.0, p_bar=0.4), "p_bar"),
    "EstimateTable": (
        lambda: EstimateTable.build(BinomialSetup(4), PriorSpec(1.0, 1.0, 0.4)),
        "values",
    ),
    "PredictiveTable": (
        lambda: PredictiveTable.build(BinomialSetup(3, 2), PriorSpec(1.0, 1.0), 1),
        "density",
    ),
    "PoissonConfig": (lambda: PoissonConfig(2.0, a=0.5, lambda_bar=1.0), "r"),
    "PoissonLimitReport": (
        lambda: limit_convergence_report([10.0, 100.0], 0.5, PoissonConfig(1.0), 0),
        "risk_errors",
    ),
    "DominanceReport": (
        lambda: exhaustive_dominance_check(3, 1.0, 1.0, 0.4, grid_size=8),
        "grid_verdict",
    ),
}


class TestRecords:
    """The descriptors, tables and reports are immutable values, built and
    validated by their constructors on every path."""

    @pytest.mark.parametrize("name", RECORDS)
    def test_values_that_cannot_be_assigned(self, name):
        make, field = RECORDS[name]
        record = make()
        assert type(record).__name__ == name
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(record, protocol)) == record
        assert copy.copy(record) == record and copy.deepcopy(record) == record
        assert make() == record and repr(make()) == repr(record)
        if name != "DominanceReport":  # its condition flags are a dict
            assert hash(make()) == hash(record)
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1

    @pytest.mark.parametrize(
        "name, change, message",
        [
            ("BinomialSetup", {"l": 0}, "l must be an integer >= 1, got 0"),
            ("PriorSpec", {"p_bar": 2.0}, "p_bar must be in (0, 1), got 2.0"),
            ("PoissonConfig", {"a": -1.0}, "a must be finite and positive, got -1.0"),
            ("EstimateTable", {"values": (0.5, 0.5)}, "need one estimate per x = 0..n"),
            (
                "PredictiveTable",
                {"density": (0.5, 0.25, 0.5)},
                "predictive density sums to 1.25, not 1",
            ),
        ],
        ids=["BinomialSetup", "PriorSpec", "PoissonConfig", "EstimateTable", "PredictiveTable"],
    )
    def test_every_path_to_an_instance_validates(self, name, change, message):
        valid = RECORDS[name][0]()
        cls = type(valid)
        fields = {field: getattr(valid, field) for field in cls._fields} | change
        # the same instance, made without its validation
        if issubclass(cls, tuple):
            forged = tuple.__new__(cls, fields.values())
        else:
            forged = object.__new__(cls)
            forged.__dict__.update(fields)
        paths = [
            lambda: cls(**fields),
            lambda: pickle.loads(pickle.dumps(forged)),
            lambda: copy.copy(forged),
        ]
        if issubclass(cls, tuple):
            paths += [lambda: cls._make(fields.values()), lambda: valid._replace(**change)]
        for path in paths:
            with pytest.raises(ValueError) as caught:
                path()
            assert type(caught.value) is ValueError and str(caught.value) == message

    @pytest.mark.parametrize(
        "name, entries", [("EstimateTable", "values"), ("PredictiveTable", "density")]
    )
    def test_a_table_iterates_over_its_entries_and_has_no_len(self, name, entries):
        table = RECORDS[name][0]()
        assert list(table) == list(getattr(table, entries))
        with pytest.raises(TypeError):
            len(table)

    def test_the_dominance_report_has_no_defaults(self):
        # its one constructor call passes every field; a default
        # condition_flags would be one dict shared by every report
        assert DominanceReport._field_defaults == {}
