"""Exact risks, the predictive-to-point connection, MC oracle, lemma checks."""

import gc
import math
import random
import tracemalloc
from functools import lru_cache
from types import SimpleNamespace

import pytest

import binrisk.risk as risk_module
from binrisk import binom, estimators
from binrisk.binom import BinomialSetup, PriorSpec, pmf_windows
from binrisk.estimators import EstimateTable
from binrisk.predictive import plug_in_density
from binrisk.risk import (
    bayes_predictive_tables,
    connection_sum,
    point_risk,
    predictive_kl_risk,
)

from conftest import (
    filled,
    full_pmf_row,
    full_row_kl_risk,
    full_row_risk,
    mc_risk,
    unit_losses,
    verify_log_jensen_bound,
    verify_second_derivative_identity,
    window_row,
)

# p where the pmf's mode is x = 0 and x = n, and the ends of the default
# 512-point grid on (0, 0.3]
EDGE_PS = (1e-12, 1.0 - 1e-12, 0.3 / 512, 0.3, 0.5)


class TestPointRisk:
    def test_perfect_estimator_zero(self):
        table = EstimateTable(
            setup=BinomialSetup(n=1),
            prior=PriorSpec(a=1.0, b=1.0),
            values=(0.5, 0.5),
        )
        assert point_risk(table, 0.5) == 0.0

    def test_two_term_oracle(self):
        # n=1, a=b=1 posterior means are 1/3 and 2/3
        table = EstimateTable.build(BinomialSetup(n=1), PriorSpec(a=1.0, b=1.0))
        lo, hi = unit_losses([1.0 / 3.0, 2.0 / 3.0], 0.5)
        expected = 0.5 * lo + 0.5 * hi
        assert point_risk(table, 0.5) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_domain_error(self):
        table = EstimateTable.build(BinomialSetup(n=1), PriorSpec(a=1.0, b=1.0))
        with pytest.raises(ValueError):
            point_risk(table, 0.0)

    @pytest.mark.parametrize("p", [1.0, -0.1, 1.5, math.nan])
    def test_rejects_p_outside_the_open_interval(self, p):
        table = EstimateTable.build(BinomialSetup(n=300), PriorSpec(a=1.0, b=1.0))
        with pytest.raises(ValueError, match="p must be in"):
            point_risk(table, p)

    @pytest.mark.parametrize("p", EDGE_PS)
    @pytest.mark.parametrize("n", [1, 2, 33, 300, 10_000])
    def test_window_sum_equals_the_full_row_sum(self, n, p):
        # the core window also drops nonzero pmf terms, more than e^-64
        # below the peak; the certificate, or the exact-window sum where it
        # fails, keeps the sum that of the full row
        priors = [PriorSpec(a=1.0, b=1.0), PriorSpec(a=0.5, b=3.0, p_bar=0.3)]
        if n <= 33:
            priors.append(PriorSpec(a=2.0, b=1.0, p_bar=0.5, p_lo=0.05))
        for prior in priors:
            table = EstimateTable.build(BinomialSetup(n=n), prior)
            risk, expected = point_risk(table, p), full_row_risk(table, p)
            assert risk == expected
            assert math.copysign(1.0, risk) == math.copysign(1.0, expected)

    # p, with the signs of the unclamped losses at d one ulp below and one
    # ulp above p (at d = p the loss is exactly 0.0): each d off p by an ulp
    # has a true loss under 1e-31, which rounds to either sign or to 0.0
    @pytest.mark.parametrize(
        "p,below,above",
        [
            (0.3, -1, 1),
            (0.9, 1, -1),
            (6 / 2003, -1, -1),
            (122 / 2003, 0, -1),
            (123 / 2003, -1, 0),
            (0.5, 0, 0),
        ],
    )
    def test_clamp_is_max_bit_for_bit(self, p, below, above):
        ds = [math.nextafter(p, 0.0), p, math.nextafter(p, 1.0)]
        log_p, log_q = math.log(p), math.log1p(-p)
        raw = [
            p * (log_p - math.log(d)) + (1.0 - p) * (log_q - math.log1p(-d)) for d in ds
        ]
        signs = [(v > 0.0) - (v < 0.0) for v in raw]
        assert signs == [below, 0, above]
        clamped = [max(v, 0.0) for v in raw]
        # float.hex tells -0.0 from 0.0, so these compare sign bits too
        assert [v.hex() for v in unit_losses(ds, p)] == [v.hex() for v in clamped]
        table = EstimateTable(
            setup=BinomialSetup(n=2), prior=PriorSpec(a=1.0, b=1.0), values=tuple(ds)
        )
        risk = point_risk(table, p)
        expected = math.fsum(w * v for w, v in zip(full_pmf_row(2, p), clamped))
        assert risk.hex() == full_row_risk(table, p).hex() == expected.hex()
        assert risk >= 0.0 and math.copysign(1.0, risk) == 1.0
        if max(signs) < 1:
            assert risk == 0.0

    def test_hand_made_table_is_not_served_a_built_tables_logs(self):
        # both tables share (setup, prior); their log rows must not
        setup, prior = BinomialSetup(n=1), PriorSpec(a=1.0, b=1.0)
        built = EstimateTable.build(setup, prior)
        hand = EstimateTable(setup=setup, prior=prior, values=(0.5, 0.5))
        assert point_risk(built, 0.5) > 0.0
        assert point_risk(hand, 0.5) == 0.0
        assert point_risk(built, 0.5) == full_row_risk(built, 0.5)



class TestCoreWindowCertificate:
    # p near 0 and near 1 besides EDGE_PS: at n >= 1e3 the core window
    # drops terms at each of them
    PS = (*EDGE_PS, 1e-300, 1e-6, 1.0 - 1e-6)

    @pytest.mark.parametrize("p", PS)
    @pytest.mark.parametrize("n", [1_000, 10_000, 100_000])
    def test_core_sum_equals_the_full_row_sum(self, n, p):
        priors = [PriorSpec(a=1.0, b=1.0), PriorSpec(a=0.5, b=3.0, p_bar=0.3)]
        if n == 1_000:  # above it the interval tables fail to build
            priors.append(PriorSpec(a=2.0, b=1.0, p_bar=0.5, p_lo=0.01))
        assert pmf_windows(n, p).tail > 0.0
        for prior in priors:
            table = EstimateTable.build(BinomialSetup(n=n), prior)
            risk, expected = point_risk(table, p), full_row_risk(table, p)
            assert risk.hex() == expected.hex()  # the sign bit too

    def test_failed_certificate_falls_back_to_the_exact_window(self, summed_rows, monkeypatch):
        n, p = 10_000, 0.3
        built = EstimateTable.build(BinomialSetup(n=n), PriorSpec(a=1.0, b=1.0))
        # a hand-built copy, so that its rows, edited below, are its own
        table = EstimateTable(built.setup, built.prior, built.values)
        exact = binom.PmfWindows.exact
        exact_reads = []

        def reading(windows):
            exact_reads.append(windows)
            return exact(windows)

        monkeypatch.setattr(binom.PmfWindows, "exact", reading)
        expected = full_row_risk(table, p)
        assert point_risk(table, p) == expected
        assert summed_rows == [1_036]  # the certificate held on the core row
        assert exact_reads == []
        log_ds, log_es, _, fill = table._logs
        vars(table)["_logs"] = log_ds, log_es, 1e20, fill  # a ceiling no sum can absorb
        assert point_risk(table, p) == expected
        assert summed_rows == [1_036, 1_036, 3_480]
        assert exact_reads == [pmf_windows(n, p)]

    # 21 p from 1e-300 to 1 - 1e-12, EDGE_PS among them
    DEPTH_PS = sorted(
        {*PS, 1e-100, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.29, 0.4, 0.7, 0.9, 0.999, 1.0 - 1e-4}
    )

    @pytest.mark.parametrize("n", [300, 1_000, 10_000, 100_000])
    def test_certificate_holds_at_the_core_depth(self, n, summed_rows):
        # each point risk sums its core row once and certifies it, with no
        # exact-window fallback, and is still the full row's sum. At n = 1e5
        # every other p (both ends kept) keeps the full-row sums under 3 s
        ps = self.DEPTH_PS if n < 100_000 else self.DEPTH_PS[::2]
        for prior in (PriorSpec(a=1.0, b=1.0), PriorSpec(a=0.5, b=3.0, p_bar=0.3)):
            table = EstimateTable.build(BinomialSetup(n=n), prior)
            for p in ps:
                summed_rows.clear()
                risk = point_risk(table, p)
                assert summed_rows == [len(pmf_windows(n, p).core[1])]
                assert risk.hex() == full_row_risk(table, p).hex()

    def test_the_certificate_checks_the_low_side_only_for_signed_terms(self):
        # the terms left out sum to within [low b, b], b = tail (2 ceiling
        # + 1): here b = 0.75 ulp(1)/2, so 1 + b rounds to 1.0 and 1 - b
        # does not, and only terms of either sign (low = -1.0) read that
        core = (0, (0.5, 0.5))
        half_ulp = 2.0**-53
        windows = SimpleNamespace(core=core, tail=0.75 * half_ulp)
        assert risk_module._certified(windows, core, [0.5, 0.5], 1.0, 0.0, 0.0)
        assert not risk_module._certified(windows, core, [0.5, 0.5], 1.0, 0.0, -1.0)
        # a bound that moves 1 + b fails on both sides
        wide = SimpleNamespace(core=core, tail=4.0 * half_ulp)
        for low in (0.0, -1.0):
            assert not risk_module._certified(wide, core, [0.5, 0.5], 1.0, 0.0, low)
        # the exact window, and a core that leaves nothing out, hold outright,
        # whatever the sum, and sum nothing more
        exact = (0, (0.25, 0.5, 0.25))
        full = SimpleNamespace(core=core, tail=0.0)
        for low in (0.0, -1.0):
            terms = [0.5, 0.5]
            assert risk_module._certified(wide, exact, terms, 2.0, 1e300, low)
            assert risk_module._certified(full, core, terms, 2.0, 1e300, low)
            assert terms == [0.5, 0.5]

    def test_zero_core_sum_is_never_certified(self):
        # d = p on the core window and 0.5 off it: the core terms are all
        # 0.0, the full sum is positive, and only the exact window gives it
        n, p = 1_000, 0.3
        core_start, core = pmf_windows(n, p).core
        core_stop = core_start + len(core)
        values = tuple(p if core_start <= x < core_stop else 0.5 for x in range(n + 1))
        table = EstimateTable(
            setup=BinomialSetup(n=n), prior=PriorSpec(a=1.0, b=1.0), values=values
        )
        risk = point_risk(table, p)
        assert 0.0 < risk == full_row_risk(table, p)

    def test_core_window_holds_the_x_within_64_of_the_peak(self):
        # the log pmf by lgamma, apart from the library's log C(n, x): the
        # x nearest the core's edge is 0.05 inside it
        n, p = 10_000, 0.3
        log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)
        log_pmf = [
            log_n - math.lgamma(x + 1) - math.lgamma(n - x + 1) + x * log_p + (n - x) * log_q
            for x in range(n + 1)
        ]
        peak = max(log_pmf)
        binom._long_windows.cache_clear()
        windows = pmf_windows(n, p)
        core_start, core = windows.core
        start, exact = windows.exact()
        assert len(core) == sum(v >= peak - 64.0 for v in log_pmf) == 1_036
        # the exact window also holds 4 exponents in [-746.2, -745.13),
        # where exp is already 0.0
        assert len(exact) == 3_480
        assert sum(w != 0.0 for w in exact) == sum(w != 0.0 for w in full_pmf_row(n, p))
        # the exact window extends the core: each term is exponentiated once
        held = exact[core_start - start : core_start - start + len(core)]
        assert all(a is b for a, b in zip(held, core, strict=True))


class TestRowsFilledWhereRead:
    """The p-free rows are computed only where a window reads them: log C(n,
    x) over the terms a window computes, which the edge searches, done in
    lgamma form, do not add to, and the table's log rows over the spans
    summed."""

    def test_a_cold_window_computes_only_its_core(self, monkeypatch):
        spans = []
        entries = binom._coeff_entries

        def spy(n, log_n1, log_s, d_s, start, stop):
            spans.append((start, stop))
            return entries(n, log_n1, log_s, d_s, start, stop)

        monkeypatch.setattr(binom, "_coeff_entries", spy)
        binom._lazy_coeffs.cache_clear()
        binom._long_windows.cache_clear()
        windows = pmf_windows(100_000, 0.29)
        core_start, core = windows.core
        assert spans == [(core_start, core_start + len(core))] and len(core) == 3_246
        # the exact window's edge searches read no row either: it computes
        # the stretches it adds on each side of the core
        start, terms = windows.exact()
        assert spans[1:] == [(start, core_start), (core_start + len(core), start + len(terms))]
        binom._lazy_coeffs.cache_clear()
        binom._long_windows.cache_clear()

    def test_one_shot_risk_fills_only_its_core(self):
        n, p = 100_000, 0.29
        binom._lazy_coeffs.cache_clear()
        binom._long_windows.cache_clear()
        built = EstimateTable.build(BinomialSetup(n=n), PriorSpec(a=1.0, b=1.0, p_bar=0.3))
        table = EstimateTable(built.setup, built.prior, built.values)  # rows of its own
        risk = point_risk(table, p)
        core = len(pmf_windows(n, p).core[1])
        assert core == 3_246 == filled(binom._log_binom_coeffs(n))
        assert [filled(row) for row in table._logs[:2]] == [core, core]
        assert risk.hex() == full_row_risk(table, p).hex()

    def test_a_grid_fills_the_stretch_its_windows_span(self):
        # windows at increasing p overlap; the rows, log C(n, x) too, grow
        # one filled stretch from the first window's start to the last one's
        # stop
        n = 3_000
        binom._lazy_coeffs.cache_clear()
        built = EstimateTable.build(BinomialSetup(n=n), PriorSpec(a=1.0, b=1.0))
        table = EstimateTable(built.setup, built.prior, built.values)
        ps = [0.2 + 0.01 * k for k in range(11)]
        for p in ps:
            point_risk(table, p)
        start = pmf_windows(n, ps[0]).core[0]
        stop_start, last = pmf_windows(n, ps[-1]).core
        span = list(range(start, stop_start + len(last)))
        for row in table._logs[:2]:
            assert [x for x, v in enumerate(row) if v == v] == span
        assert filled(binom._log_binom_coeffs(n)) == len(span)

    @pytest.mark.parametrize("n", [300, 1_000, 3_000])
    def test_a_sweep_computes_each_coefficient_once(self, monkeypatch, n):
        # only the windows' spans compute entries, each growing the one
        # filled stretch: over a 64-p sweep of both tables of a risk-large-n
        # job no x of log C(n, x) is computed twice
        computed = []
        entries = binom._coeff_entries

        def spy(n, log_n1, log_s, d_s, start, stop):
            computed.extend(range(start, stop))
            return entries(n, log_n1, log_s, d_s, start, stop)

        monkeypatch.setattr(binom, "_coeff_entries", spy)
        binom._lazy_coeffs.cache_clear()
        binom._long_windows.cache_clear()
        setup = BinomialSetup(n=n)
        tables = [EstimateTable.build(setup, PriorSpec(1.0, 1.0, p_bar=bar)) for bar in (None, 0.3)]
        for k in range(1, 65):
            for table in tables:
                point_risk(table, 0.3 * k / 64)
        assert len(computed) == len(set(computed)) == filled(binom._log_binom_coeffs(n))
        binom._lazy_coeffs.cache_clear()
        binom._long_windows.cache_clear()

    def test_kept_rows_cost_8_bytes_an_entry(self):
        # the rows a cold upper table at n = 3000 keeps after a 64-p sweep,
        # log C(n, x), log d, log(1-d) and c, are packed: dropping them, c with
        # the entries of rho that read it, frees 8 bytes an entry, computed
        # or not, and a few KB of headers, where an entry held as a float
        # object takes 32 bytes more
        n = 3_000
        tracemalloc.start()
        try:
            binom._lazy_coeffs.cache_clear()
            binom._long_windows.cache_clear()
            table = estimators._estimate_table(BinomialSetup(n=n), PriorSpec(1.0, 1.0, p_bar=0.3))
            for k in range(1, 65):
                point_risk(table, 0.3 * k / 64)
            binom._long_windows.cache_clear()  # its windows hold the coefficient row too
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del vars(table)["_logs"], vars(table)["_c_row"], vars(table)["_rhos"]
            binom._lazy_coeffs.cache_clear()
            gc.collect()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        entries = 3 * (n + 1) + n + 2
        assert 8 * entries <= held <= 8 * entries + 4_096

    def test_no_ratio_bound_sums_the_exact_window(self, monkeypatch, summed_rows):
        # a ratio that rounds to 1 or more past an edge leaves the core with
        # no tail bound: tail is inf and the sum runs over the exact window
        n, p = 10_000, 0.3
        monkeypatch.setattr(binom, "_RATIO_SLACK", 1e6)
        binom._long_windows.cache_clear()
        table = EstimateTable.build(BinomialSetup(n=n), PriorSpec(a=1.0, b=1.0))
        assert pmf_windows(n, p).tail == math.inf
        assert point_risk(table, p).hex() == full_row_risk(table, p).hex()
        assert summed_rows == [1_036, 3_480]
        binom._long_windows.cache_clear()

    @pytest.mark.parametrize("n", [300, 1_000, 10_000, 100_000])
    def test_tail_bounds_the_terms_the_core_leaves_out(self, n):
        # every term outside the core, summed over the whole row, lies under
        # the tail: e^(floor + 1) times 1/(1 - r) on each side
        for p in TestCoreWindowCertificate.DEPTH_PS[:: 1 if n < 100_000 else 3]:
            windows = pmf_windows(n, p)
            core_start, core = windows.core
            row = full_pmf_row(n, p)
            left_out = row[:core_start] + row[core_start + len(core) :]
            assert math.fsum(left_out) <= windows.tail
            assert (windows.tail == 0.0) == (len(core) == n + 1)

    @pytest.mark.parametrize("seed, n_max, p_min", [(39, 1e5, 1e-9), (42, 1e4, 1e-12)])
    def test_seeded_risks_equal_the_full_row_sums(self, seed, n_max, p_min):
        # n log-uniform on [1, n_max], p log-uniform on [p_min, 1/2] and
        # mirrored on half the draws, untruncated or upper-truncated priors.
        # The edges are searched in lgamma form: the exact window still
        # reaches the full row's first and last nonzero terms
        rng = random.Random(seed)
        differ = []
        for _ in range(60):
            n = int(10 ** rng.uniform(0.0, math.log10(n_max)))
            p = 10 ** rng.uniform(math.log10(p_min), math.log10(0.5))
            p = 1.0 - p if rng.random() < 0.5 else p
            a, b = 10 ** rng.uniform(-1.0, 1.0), 10 ** rng.uniform(-1.0, 1.0)
            p_bar = rng.choice([None, rng.uniform(0.01, 0.99)])
            table = EstimateTable.build(BinomialSetup(n=n), PriorSpec(a, b, p_bar=p_bar))
            start, terms = pmf_windows(n, p).exact()
            held = [x for x, w in enumerate(terms, start) if w]
            nonzero = [x for x, w in enumerate(full_pmf_row(n, p)) if w]
            window = (held[0], held[-1]) == (nonzero[0], nonzero[-1])
            if not window or point_risk(table, p).hex() != full_row_risk(table, p).hex():
                differ.append((n, p, a, b, p_bar))
        assert differ == []


class TestRiskSums:
    """_risk_sums takes one log p and log(1-p) for all the tables of a call;
    each table's sum is still its full row's, bit for bit."""

    PS = (*EDGE_PS, 1e-300, 1e-6, 0.05, 0.2)

    @pytest.fixture(scope="class")
    def mixed_tables(self):
        upper = PriorSpec(a=0.5, b=3.0, p_bar=0.3)
        interval = PriorSpec(a=2.0, b=1.0, p_bar=0.5, p_lo=0.01)
        tables = [
            EstimateTable.build(BinomialSetup(n=n), prior)
            for n in (1, 12, 13, 300)  # 12 and 13 are the last short and first long row
            for prior in (upper, interval)
        ]
        large = [EstimateTable.build(BinomialSetup(n=10_000), PriorSpec(a=1.0, b=1.0))]
        large.append(EstimateTable.build(BinomialSetup(n=10_000), upper))
        # a hand-built copy whose ceiling no sum can absorb: at p = 0.3 its
        # certificate fails and it sums the exact window
        hand = EstimateTable(large[0].setup, large[0].prior, large[0].values)
        log_ds, log_es, _, fill = hand._logs
        vars(hand)["_logs"] = log_ds, log_es, 1e20, fill
        return [*tables, *large, hand]

    @pytest.mark.parametrize("p", PS)
    def test_each_sum_is_the_full_row_sum(self, mixed_tables, p, summed_rows):
        sums = risk_module._risk_sums(mixed_tables, p)
        expected = [full_row_risk(table, p) for table in mixed_tables]
        assert [v.hex() for v in sums] == [v.hex() for v in expected]
        if p == 0.3:
            # the two built tables at n = 1e4 are certified on the core; the
            # hand-built copy's certificate fails and it sums the exact window
            windows = pmf_windows(10_000, p)
            core, exact = len(windows.core[1]), len(windows.exact()[1])
            assert summed_rows[-4:] == [core, core, core, exact] == [1_036, 1_036, 1_036, 3_480]

    def test_connection_sum_over_the_acceptance_sweep(self):
        # the 1,080 configurations of the acceptance sweep at their 25 p
        # (tests/test_acceptance.py): each connection sum is the correctly
        # rounded sum of its l tables' full-row risks
        sweep = {
            (None, None): [i / 26 for i in range(1, 26)],
            (0.3, None): [0.3 * i / 25 for i in range(1, 26)],
            (0.4, 0.1): [0.1 + (0.4 - 0.1) * i / 24 for i in range(25)],
        }
        oracle = {}

        def full_risk(m, prior, p):
            if (m, prior, p) not in oracle:
                table = EstimateTable.build(BinomialSetup(n=m), prior)
                oracle[m, prior, p] = full_row_risk(table, p)
            return oracle[m, prior, p]

        checked, differ = 0, []
        for n in range(1, 9):
            for l in range(1, 6):
                for a in (0.5, 1.0, 2.0):
                    for b in (0.5, 1.0, 2.0):
                        for (p_bar, p_lo), ps in sweep.items():
                            prior = PriorSpec(a=a, b=b, p_bar=p_bar, p_lo=p_lo)
                            checked += 1
                            for p in ps:
                                risk = connection_sum(p, n, l, prior)
                                expected = math.fsum(
                                    [full_risk(m, prior, p) for m in range(n, n + l)]
                                )
                                if risk.hex() != expected.hex():
                                    differ.append((n, l, prior, p))
        assert checked == 1_080
        assert differ == []


class TestWindowCaches:
    def test_large_n_leaves_the_short_row_cache_empty(self):
        # a risk curve at large n fills the long-row cache only, which keeps
        # at most 8 windows
        for cache in (binom._short_windows, binom._long_windows):
            cache.cache_clear()
        table = EstimateTable.build(BinomialSetup(n=3000), PriorSpec(a=1.0, b=1.0))
        for k in range(1, 101):
            point_risk(table, k / 101)
        assert binom._short_windows.cache_info().currsize == 0
        long_rows = binom._long_windows.cache_info()
        assert long_rows.misses == 100 and long_rows.currsize <= 8

    def test_a_predictive_sweep_builds_each_window_once(self):
        # the acceptance sweep's loop at one restriction: 25 p, n <= 8 and
        # l <= 5, the Bayes and the plug-in set alternating at each p with
        # the connection sum between them. It reads the windows of (m, p)
        # for m = 1..12 (n + l - 1 at most), and builds each once; the
        # plug-in masses build none
        for cache in (binom._short_windows, binom._long_windows):
            cache.cache_clear()
        prior = PriorSpec(a=1.0, b=1.0, p_bar=0.3)
        ps = [0.3 * i / 25 for i in range(1, 26)]
        for n in range(1, 9):
            est = EstimateTable.build(BinomialSetup(n=n), prior)
            for l in range(1, 6):
                setup = BinomialSetup(n=n, l=l)
                bayes = [t.density for t in bayes_predictive_tables(setup, prior)]
                plug = [[plug_in_density(y, l, d) for y in range(l + 1)] for d in est.values]
                for p in ps:
                    predictive_kl_risk(bayes, p, setup)
                    connection_sum(p, n, l, prior)
                    predictive_kl_risk(plug, p, setup)
        short_rows = binom._short_windows.cache_info()
        assert short_rows.misses == short_rows.currsize == 12 * 25
        assert binom._long_windows.cache_info().misses == 0


class TestPredictiveKlRisk:
    def test_truth_gives_zero(self):
        setup = BinomialSetup(n=2, l=3)
        p = 0.3
        tables = [window_row(3, p) for _ in range(3)]
        assert abs(predictive_kl_risk(tables, p, setup)) < 1e-15

    def test_rejects_zero_mass(self):
        setup = BinomialSetup(n=1, l=1)
        with pytest.raises(ValueError):
            predictive_kl_risk([[0.0, 1.0], [0.5, 0.5]], 0.5, setup)

    def test_rejects_a_missing_table(self):
        # n tables for the n + 1 counts x = 0..n
        tables = [[0.5, 0.5] for _ in range(3)]
        with pytest.raises(ValueError, match=r"^need a table for every x = 0\.\.3$"):
            predictive_kl_risk(tables, 0.5, BinomialSetup(n=3, l=1))

    def test_rejects_zero_mass_where_the_pmf_underflows(self):
        # Bin(2000; 2000, 1e-3) is exactly 0.0, yet the bad table is an error
        n, p = 2000, 1e-3
        setup = BinomialSetup(n=n, l=1)
        tables = [[0.5, 0.5] for _ in range(n)] + [[0.0, 1.0]]
        assert window_row(n, p)[n] == 0.0
        with pytest.raises(ValueError, match=r"\(x=2000, y=0\) is not positive"):
            predictive_kl_risk(tables, p, setup)

    @pytest.mark.parametrize(
        "masses, y",
        [((math.nan, -0.5, 1.5), 0), ((-0.5, math.nan, 1.5), 0), ((0.5, math.nan, -0.5), 1)],
        ids=["nan-first", "negative-first", "nan-between"],
    )
    def test_names_the_first_bad_mass_next_to_a_nan(self, masses, y):
        # a NaN mass is as bad as one <= 0.0, wherever it sits in its table
        setup = BinomialSetup(n=1, l=2)
        tables = [(0.25, 0.5, 0.25), masses]
        with pytest.raises(ValueError, match=rf"\(x=1, y={y}\) is not positive and finite"):
            predictive_kl_risk(tables, 0.3, setup)

    def test_a_nan_mass_alone_is_an_error(self):
        # NaN <= 0.0 is false, yet a NaN mass is not a mass: the risk it
        # entered used to be NaN
        setup = BinomialSetup(n=1, l=2)
        tables = [(0.25, 0.5, 0.25), (0.25, math.nan, 0.25)]
        with pytest.raises(ValueError, match=r"\(x=1, y=1\) is not positive and finite"):
            predictive_kl_risk(tables, 0.3, setup)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    @pytest.mark.parametrize("x", [1, 2])
    def test_an_infinite_mass_is_an_error(self, bad, x):
        # an infinite mass used to give a risk of -inf, or slip past as
        # positive; it is named at the first (x, y) the sum reads
        setup = BinomialSetup(n=2, l=1)
        tables = [(0.5, 0.5), (0.5, 0.5), (0.3, 0.7)]
        tables[x] = (0.5, bad) if x == 1 else (bad, 0.7)
        y = 1 if x == 1 else 0
        with pytest.raises(ValueError, match=rf"\(x={x}, y={y}\) is not positive and finite"):
            predictive_kl_risk(tables, 0.3, setup)

    @pytest.mark.parametrize("p", (1e-3, *EDGE_PS))
    @pytest.mark.parametrize("n, l", [(1, 1), (8, 5), (300, 2), (2000, 3)])
    def test_window_sum_equals_the_full_row_sum(self, n, l, p):
        # the window drops only x whose pmf weight is exactly 0.0
        setup = BinomialSetup(n=n, l=l)
        priors = [PriorSpec(a=0.5, b=3.0, p_bar=0.3)]
        if n <= 8:
            priors.append(PriorSpec(a=2.0, b=1.0, p_bar=0.5, p_lo=0.05))
        for prior in priors:
            table = EstimateTable.build(BinomialSetup(n=n), prior)
            plug = [[plug_in_density(y, l, d) for y in range(l + 1)] for d in table.values]
            cases = [plug]
            if n <= 8:
                cases.append([t.density for t in bayes_predictive_tables(setup, prior)])
            for tables in cases:
                risk = predictive_kl_risk(tables, p, setup)
                assert risk == full_row_kl_risk(tables, p, setup)

    @pytest.mark.parametrize("odd", [[0.25, 0.5, 0.25, 0.7], [0.25, 0.75]])
    def test_rejects_table_of_wrong_length(self, odd):
        # one mass too many used to be ignored, one too few an IndexError
        setup = BinomialSetup(n=2, l=2)
        proper = [0.25, 0.5, 0.25]
        with pytest.raises(ValueError, match="every y"):
            predictive_kl_risk([proper, odd, proper], 0.5, setup)

    @pytest.mark.parametrize("l", [1, 2, 4])
    @pytest.mark.parametrize("p", [0.1, 0.45, 0.8])
    def test_plug_in_factorizes(self, l, p):
        # KL risk of the plug-in density is exactly l times the point risk
        setup = BinomialSetup(n=3, l=l)
        table = EstimateTable.build(BinomialSetup(n=3), PriorSpec(a=1.0, b=2.0))
        plug = [
            [plug_in_density(y, l, table[x]) for y in range(l + 1)]
            for x in range(4)
        ]
        assert predictive_kl_risk(plug, p, setup) == pytest.approx(
            l * point_risk(table, p), abs=1e-12
        )


class TestMassLogRows:
    """predictive_kl_risk takes the log rows of a table set once, recognised
    by its masses, and each p sums over them."""

    PRIORS = [
        PriorSpec(a=1.0, b=1.0),
        PriorSpec(a=0.5, b=2.0, p_bar=0.4),
        PriorSpec(a=2.0, b=3.0, p_bar=0.5, p_lo=0.05),
    ]

    @staticmethod
    def sets(setup, prior):
        est = EstimateTable.build(BinomialSetup(n=setup.n), prior)
        plug = [[plug_in_density(y, setup.l, d) for y in range(setup.l + 1)] for d in est.values]
        return [t.density for t in bayes_predictive_tables(setup, prior)], plug

    def test_a_table_changed_in_place_is_read_afresh(self):
        setup = BinomialSetup(n=3, l=2)
        _, plug = self.sets(setup, PriorSpec(a=1.0, b=1.0))
        before = predictive_kl_risk(plug, 0.3, setup)
        plug[1][:] = [0.2, 0.5, 0.3]
        after = predictive_kl_risk(plug, 0.3, setup)
        risk_module._kept_sets.clear()
        assert after == predictive_kl_risk(plug, 0.3, setup) != before
        assert after == full_row_kl_risk(plug, 0.3, setup)

    def test_one_table_set_is_logged_once_for_every_p(self, monkeypatch):
        setup = BinomialSetup(n=6, l=3)
        tables, _ = self.sets(setup, PriorSpec(a=1.0, b=1.0, p_bar=0.5))
        built = []
        log_rows = risk_module._log_rows

        def counting(masses, l):
            built.append(l)
            return log_rows(masses, l)

        monkeypatch.setattr(risk_module, "_log_rows", counting)
        risk_module._kept_sets.clear()
        for k in range(1, 26):
            predictive_kl_risk(tables, 0.5 * k / 25, setup)
        assert built == [3]

    @pytest.mark.parametrize("prior", PRIORS, ids=["none", "upper", "interval"])
    @pytest.mark.parametrize("n, l", [(1, 1), (5, 3), (40, 2)])
    def test_repeated_calls_equal_the_full_row_sum(self, n, l, prior):
        # the two sets alternate at each p, as in a sweep, so the cached
        # rows are read at every p but the first
        setup = BinomialSetup(n=n, l=l)
        bayes, plug = self.sets(setup, prior)
        for p in (0.01, 0.05, 0.2, 0.35, 0.4):
            for tables in (bayes, plug):
                assert predictive_kl_risk(tables, p, setup) == full_row_kl_risk(tables, p, setup)

    def test_bad_tables_fail_at_every_p(self):
        setup = BinomialSetup(n=1, l=2)
        zero = [(0.25, 0.5, 0.25), (0.5, 0.0, 0.5)]
        nan = [(0.25, 0.5, 0.25), (0.25, math.nan, 0.25)]
        short = [(0.25, 0.5, 0.25), (0.5, 0.5)]
        for p in (0.3, 0.6):
            with pytest.raises(ValueError, match=r"\(x=1, y=1\) is not positive"):
                predictive_kl_risk(zero, p, setup)
            with pytest.raises(ValueError, match=r"\(x=1, y=1\) is not positive and finite"):
                predictive_kl_risk(nan, p, setup)
            with pytest.raises(ValueError, match="every y"):
                predictive_kl_risk(short, p, setup)

    def test_a_zero_mass_outside_the_window_is_never_read(self):
        # Bin(2; 2, p) is 0.0 in double precision at these p, so y = 2 is
        # outside the window of f and its zero mass is neither an error nor
        # summed
        setup = BinomialSetup(n=1, l=2)
        tables = [(0.5, 0.5, 0.0), (0.5, 0.5, 0.0)]
        assert window_row(2, 1e-200)[2] == 0.0
        for p in (1e-200, 1e-250):
            assert predictive_kl_risk(tables, p, setup) == full_row_kl_risk(tables, p, setup)


class TestConnectionSum:
    def test_single_step_is_point_risk(self):
        prior = PriorSpec(a=1.0, b=1.0)
        table = EstimateTable.build(BinomialSetup(n=2), prior)
        assert connection_sum(0.3, 2, 1, prior) == pytest.approx(
            point_risk(table, 0.3), rel=1e-14, abs=0
        )

    @pytest.mark.parametrize(
        "prior,p",
        [
            (PriorSpec(a=1.0, b=1.0), 0.3),
            (PriorSpec(a=1.0, b=1.0, p_bar=0.4), 0.2),
            (PriorSpec(a=0.5, b=2.0, p_bar=0.4, p_lo=0.1), 0.25),
        ],
    )
    @pytest.mark.parametrize("n,l", [(1, 2), (2, 3), (4, 2)])
    def test_equals_predictive_risk(self, prior, p, n, l):
        setup = BinomialSetup(n=n, l=l)
        tables = bayes_predictive_tables(setup, prior)
        direct = predictive_kl_risk(
            [t.density for t in tables], p, setup
        )
        assert connection_sum(p, n, l, prior) == pytest.approx(direct, abs=1e-10)

    def test_single_step_bayes_predictive_risk_matches(self):
        # the one-step predictive KL risk equals the posterior-mean point risk
        prior = PriorSpec(a=1.0, b=1.0, p_bar=0.5)
        setup = BinomialSetup(n=3, l=1)
        tables = bayes_predictive_tables(setup, prior)
        direct = predictive_kl_risk([t.density for t in tables], 0.3, setup)
        table = EstimateTable.build(BinomialSetup(n=3), prior)
        assert direct == pytest.approx(point_risk(table, 0.3), abs=1e-12)

    @pytest.mark.parametrize(
        "prior",
        [
            PriorSpec(a=1.0, b=1.0),
            PriorSpec(a=0.5, b=2.0, p_bar=0.4),
            PriorSpec(a=2.0, b=3.0, p_bar=0.5, p_lo=0.05),
        ],
        ids=["none", "upper", "interval"],
    )
    @pytest.mark.parametrize("l", [1, 3, 5])
    @pytest.mark.parametrize("n", [1, 8, 60, 64, 255, 256, 300])
    def test_is_the_sum_of_point_risks_bit_for_bit(self, n, l, prior):
        # the l tables are resolved once per configuration; from n = 60 on
        # they run over 64 estimates, the last size with whole log rows, to
        # longer tables whose rows are filled where the sums read them
        for p in (1e-3, 0.03, 0.2, 0.45):
            point_risks = [
                point_risk(EstimateTable.build(BinomialSetup(n=n + i), prior), p)
                for i in range(l)
            ]
            assert connection_sum(p, n, l, prior) == math.fsum(point_risks)

    def test_keeps_only_the_last_long_configuration(self):
        # one configuration is kept, and estimators keeps two long tables,
        # so after four long configurations only the last one's l tables
        # stay alive
        priors = [PriorSpec(a=a, b=1.0, p_bar=0.5) for a in (0.5, 1.0, 1.5, 2.0)]
        for prior in priors:
            connection_sum(0.3, 3000, 10, prior)
        gc.collect()
        large = [
            obj for obj in gc.get_objects()
            if isinstance(obj, EstimateTable) and len(obj.values) > 64
        ]
        assert sorted((t.setup.n, t.prior) for t in large) == [
            (m, priors[-1]) for m in range(3000, 3010)
        ]
        risk_module._connection_tables.cache_clear()

    def test_a_long_sweep_builds_each_table_once(self, monkeypatch):
        # the long configuration is kept for every p, so a sweep builds its
        # five tables once, where estimators alone keeps only two of them
        built = []

        def spy(setup, prior):
            built.append(setup.n)
            return estimators._estimate_table(setup, prior)

        size = estimators._build_large_table.cache_info().maxsize
        monkeypatch.setattr(estimators, "_build_large_table", lru_cache(maxsize=size)(spy))
        risk_module._connection_tables.cache_clear()
        for k in range(1, 17):
            connection_sum(0.3 * k / 16, 300, 5, PriorSpec(1.0, 2.0, p_bar=0.3))
        risk_module._connection_tables.cache_clear()
        assert built == [300, 301, 302, 303, 304]

    def test_a_sweep_resolves_its_tables_once(self):
        # every caller sweeps p inside one configuration, so the one kept
        # configuration serves all but the first p of a predictive job
        risk_module._connection_tables.cache_clear()
        prior = PriorSpec(a=1.0, b=1.0, p_bar=0.3)
        for k in range(1, 26):
            connection_sum(0.3 * k / 25, 8, 5, prior)
        info = risk_module._connection_tables.cache_info()
        risk_module._connection_tables.cache_clear()
        assert (info.misses, info.hits, info.maxsize) == (1, 24, 1)

    @pytest.mark.parametrize("p,n,l", [(0.3, 5, 0), (7.0, 5, -2)])
    def test_rejects_invalid_arguments(self, p, n, l):
        # an empty step range or a p outside (0, 1) used to give 0.0
        with pytest.raises(ValueError):
            connection_sum(p, n, l, PriorSpec(a=1.0, b=1.0))


class TestMonteCarlo:
    def test_deterministic_given_seed(self):
        table = EstimateTable.build(BinomialSetup(n=4), PriorSpec(a=1.0, b=1.0))
        first = mc_risk(table, 0.3, 10_000, seed=42)
        second = mc_risk(table, 0.3, 10_000, seed=42)
        assert first == second

    def test_single_draw_reports_infinite_error(self):
        table = EstimateTable.build(BinomialSetup(n=4), PriorSpec(a=1.0, b=1.0))
        est, se = mc_risk(table, 0.3, 1, seed=0)
        assert math.isinf(se)
        assert est >= 0.0

    def test_standard_error_scaling(self):
        table = EstimateTable.build(BinomialSetup(n=5), PriorSpec(a=1.0, b=1.0))
        ses = [mc_risk(table, 0.3, N, seed=7)[1] for N in (10**4, 10**5, 10**6)]
        for big, small in zip(ses, ses[1:]):
            ratio = big / small / math.sqrt(10.0)
            assert 0.5 < ratio < 2.0

    def test_consistent_with_exact(self):
        table = EstimateTable.build(BinomialSetup(n=1), PriorSpec(a=1.0, b=1.0))
        est, se = mc_risk(table, 0.5, 10**6, seed=123)
        assert abs(est - point_risk(table, 0.5)) < 4.0 * se

    @pytest.mark.parametrize(
        "n, prior, p, draws, seed, expected",
        [
            (
                50, PriorSpec(a=1.0, b=1.0, p_bar=0.2), 0.1, 1000, 7,
                ("0x1.72dc8585966bdp-8", "0x1.16be268465407p-12"),
            ),
            (
                3000, PriorSpec(a=0.5, b=3.0, p_bar=0.5), 0.3, 100, 0,
                ("0x1.88c212949755ap-13", "0x1.9d940c0dae928p-16"),
            ),
            (
                5, PriorSpec(a=2.0, b=1.0, p_bar=0.5, p_lo=0.05), 0.45, 1, 3,
                ("0x1.5fe085ffe479ep-5", "inf"),
            ),
        ],
    )
    def test_seeded_values_are_pinned_bit_for_bit(self, n, prior, p, draws, seed, expected):
        # the values the sampler gave in the library, before its loss row
        # came from the table's log rows and before it moved to the tests; the
        # first estimate moved 9 ulps when the upper table took one form
        table = EstimateTable.build(BinomialSetup(n=n), prior)
        est, se = mc_risk(table, p, draws, seed)
        assert (est.hex(), "inf" if se == math.inf else se.hex()) == expected


class TestSecondDerivativeIdentity:
    def test_constant_gives_zero(self):
        lhs, rhs = verify_second_derivative_identity([2.0, 2.0, 2.0], 2, 0.5)
        assert abs(rhs) < 1e-12
        assert abs(lhs) < 1e-4

    def test_linear_case(self):
        # phi(x) = x: p E[X] = n p^2, second derivative 2n = 4 at n = 2
        lhs, rhs = verify_second_derivative_identity([0.0, 1.0, 2.0], 2, 0.5)
        assert rhs == pytest.approx(4.0, rel=1e-12)
        assert lhs == pytest.approx(4.0, rel=1e-6)

    def test_stencil_domain_error(self):
        with pytest.raises(ValueError):
            verify_second_derivative_identity([1.0, 2.0], 1, 1e-5)


class TestLogJensenBound:
    def test_two_point_example(self):
        lhs, rhs = verify_log_jensen_bound({0.2: 0.5, 0.4: 0.5})
        mu, var = 0.3, 0.01
        assert lhs == pytest.approx(
            0.5 * math.log(0.8) + 0.5 * math.log(0.6), rel=1e-14, abs=0
        )
        assert rhs == pytest.approx(math.log(1.0 - mu) - var / 2.0, rel=1e-14, abs=0)
        assert lhs <= rhs

    def test_small_variance_gap_shrinks(self):
        wide = verify_log_jensen_bound({0.2: 0.5, 0.6: 0.5})
        narrow = verify_log_jensen_bound({0.39: 0.5, 0.41: 0.5})
        assert (wide[1] - wide[0]) > (narrow[1] - narrow[0]) >= 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            verify_log_jensen_bound({1.2: 1.0})
        with pytest.raises(ValueError):
            verify_log_jensen_bound({0.2: 0.7, 0.4: 0.7})
        with pytest.raises(ValueError):
            verify_log_jensen_bound({0.3: 1.0})  # zero variance

