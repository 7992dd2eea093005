"""Acceptance gate: every top-level requirement, one pass/fail line each.

Each test evaluates its criterion completely, prints a single
"[criterion NN] ... PASS/FAIL" line, and then asserts. Criterion 1 is
split per prior exponent so the two intervals are reported separately.
"""

import csv
import math
import time

import numpy as np
import pytest

from binrisk.binom import BinomialSetup, PriorSpec
from binrisk.dominance import (
    dominance_threshold_n1,
    exhaustive_dominance_check,
    max_risk_diff_symmetric_n1,
    risk_difference,
    standardized_risk_difference,
    thm32_bound,
    thm41_conditions,
)
from binrisk.estimators import EstimateTable, posterior_mean
from binrisk.incbeta import _bracket
from binrisk.poisson import PoissonConfig, limit_convergence_report
from binrisk.predictive import plug_in_density
from binrisk.risk import (
    bayes_predictive_tables,
    connection_sum,
    point_risk,
    predictive_kl_risk,
)
from binrisk.cli import main as cli_main

from conftest import (
    eval_I,
    eval_I_two_sided,
    max_risk_diff_jeffreys,
    max_risk_diff_uniform,
    mc_risk,
    quad_beta_measure,
    quad_posterior_mean,
    verify_log_jensen_bound,
    verify_second_derivative_identity,
)

A_B_GRID = [0.5, 1.0, 2.0]
RESTRICTIONS = [
    (None, None),
    (0.3, None),
    (0.4, 0.1),
]


def report(num: int, label: str, ok: bool) -> None:
    print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {label}"


def p_grid_for(p_bar, p_lo, count=25):
    if p_bar is None:
        return [i / (count + 1) for i in range(1, count + 1)]
    if p_lo is None:
        return [p_bar * i / count for i in range(1, count + 1)]
    return [p_lo + (p_bar - p_lo) * i / (count - 1) for i in range(count)]


@pytest.fixture(scope="module")
def full_sweep():
    """One pass over every configuration; collects the worst deviations for
    the connection formula and the plug-in factorization."""
    worst_connection = 0.0
    worst_plugin = 0.0
    start = time.time()
    for n in range(1, 9):
        for l in range(1, 6):
            setup = BinomialSetup(n=n, l=l)
            for a in A_B_GRID:
                for b in A_B_GRID:
                    for p_bar, p_lo in RESTRICTIONS:
                        prior = PriorSpec(a=a, b=b, p_bar=p_bar, p_lo=p_lo)
                        tables = [
                            t.density
                            for t in bayes_predictive_tables(setup, prior)
                        ]
                        est = EstimateTable.build(BinomialSetup(n=n), prior)
                        plug = [
                            [plug_in_density(y, l, est[x]) for y in range(l + 1)]
                            for x in range(n + 1)
                        ]
                        for p in p_grid_for(p_bar, p_lo):
                            pred = predictive_kl_risk(tables, p, setup)
                            conn = connection_sum(p, n, l, prior)
                            worst_connection = max(
                                worst_connection, abs(pred - conn)
                            )
                            plug_risk = predictive_kl_risk(plug, p, setup)
                            worst_plugin = max(
                                worst_plugin,
                                abs(plug_risk - l * point_risk(est, p)),
                            )
    return worst_connection, worst_plugin, time.time() - start


@pytest.mark.parametrize(
    "a,lo,hi", [(1.0, 0.720, 0.730), (0.5, 0.770, 0.780)]
)
def test_criterion_01_threshold_reproduction(a, lo, hi):
    start = time.time()
    root = dominance_threshold_n1(a)
    elapsed = time.time() - start
    ok = lo <= root <= hi and elapsed < 1.0
    report(
        1,
        f"threshold a={a}: root {root:.6f} in [{lo}, {hi}], {elapsed:.2f}s < 1s",
        ok,
    )


def test_criterion_02_connection_formula(full_sweep):
    worst, _, elapsed = full_sweep
    ok = worst <= 1e-9 and elapsed < 30.0
    report(
        2,
        f"connection formula: worst |predictive - sum| {worst:.2e} <= 1e-9, "
        f"sweep {elapsed:.1f}s < 30s",
        ok,
    )


def test_criterion_03_plug_in_factorization(full_sweep):
    _, worst, _ = full_sweep
    ok = worst <= 1e-12
    report(3, f"plug-in factorization: worst deviation {worst:.2e} <= 1e-12", ok)


def test_criterion_04_integral_identities():
    worst_eq = 0.0
    worst_margin = 0.0
    worst_closed = 0.0
    for alpha in (0.5, 1.0, 2.5):
        for gap in (0.5, 1.0, 3.0):
            gamma = alpha + gap
            for k in range(1, 10):
                pb = 0.1 * k
                i0 = eval_I(alpha, gamma, pb)
                i_up = eval_I(alpha + 1.0, gamma + 1.0, pb)
                i_sh = eval_I(alpha, gamma + 1.0, pb)
                worst_eq = max(
                    worst_eq,
                    abs(alpha * i0 - 1.0 - pb * gamma * i_up)
                    / abs(alpha * i0),
                    abs(
                        (1.0 + 1.0 / (gap * i0)) * (1.0 + 1.0 / (pb * gamma * i_up))
                        - 1.0
                        - 1.0 / (pb * gap * i_up)
                    )
                    / abs(1.0 + 1.0 / (pb * gap * i_up)),
                    abs(1.0 + pb * gap * i_up - (1.0 - pb) * alpha * i_sh)
                    / abs((1.0 - pb) * alpha * i_sh),
                )
                worst_margin = max(
                    worst_margin, 1.0 / i_up - 1.0 - 1.0 / i_sh
                )
    for alpha in (0.5, 1.0, 2.5):
        for k in range(1, 10):
            pb = 0.1 * k
            closed = 1.0 / ((1.0 - pb) * alpha)
            worst_closed = max(
                worst_closed,
                abs(eval_I(alpha, alpha + 1.0, pb) - closed) / closed,
            )
    for k in range(1, 10):
        pb = 0.1 * k
        closed = (
            1.0
            + math.atan(math.sqrt(pb / (1.0 - pb))) / math.sqrt(pb * (1.0 - pb))
        ) / (1.0 - pb)
        worst_closed = max(
            worst_closed, abs(eval_I(0.5, 2.0, pb) - closed) / closed
        )

    worst_two = 0.0
    worst_strict = -math.inf
    rng = np.random.default_rng(4)
    for _ in range(30):
        alpha = float(rng.uniform(0.4, 3.0))
        gamma = alpha + float(rng.uniform(1.2, 4.0))
        pl = float(rng.uniform(0.03, 0.4))
        pb = pl + float(rng.uniform(0.05, 0.5)) * (0.95 - pl)
        br = _bracket(alpha, gamma, pl, pb)
        lhs1 = (
            alpha
            / gamma
            * quad_beta_measure(alpha, gamma - alpha, pl, pb)
            / quad_beta_measure(alpha + 1.0, gamma - alpha, pl, pb)
        )
        rhs1 = 1.0 + br / (
            pb * gamma * eval_I_two_sided(alpha + 1.0, gamma + 1.0, pl, pb)
        )
        lhs2 = (
            (gamma - alpha)
            / gamma
            * quad_beta_measure(alpha, gamma - alpha, pl, pb)
            / quad_beta_measure(alpha, gamma - alpha + 1.0, pl, pb)
        )
        rhs2 = 1.0 - br / (
            (1.0 - pb) * gamma * eval_I_two_sided(alpha, gamma + 1.0, pl, pb)
        )
        worst_two = max(
            worst_two, abs(lhs1 - rhs1) / abs(rhs1), abs(lhs2 - rhs2) / abs(rhs2)
        )
        worst_strict = max(
            worst_strict,
            br / eval_I_two_sided(alpha + 1.0, gamma + 1.0, pl, pb)
            - 1.0
            - br / eval_I_two_sided(alpha, gamma + 1.0, pl, pb),
        )
    ok = (
        worst_eq <= 1e-9
        and worst_margin <= 1e-12
        and worst_closed <= 1e-10
        and worst_two <= 1e-9
        and worst_strict < 0.0
    )
    report(
        4,
        f"integral identities: eq {worst_eq:.1e}, ineq margin {worst_margin:.1e}, "
        f"closed {worst_closed:.1e}, two-sided {worst_two:.1e}, "
        f"strict gap {worst_strict:.1e}",
        ok,
    )


def test_criterion_05_estimator_oracle_equivalence():
    worst = 0.0
    for n in (1, 2, 3, 5, 8, 13, 20):
        for a in A_B_GRID:
            for b in A_B_GRID:
                for p_bar, p_lo in RESTRICTIONS:
                    prior = PriorSpec(a=a, b=b, p_bar=p_bar, p_lo=p_lo)
                    lo, hi = prior.support
                    for x in range(n + 1):
                        prod = posterior_mean(x, prior, n)
                        oracle = quad_posterior_mean(x, n, a, b, lo, hi)
                        worst = max(worst, abs(prod - oracle) / abs(oracle))
    ok = worst <= 1e-8
    report(5, f"estimator oracle equivalence: worst rel {worst:.2e} <= 1e-8", ok)


def test_criterion_06_bound_validity():
    worst = math.inf
    for n in (1, 5, 9):
        for pb in (0.1, 0.2, 0.3, 0.4):
            grid = [pb * (i + 1) / 512 for i in range(511)] + [pb]
            for p in grid:
                margin = thm32_bound(p, n, 1.0, 1.0, pb) - (
                    standardized_risk_difference(p, n, 1.0, 1.0, pb)
                )
                worst = min(worst, margin)
    ok = worst >= -1e-10
    report(6, f"bound validity: min margin {worst:.2e} >= -1e-10", ok)


def test_criterion_07_figure_regeneration(tmp_path):
    panels = [(n, pb) for n in (1, 5, 9) for pb in (0.1, 0.2, 0.3, 0.4)]
    all_written = True
    strict_improvement = True
    for n, pb in panels:
        out = tmp_path / f"risk_curve_n{n}_pbar{pb}.csv"
        code = cli_main(
            ["risk-curve", "--n", str(n), "--a", "1", "--b", "1",
             "--p-bar", str(pb), "--grid", "512", "--out", str(out)]
        )
        all_written = all_written and code == 0 and out.exists()
        if pb == 0.1:
            with open(out, newline="") as handle:
                rows = list(csv.reader(handle))[1:]
            strict_improvement = strict_improvement and all(
                float(r[2]) < float(r[1]) for r in rows
            )
    ok = all_written and strict_improvement
    report(
        7,
        "figure data: 12 panels written; truncated risk strictly better on "
        "every small-bound panel",
        ok,
    )


def test_criterion_08_necessary_condition_contrapositive():
    rng = np.random.default_rng(8)
    min_diff = math.inf
    for _ in range(20):
        n = int(rng.integers(1, 8))
        a = float(rng.uniform(0.5, 2.0))
        b = float(rng.uniform(0.5, 2.0))
        threshold = (n + a) / (n + a + b)
        pb = float(rng.uniform(threshold, 0.999))
        min_diff = min(min_diff, risk_difference(pb, n, a, b, pb))
    ok = min_diff > 0.0
    report(
        8,
        f"necessary-condition contrapositive: min endpoint difference "
        f"{min_diff:.2e} > 0 over 20 configs",
        ok,
    )


def test_criterion_09_interval_sufficiency_soundness():
    rng = np.random.default_rng(9)
    found = 0
    all_dominate = True
    while found < 50:
        n = int(rng.integers(1, 6))
        a = float(rng.uniform(0.5, 3.0))
        b = float(rng.uniform(0.5, 3.0))
        pb = float(rng.uniform(0.01, (a + 1.0) / (n + a + b + 1.0)))
        pl = float(rng.uniform(1e-3, 0.9)) * pb
        if not 0.0 < pl < pb:
            continue
        c1, c2 = thm41_conditions(n, a, b, pl, pb)
        if not (c1 and c2):
            continue
        found += 1
        verdict = exhaustive_dominance_check(
            n, a, b, pb, p_lo=pl, grid_size=512
        ).grid_verdict
        all_dominate = all_dominate and verdict == "dominates"
    ok = all_dominate
    report(
        9,
        "interval sufficiency: 50 condition-satisfying configs all certified "
        "as dominating",
        ok,
    )


def test_criterion_10_symmetric_max_difference():
    worst_closed = 0.0
    for a, closed_form in ((1.0, max_risk_diff_uniform), (0.5, max_risk_diff_jeffreys)):
        for pb in (0.55, 0.65, 0.725, 0.775, 0.85):
            gap = abs(max_risk_diff_symmetric_n1(a, pb) - closed_form(pb))
            worst_closed = max(worst_closed, gap)

    worst_match = 0.0
    min_second_diff = math.inf
    for a, pb in [(1.0, 0.6), (1.0, 0.725), (0.5, 0.775), (2.0, 0.7)]:
        pl = 1.0 - pb
        count = 513
        grid = [pl + (pb - pl) * i / (count - 1) for i in range(count)]
        diffs = [risk_difference(p, 1, a, a, pb, p_lo=pl) for p in grid]
        worst_match = max(
            worst_match, abs(max(diffs) - max_risk_diff_symmetric_n1(a, pb))
        )
        min_second_diff = min(
            min_second_diff,
            min(
                diffs[i + 1] - 2.0 * diffs[i] + diffs[i - 1]
                for i in range(1, count - 1)
            ),
        )
    near_zero = abs(max_risk_diff_symmetric_n1(1.0, 0.725))
    ok = (
        worst_closed <= 1e-10
        and worst_match <= 1e-9
        and min_second_diff >= -1e-12
        and near_zero <= 1e-3
    )
    report(
        10,
        f"symmetric max difference: closed-form gap {worst_closed:.1e}, "
        f"grid-max gap {worst_match:.1e}, convexity margin {min_second_diff:.1e}, "
        f"|value at 0.725| {near_zero:.1e}",
        ok,
    )


def test_criterion_11_second_derivative_identity():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        phi = rng.uniform(0.0, 1.0, size=n + 1).tolist()
        p = float(rng.uniform(0.05, 0.95))
        lhs, rhs = verify_second_derivative_identity(phi, n, p, step=1e-4)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ok = worst <= 1e-4
    report(
        11,
        f"second-derivative identity: worst rel error {worst:.2e} <= 1e-4 "
        f"over 100 draws",
        ok,
    )


def test_criterion_12_log_jensen_inequality():
    rng = np.random.default_rng(12)
    holds = True
    for _ in range(1000):
        points = rng.uniform(0.01, 0.99, size=10)
        raw = rng.exponential(size=10)
        weights = raw / raw.sum()
        lhs, rhs = verify_log_jensen_bound(
            {float(t): float(w) for t, w in zip(points, weights)}
        )
        holds = holds and lhs <= rhs
    report(12, "log-Jensen inequality: holds for 1000 seeded distributions", holds)


def test_criterion_13_monte_carlo_consistency():
    rng = np.random.default_rng(13)
    all_within = True
    for i in range(20):
        n = int(rng.integers(1, 15))
        a = float(rng.uniform(0.5, 2.0))
        b = float(rng.uniform(0.5, 2.0))
        pb = float(rng.uniform(0.2, 0.9))
        p = float(rng.uniform(0.05, 0.95)) * pb
        table = EstimateTable.build(
            BinomialSetup(n=n), PriorSpec(a=a, b=b, p_bar=pb)
        )
        est, se = mc_risk(table, p, 10**6, seed=1000 + i)
        all_within = all_within and abs(est - point_risk(table, p)) <= 4.0 * se
    report(
        13,
        "Monte Carlo consistency: 20 seeded configs within 4 standard errors",
        all_within,
    )


def test_criterion_14_poisson_limit():
    start = time.time()
    config = PoissonConfig(r=1.0, s=1.0, a=1.0, lambda_bar=1.0)
    ok = True
    for x_tilde in (0, 1, 2):
        rep = limit_convergence_report(
            [10.0, 100.0, 1000.0, 10000.0], 0.5, config, x_tilde
        )
        ok = ok and rep.monotone_decay()
        ok = ok and rep.estimator_errors[-1] < 1e-3
        ok = ok and rep.predictive_errors[-1] < 1e-3
        ok = ok and rep.risk_errors[-1] < 1e-3
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    report(
        14,
        f"Poisson limit: monotone decay and final errors < 1e-3 for all "
        f"observed counts, {elapsed:.1f}s < 60s",
        ok,
    )
