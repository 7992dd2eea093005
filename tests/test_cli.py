"""Command-line front-end: CSV contracts, determinism, exit statuses."""

import csv
import io
import math
import os
import subprocess
import sys
import time

import mpmath
import pytest

from binrisk import binom, estimators, incbeta
from binrisk.binom import BinomialSetup, PriorSpec
from binrisk.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, _write_csv, main
from binrisk.dominance import risk_difference, threshold_scan
from binrisk.estimators import EstimateTable
from binrisk.risk import point_risk

# a trial count above binom.MAX_TRIALS
CAPPED = "must be an integer in [1, 1000000]"


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


class TestCsvWriter:
    # a column of floats only, one of None only, one of ints and one of
    # floats with None: each way a column can be written
    HEADER = ["i", "x", "none", "n", "some"]
    FLOATS = [0.1, -0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, 1.0, -2.5e-17]

    def rows(self):
        return [(i, v, None, 10**i, v if i % 3 else None) for i, v in enumerate(self.FLOATS)]

    @staticmethod
    def oracle(header, rows):
        # csv.writer would write a float as its repr, so the oracle gets
        # the cells formatted as the CLI formats them: what is compared is
        # the joining, the quoting and the line ends
        handle = io.StringIO()
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [f"{v:.17g}" if isinstance(v, float) else "" if v is None else v for v in row]
            for row in rows
        )
        return handle.getvalue().encode()

    def test_file_matches_csv_writer(self, tmp_path):
        out = tmp_path / "w.csv"
        _write_csv(str(out), self.HEADER, self.rows())
        assert out.read_bytes() == self.oracle(self.HEADER, self.rows())

    def test_stdout_matches_csv_writer(self, capsys):
        _write_csv(None, self.HEADER, iter(self.rows()))
        assert capsys.readouterr().out.encode() == self.oracle(self.HEADER, self.rows())

    def test_header_only(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        _write_csv(str(out), ["p", "risk"], [])
        _write_csv(None, ["p", "risk"], iter(()))
        assert out.read_bytes() == capsys.readouterr().out.encode() == b"p,risk\n"
        assert out.read_bytes() == self.oracle(["p", "risk"], [])


class TestEstimate:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "est.csv"
        code = main(
            ["estimate", "--n", "3", "--a", "1", "--b", "1", "--p-bar", "0.4",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["x", "estimate"]
        assert len(rows) == 4
        values = [float(r[1]) for r in rows]
        assert all(0.0 < v < 0.4 for v in values)
        assert values == sorted(values)

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["estimate", "--n", "5", "--a", "0.5", "--b", "2", "--p-bar", "0.3"]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_p_alone_prints_the_exact_risk(self, capsys):
        # --p used to be read only together with --mc-samples
        assert main(["estimate", "--n", "3", "--p-bar", "0.2", "--p", "0.1"]) == EXIT_OK
        table = EstimateTable.build(BinomialSetup(n=3), PriorSpec(a=1.0, b=1.0, p_bar=0.2))
        risk = point_risk(table, 0.1)
        assert capsys.readouterr().out.splitlines()[0] == (
            f"# exact risk at p=0.10000000000000001: {risk:.17g}"
        )

    def test_interval_table_where_I_overflows(self, capsys):
        # I(200, 401, 1e-4, 0.9999) exceeds double range; its inverse
        # underflows, so the corrections vanish and the estimates are the
        # untruncated ones
        argv = ["estimate", "--n", "1", "--a", "200", "--b", "200",
                "--p-lo", "0.0001", "--p-bar", "0.9999"]
        assert main(argv) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "x,estimate"
        for row, expected in zip(rows[1:], (200.0 / 401.0, 201.0 / 401.0), strict=True):
            assert abs(float(row.split(",")[1]) - expected) <= math.ulp(expected)

    def test_upper_table_far_below_the_mode(self, capsys):
        # the correction form gave -1.2e-15 at x = n and the table exited 1
        assert main(["estimate", "--n", "1", "--p-bar", "1e-20"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert rows[:2] == ["x,estimate", "0,4.9999999999999997e-21"]

    def test_kernel_that_does_not_converge_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(incbeta, "_CF_MAX_ITER", 1)
        for cache in (estimators._build_table, estimators._build_large_table):
            cache.cache_clear()
        argv = ["estimate", "--n", "5", "--b", "2.5", "--p-bar", "0.3"]
        assert main(argv) == EXIT_NUMERICAL
        assert "continued fraction did not converge" in capsys.readouterr().err


class TestPredictive:
    def test_masses_sum_to_one(self, tmp_path):
        out = tmp_path / "pred.csv"
        code = main(
            ["predictive", "--n", "2", "--l", "3", "--x", "1",
             "--p-bar", "0.5", "--out", str(out)]
        )
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["y", "probability"]
        assert math.fsum(float(r[1]) for r in rows) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_tiny_a_above_its_mean_sums_to_one(self, tmp_path):
        # the predictive measures reach the kernel between the mean and
        # (alpha+1)/(alpha+beta+2), where it recursed until RecursionError
        out = tmp_path / "pred.csv"
        code = main(
            ["predictive", "--n", "1", "--l", "1", "--x", "0",
             "--a", "0.0024709450225419197", "--b", "1229.4701602802031",
             "--p-bar", "2.008126763519731e-06", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert math.fsum(float(r[1]) for r in read_csv(out)[1]) == pytest.approx(1.0, abs=1e-12)


class TestRiskCurve:
    def test_columns_and_improvement_regime(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(
            ["risk-curve", "--n", "1", "--a", "1", "--b", "1",
             "--p-bar", "0.1", "--grid", "64", "--out", str(out)]
        )
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["p", "risk_unrestricted", "risk_truncated", "thm32_bound"]
        assert len(rows) == 64
        for row in rows:
            assert float(row[2]) < float(row[1])

    def test_requires_upper_bound(self, capsys):
        assert main(["risk-curve", "--n", "1"]) == EXIT_VALIDATION
        assert "error" in capsys.readouterr().err


class TestDominance:
    def test_verdict_report(self, tmp_path, capsys):
        out = tmp_path / "dom.csv"
        code = main(
            ["dominance", "--n", "1", "--a", "1", "--b", "1",
             "--p-bar", "0.1", "--grid", "64", "--out", str(out)]
        )
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "verdict: dominates" in text
        assert "thm33_necessary: True" in text
        header, rows = read_csv(out)
        assert header == [
            "p", "risk_difference", "standardized_difference", "thm32_bound"
        ]
        assert len(rows) == 64

    def test_interval_mode_flags(self, capsys):
        code = main(
            ["dominance", "--n", "1", "--a", "1", "--b", "1",
             "--p-bar", "0.8", "--p-lo", "0.2", "--grid", "64"]
        )
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "verdict: dominated_somewhere" in text
        assert "thm41_c1: False" in text


class TestCurvePathsAgree:
    @pytest.mark.parametrize(
        "flags",
        [["--n", "5", "--p-bar", "0.3"],
         ["--n", "9", "--a", "0.5", "--b", "3", "--p-bar", "0.4"]],
    )
    def test_risk_curve_and_dominance_share_the_grid_and_the_bound(self, tmp_path, flags):
        # dominance sums the difference itself, which the difference of the
        # two risk columns matches to the rounding of the risks
        curve, dom = tmp_path / "curve.csv", tmp_path / "dom.csv"
        grid = ["--grid", "64"]
        assert main(["risk-curve", *flags, *grid, "--out", str(curve)]) == EXIT_OK
        assert main(["dominance", *flags, *grid, "--out", str(dom)]) == EXIT_OK
        _, curve_rows = read_csv(curve)
        _, dom_rows = read_csv(dom)
        assert [(r[0], r[3]) for r in curve_rows] == [(r[0], r[3]) for r in dom_rows]
        for (_, unres, trunc, _), (_, diff, _, _) in zip(curve_rows, dom_rows):
            t, u = float(trunc), float(unres)
            assert abs(float(diff) - (t - u)) <= 1e-14 * max(t, u)


class TestThreshold:
    def test_root_reported(self, capsys):
        code = main(["threshold", "--a", "1", "--grid", "8"])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        root = float(text.strip().splitlines()[-1].split()[-1])
        assert 0.7 < root < 0.75

    def test_rows_are_the_scan_and_the_root_ignores_its_size(self, capsys):
        roots = set()
        for grid in (8, 50):
            assert main(["threshold", "--a", "1", "--grid", str(grid)]) == EXIT_OK
            *rows, last = capsys.readouterr().out.splitlines()
            p_bars, values, _ = threshold_scan(1.0, grid)
            assert rows == [
                f"p_bar={p:.17g} max_risk_diff={v:.17g}" for p, v in zip(p_bars, values)
            ]
            roots.add(last)
        assert len(roots) == 1 and roots.pop().startswith("threshold: ")


class TestPoissonLimit:
    def test_error_table(self, tmp_path, capsys):
        out = tmp_path / "po.csv"
        code = main(
            ["poisson-limit", "--a", "1", "--r", "1", "--lam", "0.5",
             "--lambda-bar", "1", "--x-tilde", "0",
             "--k-grid", "10", "100", "--out", str(out)]
        )
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["K", "estimator_error", "predictive_error", "risk_error"]
        assert len(rows) == 2
        assert "monotone decay: True" in capsys.readouterr().err

    def test_large_rate_runs(self, capsys):
        # the Poisson risk stopped at cumulative mass 1 - 1e-15, which
        # rounding kept it from reaching here, and the run exited 2
        code = main(
            ["poisson-limit", "--lam", "50", "--lambda-bar", "60", "--k-grid", "1000", "10000"]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK, captured.err
        assert "# monotone decay: True" in captured.err

    def test_rate_whose_mean_exceeds_the_trial_cap_is_a_validation_error(self, capsys):
        assert main(["poisson-limit", "--lam", "2e6", "--k-grid", "1e7"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "error: the mean r*lam must be at most 1000000, got 2000000.0" in err

    def test_upper_tables_at_k_1e5_stay_inside_the_restriction(self, capsys):
        # at K = 1e5 the correction form put an estimate at 1.0000008852539821e-05,
        # above p_bar = 1e-5
        code = main(
            ["poisson-limit", "--lambda-bar", "1", "--k-grid", "10", "100", "1000",
             "10000", "100000"]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK, captured.err
        assert "# monotone decay: True" in captured.err


class TestParserReuse:
    @pytest.mark.parametrize(
        "first, second",
        [
            (["poisson-limit", "--k-grid", "10", "100", "--lambda-bar", "1"], ["poisson-limit"]),
            (["dominance", "--n", "4", "--p-lo", "0.1", "--p-bar", "0.5", "--grid", "8"],
             ["dominance", "--n", "4", "--p-bar", "0.5", "--grid", "8"]),
        ],
    )
    def test_consecutive_calls_write_what_fresh_runs_write(self, tmp_path, capsys, first, second):
        # main parses with one parser per process, so a call must leave
        # nothing in it for the next: the second call sees the defaults
        written = []
        for i, argv in enumerate((first, second)):
            out = tmp_path / f"main{i}.csv"
            assert main([*argv, "--out", str(out)]) == EXIT_OK
            written.append((capsys.readouterr().out, out.read_bytes()))
        for i, argv in enumerate((first, second)):
            out = tmp_path / f"fresh{i}.csv"
            result = subprocess.run(
                [sys.executable, "-m", "binrisk", *argv, "--out", str(out)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            )
            assert result.returncode == 0
            assert (result.stdout, out.read_bytes()) == written[i]


class TestExitStatuses:
    def test_validation_error(self, capsys):
        code = main(
            ["estimate", "--n", "3", "--p-bar", "0.2", "--p-lo", "0.5"]
        )
        assert code == EXIT_VALIDATION
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["risk-curve", "dominance", "threshold"])
    @pytest.mark.parametrize("grid", ["0", "1", "-3"])
    def test_grid_below_two_is_a_validation_error(self, command, grid, capsys):
        flags = ["--a", "1"] if command == "threshold" else ["--n", "3", "--p-bar", "0.3"]
        code = main([command, *flags, "--grid", grid])
        assert code == EXIT_VALIDATION
        assert "grid size" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["risk-curve", "dominance", "threshold"])
    def test_grid_above_the_cap_is_a_validation_error(self, command, capsys):
        # the grid is checked before it is built, so no test allocates one
        # of this size
        flags = ["--a", "1"] if command == "threshold" else ["--n", "3", "--p-bar", "0.3"]
        code = main([command, *flags, "--grid", str(binom.MAX_GRID + 1)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "error: grid size must be an integer in [2, 1000000], got 1000001" in err

    @pytest.mark.parametrize("a", ["nan", "inf"])
    def test_non_finite_shape_is_a_validation_error(self, a, capsys):
        assert main(["threshold", "--a", a]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"error: a must be finite and positive, got {a}" in err

    @pytest.mark.parametrize("flag", ["--r", "--s", "--a", "--lambda-bar", "--lam"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_poisson_flag_is_a_validation_error(self, flag, value, capsys):
        assert main(["poisson-limit", flag, value, "--k-grid", "10"]) == EXIT_VALIDATION
        name = flag[2:].replace("-", "_")
        err = capsys.readouterr().err
        assert f"error: {name} must be finite and positive, got {value}" in err

    @pytest.mark.parametrize("K", ["inf", "nan", "0"])
    def test_k_that_is_not_finite_and_positive_is_a_validation_error(self, K, capsys):
        # unchecked, round(inf) raises OverflowError, a numerical failure,
        # round(nan) a message without K, and K = 0 divides by zero
        assert main(["poisson-limit", "--k-grid", K]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"error: K must be finite and positive, got {float(K)}" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["estimate", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
            (["estimate", "--n", "3", "--bogus"], "unrecognized arguments: --bogus"),
            # the Monte Carlo flags were removed with the sampler
            (
                ["estimate", "--n", "3", "--p", "0.1", "--mc-samples", "10", "--seed", "1"],
                "unrecognized arguments: --mc-samples 10 --seed 1",
            ),
        ],
        ids=["bad-int", "unknown-flag", "removed-mc-flags"],
    )
    def test_usage_error_is_a_validation_error(self, argv, message, capsys):
        # argparse exits 2 on a usage error, which would read as a
        # numerical failure
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: binrisk")
        assert f"error: {message}\n" in captured.err

    @pytest.mark.parametrize(
        "argv", [["--help"], ["estimate", "--help"]], ids=["top", "estimate"]
    )
    def test_help_exits_ok(self, argv, capsys):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: binrisk")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["poisson-limit", "--k-grid", "1e20"],
                f"K=1e+20 gives r*K or s*K above {binom.MAX_TRIALS} trials",
            ),
            (
                ["poisson-limit", "--k-grid", "1e300", "--r", "10"],
                f"K=1e+300 gives r*K or s*K above {binom.MAX_TRIALS} trials",
            ),
            (
                ["poisson-limit", "--k-grid", "1e308", "--r", "10"],
                f"K=1e+308 gives r*K or s*K above {binom.MAX_TRIALS} trials",
            ),
            (["estimate", "--n", str(10**12)], f"n {CAPPED}, got {10**12}"),
            (
                ["predictive", "--n", "3", "--x", "1", "--l", str(10**12)],
                f"l {CAPPED}, got {10**12}",
            ),
        ],
        ids=["poisson-limit", "poisson-limit-1e300", "poisson-limit-inf", "estimate",
             "predictive"],
    )
    def test_trial_count_above_the_cap_is_a_validation_error(self, argv, message):
        # without the cap each run built a row of that length until memory
        # ran out; the child's address space is limited so that such a run
        # fails fast instead of taking the machine's memory. The Poisson
        # report checks r*K and s*K before rounding them: r*K = inf raised
        # OverflowError, a numerical failure, and a finite n past the cap
        # printed all its digits
        resource = pytest.importorskip("resource")
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = 600 * 2**20 if hard == resource.RLIM_INFINITY else min(600 * 2**20, hard)
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "binrisk", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (soft, hard)),
        )
        assert time.perf_counter() - start < 1.0
        assert (result.returncode, result.stdout) == (EXIT_VALIDATION, "")
        assert result.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("p", ["1.5", "0", "nan"])
    def test_p_outside_the_open_interval_is_a_validation_error(self, p, capsys):
        code = main(["estimate", "--n", "3", "--p-bar", "0.2", "--p", p])
        assert code == EXIT_VALIDATION
        assert f"error: p must be in (0, 1), got {p}" in capsys.readouterr().err

    def test_threshold_without_a_sign_change_is_a_numerical_failure(self, capsys):
        # the root of a = 1e7 lies below the scan's first point 0.5001
        assert main(["threshold", "--a", "10000000"]) == EXIT_NUMERICAL
        assert "numerical failure: no sign change" in capsys.readouterr().err

    def test_p_bar_within_1e_12_of_1_is_served(self, capsys):
        # it exited 2 as "within 1e-12 of 1; I diverges", though I is finite
        # for every p_bar < 1; each estimate is within 1e-13 of mpmath
        p_bar = 0.9999999999999
        assert main(["estimate", "--n", "3", "--p-bar", str(p_bar)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "x,estimate" and len(out) == 5
        with mpmath.workdps(60):
            for x, row in enumerate(out[1:]):
                alpha, beta = mpmath.mpf(x) + 1, mpmath.mpf(3 - x) + 1
                exact = mpmath.betainc(alpha + 1, beta, 0, p_bar) / mpmath.betainc(
                    alpha, beta, 0, p_bar
                )
                assert abs(float(row.split(",")[1]) / exact - 1) < 1e-13, x

    def test_n1_estimate_outside_the_interval_is_a_numerical_failure(self, capsys):
        # the scan read d(0) = 0.28 on [0.4999, 0.5001] at its first point and
        # printed a threshold of 0.996 with exit 0
        assert main(["threshold", "--a", "1e-11"]) == EXIT_NUMERICAL
        assert capsys.readouterr() == (
            "",
            "numerical failure: estimate 0.2814749767130136 outside the restriction"
            " [0.4999, 0.5001]\n",
        )

    @pytest.mark.parametrize(
        "argv, total",
        [
            (["--n", "30", "--x", "0", "--p-lo", "0.4", "--p-bar", "0.6"], "1.0000000005862981"),
            (["--n", "3000", "--x", "3000", "--p-bar", "1e-5"], "1.0000000000056375"),
        ],
        ids=["interval", "upper"],
    )
    def test_predictive_table_failing_its_check_is_a_numerical_failure(self, argv, total, capsys):
        # every flag is valid, so masses that miss 1 are the numerics
        # failing; they exited 1, the status of a usage error
        assert main(["predictive", "--l", "10", *argv]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            f"numerical failure: predictive density sums to {total}, not 1\n"
        )

    @pytest.mark.parametrize(
        "argv, estimate",
        [
            (["estimate", "--n", "3", "--p-bar", "5e-324"], "0.0 outside (0, 1)"),
            (["dominance", "--n", "3", "--p-bar", "5e-324", "--grid", "4"], "0.0 outside (0, 1)"),
            (
                ["estimate", "--n", "65", "--p-lo", "0.4", "--p-bar", "0.6"],
                "0.3521274011913633 outside the restriction [0.4, 0.6]",
            ),
            (
                ["estimate", "--n", "10", "--p-lo", "0.3", "--p-bar", "0.300000001"],
                "0.29999989368638025 outside the restriction [0.3, 0.300000001]",
            ),
        ],
        ids=["underflow", "dominance-underflow", "interval", "narrow-interval"],
    )
    def test_estimate_built_outside_the_support_is_a_numerical_failure(
        self, argv, estimate, capsys
    ):
        # every flag is valid, so an estimate the builder computes outside
        # the support is the numerics failing, not a usage error
        assert main(argv) == EXIT_NUMERICAL
        assert capsys.readouterr().err == f"numerical failure: estimate {estimate}\n"

    def test_j_overflow_leaves_the_bound_column_empty(self, tmp_path):
        # I(1.0, 10003.0, 0.3) is beyond double range, so J(p) is too: the
        # run exited 2 on it, though the risks need no J
        out = tmp_path / "curve.csv"
        argv = ["risk-curve", "--n", "10000", "--p-bar", "0.3", "--grid", "8"]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["p", "risk_unrestricted", "risk_truncated", "thm32_bound"]
        setup = BinomialSetup(n=10000)
        unres = EstimateTable.build(setup, PriorSpec(1.0, 1.0))
        trunc = EstimateTable.build(setup, PriorSpec(1.0, 1.0, p_bar=0.3))
        assert len(rows) == 8
        for p, u, t, bound in rows:
            assert float(u).hex() == point_risk(unres, float(p)).hex()
            assert float(t).hex() == point_risk(trunc, float(p)).hex()
            assert bound == ""

    @pytest.mark.parametrize("n, p_bar, grid", [("400", "0.9", "64"), ("40", "0.99999999", "32")])
    def test_j_overflow_leaves_the_dominance_curves_empty(self, n, p_bar, grid, tmp_path, capsys):
        # the verdict reads D alone; the J row of either has an I beyond
        # double range, and the run exited 2 on it
        out = tmp_path / "dom.csv"
        argv = ["dominance", "--n", n, "--p-bar", p_bar, "--grid", grid, "--out", str(out)]
        assert main(argv) == EXIT_OK
        text = capsys.readouterr().out
        assert "verdict: dominated_somewhere" in text
        header, rows = read_csv(out)
        assert header == ["p", "risk_difference", "standardized_difference", "thm32_bound"]
        assert len(rows) == int(grid)
        assert all(std == bound == "" and math.isfinite(float(d)) for _, d, std, bound in rows)
        expected = risk_difference(float(p_bar), int(n), 1.0, 1.0, float(p_bar))
        assert f"worst p: {float(p_bar):.17g} (risk difference {expected:.17g})" in text

    def test_bracket_overflow_is_a_named_numerical_failure(self, capsys):
        code = main(["estimate", "--n", "2000", "--p-lo", "0.05", "--p-bar", "0.5"])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: bracket term")
        assert "alpha=1.0, gamma=2002.0" in err and "[0.05, 0.5]" in err

    def test_module_entry_point(self, tmp_path):
        # the child sees this interpreter's path, where pytest put src/
        out = tmp_path / "est.csv"
        result = subprocess.run(
            [sys.executable, "-m", "binrisk", "estimate", "--n", "2",
             "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert result.returncode == 0
        assert out.exists()
