"""One pass of a workload in a fresh interpreter.

Run by ``run.py``; not meant to be started by hand. The child imports
binrisk from the ``src`` directory next to the benchmark, times that
import, runs every job of the pass with its own timer, checks each output
after its timer stops, and prints one JSON object on stdout. With
``--import-only`` it stops after the import.

Each time comes with the machine's speed factor measured around it by
``calibrate``, before and after the import and, during a pass, between
jobs at least every ``CAL_EVERY_S``. On a shared machine the same code can
run up to 1.8 times slower for minutes at a time; ``run.py`` divides each
time by its factor.

A job that raises ``ValueError`` or ``ArithmeticError`` (or, through the
CLI, exits 1 or 2) is a typed failure: counted, never retried. A job whose
output breaks an invariant is wrong, and a wrong job fails the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / ".out"

# bound validity is checked at the acceptance gate's own tolerance
BOUND_SLACK = 1e-10
CONNECTION_TOL = 1e-9
PREDICTIVE_SUM_TOL = 1e-12
KERNEL_ORACLE_TOL = 1e-11

# best time of the calibration loop on an unloaded 2-core Xeon: the speed
# factor is calibrate() / CAL_REF_S, so it reads about 1 on such a machine
CAL_REF_S = 1.15e-3
CAL_EVERY_S = 0.25


def _cal_term(x: float, k: int) -> float:
    return math.exp(k * math.log(x) - math.lgamma(k + 1.0)) + math.log1p(-x) * 0.5


def calibrate() -> float:
    """Machine speed factor: best of three timings of a fixed loop of float
    math, calls and small containers, over its unloaded time. It uses the
    standard library only, so it does not change with binrisk."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        seen = {}
        for i in range(1, 2401):
            x = i / 2401.0
            seen[i & 31] = (_cal_term(x, i % 17), x)
        best = min(best, time.perf_counter() - start)
    return best / CAL_REF_S


def _import_binrisk() -> tuple[float, float]:
    """Time of ``import binrisk.cli`` and the speed factor around it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    speed = calibrate()
    start = time.perf_counter()
    import binrisk.cli  # noqa: F401  (the set-up being timed)

    elapsed = time.perf_counter() - start
    speed = (speed + calibrate()) / 2
    import binrisk

    if not Path(binrisk.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"binrisk imported from {binrisk.__file__}, not {src}")
    return elapsed, speed


def _g17(value: float) -> str:
    return format(value, ".17g")


class Pass:
    """Runs the jobs of one pass and collects times, statuses and digests."""

    def __init__(self, tracer) -> None:
        from binrisk import binom, cli, estimators, poisson, predictive, risk

        self.binom = binom
        self.cli = cli
        self.estimators = estimators
        self.poisson = poisson
        self.predictive = predictive
        self.risk = risk
        self.tracer = tracer
        self.csv_digest = hashlib.sha256()
        self.values_digest = hashlib.sha256()
        self.times: list[float] = []
        self.speeds: list[float] = []
        self.statuses: list[str] = []
        self.problems: list[str] = []
        self.failures: dict[str, int] = {}
        self.csv_path = OUT_DIR / "job.csv"

    # -- helpers --------------------------------------------------------

    def _values(self, *values: float) -> None:
        self.values_digest.update((",".join(_g17(v) for v in values) + "\n").encode())

    def _wrong(self, job: str, message: str) -> None:
        self.problems.append(f"{job}: {message}")

    @contextlib.contextmanager
    def _untraced(self):
        if self.tracer is None:
            yield
            return
        self.tracer.active = False
        try:
            yield
        finally:
            self.tracer.active = True

    def _check_support(self, job: str, values, prior) -> None:
        lo, hi = prior.support
        for v in values:
            if not (0.0 < v < 1.0 and lo <= v <= hi):
                self._wrong(job, f"estimate {v!r} outside the support [{lo}, {hi}]")
                return

    def _check_risks(self, job: str, risks) -> None:
        for r in risks:
            if not (math.isfinite(r) and r >= 0.0):
                self._wrong(job, f"risk {r!r} is not finite and >= 0")
                return

    # -- jobs -------------------------------------------------------------

    def run(self, jobs) -> None:
        speed = calibrate()
        speed_at = time.perf_counter()
        for index, (kind, params) in enumerate(jobs):
            speed_before = speed
            label = f"{index}:{kind}:{json.dumps(params, sort_keys=True)}"
            if self.tracer is not None:
                self.tracer.begin_job(kind)
            start = time.perf_counter()
            try:
                result = getattr(self, "_job_" + kind.replace("-", "_"))(params)
                status = "ok"
            except (ValueError, ArithmeticError) as exc:
                result = None
                status = type(exc).__name__
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.end_job()
            if time.perf_counter() - speed_at >= CAL_EVERY_S or index == len(jobs) - 1:
                speed = calibrate()
                speed_at = time.perf_counter()
            if result is not None and not isinstance(result, dict):
                status = f"exit{result}"
                result = None
            self.times.append(elapsed)
            self.speeds.append((speed_before + speed) / 2)
            self.statuses.append(status)
            self.values_digest.update(f"{label}={status}\n".encode())
            if status != "ok":
                key = _failure_class(kind, params)
                self.failures[key] = self.failures.get(key, 0) + 1
                continue
            with self._untraced():
                getattr(self, "_check_" + kind.replace("-", "_"))(label, params, result)

    def _cli(self, argv: list[str]):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(argv)
        if code != 0:
            return code
        return {"stdout": stdout.getvalue()}

    def _cli_config(self, kind: str, params) -> list[str]:
        return [
            kind,
            "--n", str(params["n"]),
            "--a", str(params["a"]),
            "--b", str(params["b"]),
            "--p-bar", str(params["p_bar"]),
            "--grid", str(workloads.CLI_GRID),
            "--out", str(self.csv_path),
        ]

    def _job_dominance(self, params):
        return self._cli(self._cli_config("dominance", params))

    def _job_risk_curve(self, params):
        return self._cli(self._cli_config("risk-curve", params))

    def _job_threshold(self, params):
        return self._cli(["threshold", "--a", str(params["a"])])

    def _read_csv(self, result) -> list[list[str]]:
        data = self.csv_path.read_bytes()
        self.csv_digest.update(data)
        self.values_digest.update(result["stdout"].encode())
        rows = [line.split(",") for line in data.decode().splitlines()]
        return rows[1:]

    def _check_upper_estimates(self, label: str, params) -> None:
        binom = self.binom
        prior = binom.PriorSpec(a=params["a"], b=params["b"], p_bar=params["p_bar"])
        n = params["n"]
        values = [self.estimators.posterior_mean(x, prior, n) for x in range(n + 1)]
        self._check_support(label, values, prior)

    def _check_dominance(self, label: str, params, result) -> None:
        rows = self._read_csv(result)
        if len(rows) != workloads.CLI_GRID:
            self._wrong(label, f"{len(rows)} grid rows, expected {workloads.CLI_GRID}")
        for p, diff, std, bound in rows:
            if not math.isfinite(float(diff)) or not math.isfinite(float(std)):
                self._wrong(label, f"non-finite difference at p={p}")
            elif bound and float(std) > float(bound) + BOUND_SLACK:
                self._wrong(label, f"standardized difference {std} above bound {bound} at p={p}")
        self._check_upper_estimates(label, params)

    def _check_risk_curve(self, label: str, params, result) -> None:
        rows = self._read_csv(result)
        if len(rows) != workloads.CLI_GRID:
            self._wrong(label, f"{len(rows)} grid rows, expected {workloads.CLI_GRID}")
        self._check_risks(label, [float(r) for row in rows for r in row[1:3]])
        self._check_upper_estimates(label, params)

    def _check_threshold(self, label: str, params, result) -> None:
        self.values_digest.update(result["stdout"].encode())
        last = result["stdout"].splitlines()[-1]
        root = float(last.removeprefix("threshold: "))
        if not 0.5 < root < 1.0:
            self._wrong(label, f"threshold {root!r} outside (1/2, 1)")

    def _job_risk(self, params):
        binom, risk = self.binom, self.risk
        setup = binom.BinomialSetup(n=params["n"])
        trunc_prior = binom.PriorSpec(
            a=params["a"], b=params["b"], p_bar=params["p_bar"], p_lo=params["p_lo"]
        )
        unres = self.estimators.EstimateTable.build(
            setup, binom.PriorSpec(a=params["a"], b=params["b"])
        )
        trunc = self.estimators.EstimateTable.build(setup, trunc_prior)
        grid = workloads.p_grid(params["p_lo"], params["p_bar"], workloads.LARGE_N_GRID)
        risks = [risk.point_risk(table, p) for p in grid for table in (unres, trunc)]
        return {"tables": (unres, trunc), "risks": risks}

    def _check_risk(self, label: str, params, result) -> None:
        for table in result["tables"]:
            self._values(*table.values)
            self._check_support(label, table.values, table.prior)
        self._values(*result["risks"])
        self._check_risks(label, result["risks"])

    def _job_poisson(self, params):
        poisson = self.poisson
        config = poisson.PoissonConfig(r=1.0, a=params["a"], lambda_bar=params["lambda_bar"])
        report = poisson.limit_convergence_report(
            workloads.POISSON_K_GRID, params["lam"], config, params["x_tilde"]
        )
        return {"report": report}

    def _check_poisson(self, label: str, params, result) -> None:
        report = result["report"]
        errors = report.estimator_errors + report.predictive_errors + report.risk_errors
        self._values(*errors)
        for e in errors:
            if not (math.isfinite(e) and e >= 0.0):
                self._wrong(label, f"convergence error {e!r} is not finite and >= 0")

    def _job_predictive(self, params):
        binom, risk = self.binom, self.risk
        n, l = params["n"], params["l"]
        setup = binom.BinomialSetup(n=n, l=l)
        prior = binom.PriorSpec(
            a=params["a"], b=params["b"], p_bar=params["p_bar"], p_lo=params["p_lo"]
        )
        tables = [t.density for t in risk.bayes_predictive_tables(setup, prior)]
        est = self.estimators.EstimateTable.build(binom.BinomialSetup(n=n), prior)
        plug = [
            [self.predictive.plug_in_density(y, l, est[x]) for y in range(l + 1)]
            for x in range(n + 1)
        ]
        rows = []
        for p in workloads.predictive_p_points(params["p_lo"], params["p_bar"]):
            rows.append(
                (
                    risk.predictive_kl_risk(tables, p, setup),
                    risk.connection_sum(p, n, l, prior),
                    risk.predictive_kl_risk(plug, p, setup),
                )
            )
        return {"tables": tables, "estimates": est, "rows": rows, "prior": prior}

    def _check_predictive(self, label: str, params, result) -> None:
        for density in result["tables"]:
            self._values(*density)
            total = math.fsum(density)
            if abs(total - 1.0) > PREDICTIVE_SUM_TOL:
                self._wrong(label, f"predictive table sums to {total!r}")
        est = result["estimates"]
        self._values(*est.values)
        self._check_support(label, est.values, result["prior"])
        for kl, conn, plug in result["rows"]:
            self._values(kl, conn, plug)
            self._check_risks(label, (kl, conn, plug))
            if abs(kl - conn) > CONNECTION_TOL:
                self._wrong(label, f"|KL risk - connection sum| = {abs(kl - conn):.3e}")


def _failure_class(kind: str, params) -> str:
    if kind == "risk" and params["p_lo"] is not None:
        return f"risk interval [{params['p_lo']}, {params['p_bar']}]"
    if kind == "risk":
        return "risk upper"
    return kind


def kernel_oracle_check(seed: int) -> list[str]:
    """Compare a few kernel values with mpmath at 40 digits, on both
    branches; the tolerance is on the log, so it is relative on the value."""
    import mpmath

    from binrisk.incbeta import log_inc_beta_lower

    mpmath.mp.dps = 40
    rng = random.Random(f"kernel-oracle:{seed}")
    problems = []
    for k in range(8):
        alpha = rng.choice(workloads.PRIOR_EXPONENTS) + rng.randint(0, 40)
        beta = rng.choice(workloads.PRIOR_EXPONENTS) + rng.randint(0, 40)
        mode = alpha / (alpha + beta)
        # even k below the mode (continued fraction), odd k above it
        # (upper complement)
        x = mode * rng.uniform(0.2, 0.95) if k % 2 == 0 else mode + (1 - mode) * rng.uniform(0.05, 0.8)
        got = log_inc_beta_lower(alpha, beta, x)
        want = float(mpmath.log(mpmath.betainc(alpha, beta, 0, x)))
        if not abs(got - want) <= KERNEL_ORACLE_TOL:
            problems.append(
                f"log_inc_beta_lower({alpha}, {beta}, {x!r}) = {got!r}, mpmath {want!r}"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--oracle", type=int, choices=(0, 1), default=0)
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args(argv)

    setup_s, setup_speed = _import_binrisk()
    if args.import_only:
        print(json.dumps({"setup_s": setup_s, "setup_speed": setup_speed}))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    jobs = workloads.build_jobs(args.workload, args.seed)
    tracer = None
    if args.trace:
        from layertrace import LayerTrace

        tracer = LayerTrace()
        tracer.install()
    run = Pass(tracer)
    run.run(jobs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "peak_rss_mb": peak_rss_mb,
        "times": run.times,
        "speeds": run.speeds,
        "statuses": run.statuses,
        "failures": run.failures,
        "problems": run.problems,
        "csv_sha256": run.csv_digest.hexdigest(),
        "values_sha256": run.values_digest.hexdigest(),
    }
    if tracer is not None:
        tracer.active = False
        out["layers"] = tracer.metrics()
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
    if args.oracle:
        out["problems"] += kernel_oracle_check(args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
