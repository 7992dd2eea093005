"""Seeded oracle sweeps over the documented domain, one slice per
restriction mode and entry point.

A slice draws configurations with a fixed seed and classifies each draw as
ok (every checked value within the slice's stated tolerance of the
oracle), a typed error (the build raises ArithmeticError or ValueError) or
silent (a value beyond the tolerance, with no error), and fails on any
silent draw. Estimates are checked at x = 0, 1, n/2, n-1 and n.

The estimate slices share their draws: n log-uniform on [1, 1e4], a and b
from 10^[-1.5, 1.5] and p_bar from 10^[-6, -0.002]; their tolerance is
1e-13 relative. The upper slice's oracle is mpmath.betainc at rising
precision, 80, 160, 400 and 1,000 digits, until two precisions agree to
1e-30; a point where no two agree is skipped and counted. It guards the
one backward pass that builds the upper row and its estimates with an
oracle that shares no code with it. The untruncated slice reads the same
draws without p_bar; its oracle is (x+a)/(n+a+b) in mpmath. The upper
slice near 1 draws n log-uniform on [1, 1000], a and b from 10^[-1, 1]
and 1 - p_bar from 10^[-16, -12], down to 1 - 2^-53, where p_bar was
once refused as within 1e-12 of 1, with the same oracle and tolerance.

The predictive slice draws untruncated masses: n log-uniform on [1, 3000],
l log-uniform on [1, 300], a and b from 10^[-1, 1], and checks the table
of each x above at y = 0, 1, l/2, l-1 and l. Its oracle is C(l, y) B(x+y+a,
n+l-x-y+b) / B(x+a, n-x+b) at 40 digits; its tolerance is 1e-11 relative.
A row of log C(l, y) above 64 entries is read one y at a time.

The risk slice (L3) checks point_risk and connection_sum: n log-uniform on
[64, 3000], every fifth draw on [1, 63] instead, a and b from {0.5, 1, 2,
3}, untruncated and upper priors in turn with p_bar from 10^[-2, -0.05],
p uniform on (0, p_bar] and l uniform on 1..12, past the 8 long windows
binom keeps. point_risk is read at p_bar (untruncated: at a p uniform on
[0.5, 1)), connection_sum at the uniform p. The oracle sums Bin(x; n, p)
L(d_x, p) over the exact window of (n, p) with the table's own estimates
d_x, the pmf by its ratio recurrence from an lgamma anchor, at mpmath
precisions of 20, 30, 45 and 60 digits until two agree to 1e-18. Its
tolerance is 1e-12 relative: point_risk's error grows with n, from the
loss p log(p/d) + q log(q/(1-d)), whose halves cancel near d = p, 9.0e-14
at n = 1e3 and 7.8e-13 at n = 1e4 (measured against mpmath before the
long windows were walked, 1.6e-14 and 5.5e-13 after). BINRISK_LONG_SWEEP=1
runs a profile of the slice with n up to 1e5, a tolerance of 3e-11 (1.3e-11
and 7.5e-12 at n = 1e5), which takes about 10 s:

    BINRISK_LONG_SWEEP=1 python -m pytest tests/test_domain_sweep.py -k risk
"""

import math
import os
import random

import mpmath
import pytest

from binrisk import binom, risk
from binrisk.binom import BinomialSetup, PriorSpec, pmf_windows
from binrisk.estimators import EstimateTable
from binrisk.predictive import PredictiveTable
from binrisk.risk import connection_sum, point_risk

UPPER_SEED = 41
UPPER_DRAWS = 40
UPPER_TOL = 1e-13
ORACLE_DPS = (80, 160, 400, 1000)
NEAR_ONE_SEED = 55
NEAR_ONE_DRAWS = 20
PREDICTIVE_SEED = 42
PREDICTIVE_DRAWS = 60
PREDICTIVE_TOL = 1e-11
RISK_SEED = 54
RISK_DRAWS = 10
RISK_DPS = (20, 30, 45, 60)
# the opt-in profile: (largest n, tolerance)
RISK_PROFILE = (10**5, 3e-11) if os.environ.get("BINRISK_LONG_SWEEP") == "1" else (3000, 1e-12)


def upper_draws(seed: int, count: int) -> list[tuple[int, float, float, float]]:
    """(n, a, b, p_bar) of the estimate slices."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        n = round(10 ** rng.uniform(0.0, 4.0))
        a, b = 10 ** rng.uniform(-1.5, 1.5), 10 ** rng.uniform(-1.5, 1.5)
        draws.append((n, a, b, 10 ** rng.uniform(-6.0, -0.002)))
    return draws


def near_one_draws(seed: int, count: int) -> list[tuple[int, float, float, float]]:
    """(n, a, b, p_bar) of the upper slice near 1."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        n = round(10 ** rng.uniform(0.0, 3.0))
        a, b = 10 ** rng.uniform(-1.0, 1.0), 10 ** rng.uniform(-1.0, 1.0)
        draws.append((n, a, b, min(1.0 - 10 ** rng.uniform(-16.0, -12.0), 1.0 - 2.0**-53)))
    return draws


def upper_oracle(x: int, n: int, a: float, b: float, p_bar: float):
    """The upper-truncated posterior mean at x, M(alpha+1, beta) /
    M(alpha, beta) over [0, p_bar], once two precisions agree, else None.
    A precision at which mpmath's series does not converge gives no value."""
    previous = None
    for dps in ORACLE_DPS:
        with mpmath.workdps(dps):
            alpha, beta = mpmath.mpf(x) + a, mpmath.mpf(n - x) + b
            try:
                mean = mpmath.betainc(alpha + 1, beta, 0, p_bar) / mpmath.betainc(
                    alpha, beta, 0, p_bar
                )
            except ValueError:
                previous = None
                continue
            if previous is not None and abs(mean / previous - 1) < mpmath.mpf(10) ** -30:
                return mean
            previous = mean
    return None


def untruncated_oracle(x: int, n: int, a: float, b: float, p_bar: float):
    """The untruncated posterior mean at x, (x+a)/(n+a+b); p_bar is not read."""
    with mpmath.workdps(40):
        return (mpmath.mpf(x) + a) / (mpmath.mpf(n) + a + b)


def upper_values(n: int, a: float, b: float, p_bar: float) -> tuple[float, ...]:
    return EstimateTable.build(BinomialSetup(n=n), PriorSpec(a, b, p_bar=p_bar)).values


def untruncated_values(n: int, a: float, b: float, p_bar: float) -> tuple[float, ...]:
    return EstimateTable.build(BinomialSetup(n=n), PriorSpec(a, b)).values


# the estimate slices: mode -> (build, oracle)
MODES = {"upper": (upper_values, upper_oracle), "none": (untruncated_values, untruncated_oracle)}


def ends(n: int) -> list[int]:
    """The checked points of a row over 0..n: 0, 1, n/2, n-1 and n."""
    return sorted({0, 1, n // 2, n - 1, n} & set(range(n + 1)))


def classify(draw, build, oracle) -> tuple[str, int]:
    """The class of one draw, "ok", "typed" or "silent", and the number of
    its points the oracle skipped."""
    n, a, b, p_bar = draw
    try:
        values = build(n, a, b, p_bar)
    except (ArithmeticError, ValueError):
        return "typed", 0
    skipped, silent = 0, False
    for x in ends(n):
        exact = oracle(x, n, a, b, p_bar)
        if exact is None:
            skipped += 1
        elif abs(values[x] / exact - 1) > UPPER_TOL:
            silent = True
    return ("silent" if silent else "ok"), skipped


@pytest.mark.parametrize("mode", MODES)
def test_estimate_slice_has_no_silent_draw(mode):
    draws = upper_draws(UPPER_SEED, UPPER_DRAWS)
    classes = {draw: classify(draw, *MODES[mode]) for draw in draws}
    silent = [draw for draw, (kind, _) in classes.items() if kind == "silent"]
    assert silent == []
    # every estimate table in the domain builds, and the oracle settles
    # almost everywhere, so the sweep is not passed by skipping
    assert sum(kind == "ok" for kind, _ in classes.values()) == UPPER_DRAWS
    assert sum(skipped for _, skipped in classes.values()) <= UPPER_DRAWS // 10


def test_upper_slice_near_one_has_no_silent_draw():
    draws = near_one_draws(NEAR_ONE_SEED, NEAR_ONE_DRAWS)
    classes = [classify(draw, upper_values, upper_oracle) for draw in draws]
    assert [kind for kind, _ in classes] == ["ok"] * NEAR_ONE_DRAWS
    assert sum(skipped for _, skipped in classes) <= NEAR_ONE_DRAWS // 10


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("where", ["0", "mid", "n"])
def test_a_1e_9_perturbation_of_one_entry_is_caught(where, mode):
    build, oracle = MODES[mode]
    draw = upper_draws(UPPER_SEED, 1)[0]
    assert classify(draw, build, oracle) == ("ok", 0)
    n = draw[0]
    target = {"0": 0, "mid": n // 2, "n": n}[where]

    def perturbed(*args):
        values = list(build(*args))
        values[target] *= 1.0 + 1e-9
        return tuple(values)

    assert classify(draw, perturbed, oracle)[0] == "silent"


def predictive_draws(seed: int, count: int) -> list[tuple[int, int, float, float]]:
    """(n, l, a, b) of the predictive slice."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        n = round(10 ** rng.uniform(0.0, math.log10(3000)))
        l = round(10 ** rng.uniform(0.0, math.log10(300)))
        draws.append((n, l, 10 ** rng.uniform(-1.0, 1.0), 10 ** rng.uniform(-1.0, 1.0)))
    return draws


def predictive_oracle(y: int, x: int, n: int, l: int, a: float, b: float):
    """C(l, y) B(x+y+a, n+l-x-y+b) / B(x+a, n-x+b), the untruncated
    predictive mass at y given X = x, at 40 digits."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        k = x + y
        return (
            mpmath.binomial(l, y)
            * mpmath.beta(k + a, n + l - k + b)
            / mpmath.beta(x + a, n - x + b)
        )


def predictive_masses(n: int, l: int, a: float, b: float, x: int) -> tuple[float, ...]:
    return PredictiveTable.build(BinomialSetup(n=n, l=l), PriorSpec(a, b), x).density


def classify_predictive(draw, build=predictive_masses) -> str:
    """The class of one predictive draw, "ok", "typed" or "silent"."""
    n, l, a, b = draw
    silent = False
    for x in ends(n):
        try:
            masses = build(n, l, a, b, x)
        except (ArithmeticError, ValueError):
            return "typed"
        for y in ends(l):
            if abs(masses[y] / predictive_oracle(y, x, n, l, a, b) - 1) > PREDICTIVE_TOL:
                silent = True
    return "silent" if silent else "ok"


def test_predictive_slice_has_no_silent_draw():
    draws = predictive_draws(PREDICTIVE_SEED, PREDICTIVE_DRAWS)
    classes = [classify_predictive(draw) for draw in draws]
    assert [draw for draw, kind in zip(draws, classes) if kind == "silent"] == []
    # every untruncated table in the domain builds; the draws reach rows
    # long enough to be read one y at a time
    assert classes == ["ok"] * PREDICTIVE_DRAWS
    assert max(l for _, l, _, _ in draws) > 64


@pytest.mark.parametrize("where", ["0", "mid", "l"])
def test_a_1e_9_perturbation_of_one_mass_is_caught(where):
    draw = next(d for d in predictive_draws(PREDICTIVE_SEED, PREDICTIVE_DRAWS) if d[1] > 64)
    assert classify_predictive(draw) == "ok"
    l = draw[1]
    target = {"0": 0, "mid": l // 2, "l": l}[where]

    def perturbed(*args):
        masses = list(predictive_masses(*args))
        masses[target] *= 1.0 + 1e-9
        return tuple(masses)

    assert classify_predictive(draw, perturbed) == "silent"


def risk_draws(seed: int, count: int, n_max: int) -> list[tuple]:
    """(n, a, b, p_bar, p, p_point, l) of the risk slice."""
    rng = random.Random(seed)
    draws = []
    for i in range(count):
        if i % 5 == 4:
            n = rng.randint(1, 63)
        else:
            n = round(10 ** rng.uniform(math.log10(64), math.log10(n_max)))
        a, b = rng.choice([0.5, 1.0, 2.0, 3.0]), rng.choice([0.5, 1.0, 2.0, 3.0])
        p_bar = None if i % 2 else 10 ** rng.uniform(-2.0, -0.05)
        p = (1.0 if p_bar is None else p_bar) * rng.uniform(0.0, 1.0)
        p_point = p_bar if p_bar is not None else rng.uniform(0.5, 1.0)
        draws.append((n, a, b, p_bar, p, p_point, rng.randint(1, 12)))
    return draws


def window_risk(n: int, p: float, values, dps: int):
    """sum_x Bin(x; n, p) L(d_x, p) over the exact window of (n, p) at dps digits."""
    start, terms = pmf_windows(n, p).exact()
    with mpmath.workdps(dps):
        mp = mpmath.mpf(p)
        q = 1 - mp
        log_p, log_q, ratio = mpmath.log(mp), mpmath.log(q), mp / q
        w = mpmath.exp(
            mpmath.loggamma(n + 1)
            - mpmath.loggamma(start + 1)
            - mpmath.loggamma(n - start + 1)
            + start * log_p
            + (n - start) * log_q
        )
        total = mpmath.mpf(0)
        for x in range(start, start + len(terms)):
            d = mpmath.mpf(values[x])
            total += w * (mp * (log_p - mpmath.log(d)) + q * (log_q - mpmath.log(1 - d)))
            w = w * (n - x) / (x + 1) * ratio
        return +total


def risk_oracle(sums: list[tuple]):
    """The sum of window_risk over sums, (n, p, estimates) each, once two
    precisions agree to 1e-18, else None."""
    previous = None
    for dps in RISK_DPS:
        value = sum(window_risk(n, p, values, dps) for n, p, values in sums)
        if previous is not None and abs(value / previous - 1) < mpmath.mpf(10) ** -18:
            return value
        previous = value
    return None


def classify_risks(draw, tol: float) -> tuple[str, int]:
    """The class of one risk draw, "ok" or "silent", and the number of its
    two sums the oracle skipped."""
    n, a, b, p_bar, p, p_point, l = draw
    prior = PriorSpec(a, b, p_bar=p_bar)
    tables = [EstimateTable.build(BinomialSetup(n=m), prior) for m in range(n, n + l)]
    checks = [
        (point_risk(tables[0], p_point), [(n, p_point, tables[0].values)]),
        (connection_sum(p, n, l, prior), [(n + k, p, t.values) for k, t in enumerate(tables)]),
    ]
    skipped, silent = 0, False
    for value, sums in checks:
        exact = risk_oracle(sums)
        if exact is None:
            skipped += 1
        elif abs(value / exact - 1) > tol:
            silent = True
    return ("silent" if silent else "ok"), skipped


def test_risk_slice_has_no_silent_draw():
    n_max, tol = RISK_PROFILE
    draws = risk_draws(RISK_SEED, RISK_DRAWS, n_max)
    classes = [classify_risks(draw, tol) for draw in draws]
    assert [draw for draw, (kind, _) in zip(draws, classes) if kind == "silent"] == []
    assert classes == [("ok", 0)] * RISK_DRAWS
    # the draws reach both sides of 64 trials and more than 8 steps
    assert min(d[0] for d in draws) < 64 <= max(d[0] for d in draws)
    assert max(d[6] for d in draws) > 8


def test_a_1e_9_perturbation_of_one_pmf_term_is_caught(monkeypatch):
    # one term of every window the risk sums read, core and exact window
    # alike, is 1e-9 off: the term a standard deviation above the mode, as
    # the loss at the mode, where d is near p, is near 0
    n_max, tol = RISK_PROFILE
    draw = next(d for d in risk_draws(RISK_SEED, RISK_DRAWS, n_max) if 64 <= d[0] < 1000)
    assert classify_risks(draw, tol) == ("ok", 0)

    def perturbed(n, p):
        windows = pmf_windows(n, p)
        (core_start, core), (start, terms) = windows.core, windows.exact()
        mode = core_start + max(range(len(core)), key=core.__getitem__)
        x = min(mode + max(1, round(math.sqrt(n * p * (1.0 - p)))), core_start + len(core) - 1)
        bumped = binom.PmfWindows()
        bumped.tail, bumped._rest, bumped._logs = windows.tail, None, None
        for window in ("core", "_exact"):
            first, values = getattr(windows, window) if window == "core" else (start, terms)
            values = list(values)
            values[x - first] *= 1.0 + 1e-9
            setattr(bumped, window, (first, tuple(values)))
        return bumped

    monkeypatch.setattr(risk, "pmf_windows", perturbed)
    assert classify_risks(draw, tol)[0] == "silent"
