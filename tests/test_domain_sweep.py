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
draws without p_bar; its oracle is (x+a)/(n+a+b) in mpmath.

The predictive slice draws untruncated masses: n log-uniform on [1, 3000],
l log-uniform on [1, 300], a and b from 10^[-1, 1], and checks the table
of each x above at y = 0, 1, l/2, l-1 and l. Its oracle is C(l, y) B(x+y+a,
n+l-x-y+b) / B(x+a, n-x+b) at 40 digits; its tolerance is 1e-11 relative.
A row of log C(l, y) above 64 entries is read one y at a time.
"""

import math
import random

import mpmath
import pytest

from binrisk.binom import BinomialSetup, PriorSpec
from binrisk.estimators import EstimateTable
from binrisk.predictive import PredictiveTable

UPPER_SEED = 41
UPPER_DRAWS = 40
UPPER_TOL = 1e-13
ORACLE_DPS = (80, 160, 400, 1000)
PREDICTIVE_SEED = 42
PREDICTIVE_DRAWS = 60
PREDICTIVE_TOL = 1e-11


def upper_draws(seed: int, count: int) -> list[tuple[int, float, float, float]]:
    """(n, a, b, p_bar) of the estimate slices."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        n = round(10 ** rng.uniform(0.0, 4.0))
        a, b = 10 ** rng.uniform(-1.5, 1.5), 10 ** rng.uniform(-1.5, 1.5)
        draws.append((n, a, b, 10 ** rng.uniform(-6.0, -0.002)))
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
