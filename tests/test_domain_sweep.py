"""Seeded oracle sweeps over the documented domain, one slice per
restriction mode.

A slice draws configurations with a fixed seed and classifies each draw as
ok (every checked estimate within the slice's stated tolerance of the
oracle), a typed error (the build raises ArithmeticError or ValueError) or
silent (an estimate beyond the tolerance, with no error), and fails on any
silent draw. Estimates are checked at x = 0, 1, n/2, n-1 and n. The oracle
is mpmath.betainc at rising precision, 80, 160, 400 and 1,000 digits,
until two precisions agree to 1e-30; a point where no two agree is skipped
and counted.

The upper slice draws n log-uniform on [1, 1e4], a and b from
10^[-1.5, 1.5] and p_bar from 10^[-6, -0.002]; its tolerance is 1e-13
relative. It guards the one backward pass that builds the upper row and
its estimates with an oracle that shares no code with it.
"""

import random

import mpmath
import pytest

from binrisk.binom import BinomialSetup, PriorSpec
from binrisk.estimators import EstimateTable

UPPER_SEED = 41
UPPER_DRAWS = 40
UPPER_TOL = 1e-13
ORACLE_DPS = (80, 160, 400, 1000)


def upper_draws(seed: int, count: int) -> list[tuple[int, float, float, float]]:
    """(n, a, b, p_bar) of the upper slice."""
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


def upper_values(n: int, a: float, b: float, p_bar: float) -> tuple[float, ...]:
    return EstimateTable.build(BinomialSetup(n=n), PriorSpec(a, b, p_bar=p_bar)).values


def classify(draw, build=upper_values) -> tuple[str, int]:
    """The class of one draw, "ok", "typed" or "silent", and the number of
    its points the oracle skipped."""
    n, a, b, p_bar = draw
    try:
        values = build(n, a, b, p_bar)
    except (ArithmeticError, ValueError):
        return "typed", 0
    skipped, silent = 0, False
    for x in sorted({0, 1, n // 2, n - 1, n} & set(range(n + 1))):
        exact = upper_oracle(x, n, a, b, p_bar)
        if exact is None:
            skipped += 1
        elif abs(values[x] / exact - 1) > UPPER_TOL:
            silent = True
    return ("silent" if silent else "ok"), skipped


def test_upper_slice_has_no_silent_draw():
    draws = upper_draws(UPPER_SEED, UPPER_DRAWS)
    classes = {draw: classify(draw) for draw in draws}
    silent = [draw for draw, (kind, _) in classes.items() if kind == "silent"]
    assert silent == []
    # every upper table in the domain builds, and the oracle settles almost
    # everywhere, so the sweep is not passed by skipping
    assert sum(kind == "ok" for kind, _ in classes.values()) == UPPER_DRAWS
    assert sum(skipped for _, skipped in classes.values()) <= UPPER_DRAWS // 10


@pytest.mark.parametrize("where", ["0", "mid", "n"])
def test_a_1e_9_perturbation_of_one_entry_is_caught(where):
    draw = upper_draws(UPPER_SEED, 1)[0]
    assert classify(draw) == ("ok", 0)
    n = draw[0]
    target = {"0": 0, "mid": n // 2, "n": n}[where]

    def perturbed(*args):
        values = list(upper_values(*args))
        values[target] *= 1.0 + 1e-9
        return tuple(values)

    assert classify(draw, perturbed)[0] == "silent"
