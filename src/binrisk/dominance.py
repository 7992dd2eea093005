"""Dominance conditions, risk-difference bounds, and grid certification.

"Dominates" is certified on a finite grid (default 512 points including
the restriction's upper endpoint): the risks themselves are exact, so
each grid value is trustworthy, but the verdict is a statement at grid
resolution, not a symbolic proof.

The grid pass has two engines that yield, per p, each table's risk and
then each value row's expectation, the same floats: _row_pass, the grid
in blocks of _BLOCK points summed by rows of x, while n + 1 <= _WHOLE_ROW,
where its coefficient row and its tables' log rows are whole lists, and
_window_pass, one pmf window per p, above that and for the scalar
functions, which read one point of it. The value rows of the upper case,
the J rows, are c(0..n) of the row the upper EstimateTable keeps.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

from .binom import (
    _WHOLE_ROW,
    MAX_GRID,
    BinomialSetup,
    PriorSpec,
    _check_count,
    _check_shape,
    _check_trials,
    _log_binom_coeffs,
    _record,
    pmf_windows,
)
from .estimators import EstimateTable, _correction
from .incbeta import SingularBoundError, _check_p_bar, _log_I
from .risk import _check_p, _risk_sums

GRID_SLACK = 1e-12
NOISE_CEILING = 1e-9
THRESHOLD_TOL = 1e-6

# Grid points per block of the row pass
_BLOCK = 64


class BoundUndefinedError(ArithmeticError):
    """The log argument of the risk-difference bound is nonpositive."""


def p_grid(p_bar: float, p_lo: float | None, size: int) -> list[float]:
    """Uniform grid of size points on the restriction, ending exactly at p_bar.

    Without a lower bound the grid starts at p_bar / size, since the
    support is open at 0.
    """
    _check_trials("grid size", size, lo=2, cap=MAX_GRID)  # the grid is built in memory
    lo = p_bar / size if p_lo is None else p_lo
    return [lo + (p_bar - lo) * i / (size - 1) for i in range(size - 1)] + [p_bar]


def _j_rows(table: EstimateTable) -> tuple[list[float], Sequence[float]]:
    """I(x+a, n+a+b+1, p_bar) and its inverse c for x = 0..n, c read from the
    upper table's row: the rows whose binomial expectations are J(p) and
    E_p[1/I]; neither depends on p. An I that overflows is a singular bound."""
    inv_row = table._c_row[:-1]
    i_row = [1.0 / c if c else math.inf for c in inv_row]
    if math.inf in i_row:
        (a, b, p_bar, _), x = table.prior, i_row.index(math.inf)
        gamma = table.setup.n + a + b + 1.0
        raise SingularBoundError(f"I({x + a}, {gamma}, {p_bar}) overflows double precision")
    return i_row, inv_row


def _curve_point(
    p: float, j: float, e: float, p_bar: float, s: float
) -> tuple[float, float | None]:
    """The standardizer J(p) E_p[1/I] and the Thm 3.2 bound (None where its
    log argument is nonpositive) at p, from the sums j = J(p) and e = E_p[1/I];
    s = n + a + b."""
    arg = 1.0 - 1.0 / ((1.0 - p_bar) * s * j)
    gain = p * math.log1p((1.0 + 1.0 / j) / (p_bar * s))
    bound = (1.0 - p) * math.log(arg) + gain if arg > 0.0 else None
    return j * e, bound


def _row_pass(
    n: int,
    tables: tuple[EstimateTable, ...],
    value_rows: tuple[list[float], ...],
    grid: list[float],
) -> Iterator[tuple[float, ...]]:
    """Yields, for each p of grid, each table's risk and then each value
    row's expectation, every one a correctly rounded sum over x = 0..n.

    The grid goes in blocks of _BLOCK points. For each x, one comprehension
    over the block forms the pmf terms, by the expression of
    binom._exp_terms, and one more per table and per value row forms the
    weighted terms, the loss as in risk._risk_sums; each p then sums its
    column of the block's rows. The terms are the windowed sums' terms,
    and the rest are exactly 0.0 (pmf terms outside the exact window times
    finite values), so each sum is the windowed one. It reads log C(n, x)
    by index and each table's log rows whole, as they are up to
    _WHOLE_ROW estimates.
    """
    coeffs = _log_binom_coeffs(n)
    m = float(n)
    logs = [table._logs[:2] for table in tables]
    for lo in range(0, len(grid), _BLOCK):
        block = [(p, 1.0 - p, math.log(p), math.log1p(-p)) for p in grid[lo : lo + _BLOCK]]
        risk_terms = [[] for _ in tables]
        value_terms = [[] for _ in value_rows]
        for x in range(n + 1):
            c, fx = coeffs[x], float(x)
            ws = [math.exp(c + fx * log_p + (m - fx) * log_q) for _, _, log_p, log_q in block]
            for (log_ds, log_es), terms in zip(logs, risk_terms):
                log_d, log_e = log_ds[x], log_es[x]
                terms.append(
                    [
                        w * (0.0 if (v := p * (log_p - log_d) + q * (log_q - log_e)) < 0.0 else v)
                        for w, (p, q, log_p, log_q) in zip(ws, block)
                    ]
                )
            for values, terms in zip(value_rows, value_terms):
                value = values[x]
                terms.append([w * value for w in ws])
        yield from zip(*(map(math.fsum, zip(*terms)) for terms in risk_terms + value_terms))


def _window_pass(
    n: int, tables: tuple[EstimateTable, ...], value_rows: tuple[list[float], ...], grid: list[float]
) -> Iterator[tuple[float, ...]]:
    """Yields, for each p of grid, what _row_pass yields, from the one pmf
    window of (n, p): the tables' risks by risk._risk_sums, then each value
    row's expectation over the exact window, which is built only when a
    value row is given, its terms largest first into fsum as in _risk_sums.
    """
    for p in grid:
        sums = _risk_sums(tables, p)
        if value_rows:
            start, weights = pmf_windows(n, p).exact()
            for values in value_rows:
                terms = [w * v for w, v in zip(weights, values[start:])]
                terms.sort(reverse=True)
                sums.append(math.fsum(terms))
        yield tuple(sums)


def _upper_point(p: float, n: int, a: float, b: float, p_bar: float) -> tuple[float, float | None]:
    """_curve_point's pair at p, from one point of _window_pass. a and b, n,
    p_bar (by the upper table) and p are checked in that order, the order of
    the public bound functions."""
    _check_shape(a=a, b=b)
    value_rows = _j_rows(EstimateTable.build(BinomialSetup(n=n), PriorSpec(a, b, p_bar=p_bar)))
    if not 0.0 < p <= p_bar:
        raise ValueError(f"p must be in (0, p_bar], got p={p}, p_bar={p_bar}")
    j, e = next(_window_pass(n, (), value_rows, [p]))
    return _curve_point(p, j, e, p_bar, n + a + b)


def thm32_bound(p: float, n: int, a: float, b: float, p_bar: float) -> float:
    """Upper bound on the standardized risk difference (truncated minus
    untruncated) in the upper-restriction case."""
    _, bound = _upper_point(p, n, a, b, p_bar)
    if bound is None:
        raise BoundUndefinedError(f"bound undefined at p={p}: log argument <= 0")
    return bound


def risk_difference(
    p: float, n: int, a: float, b: float, p_bar: float, p_lo: float | None = None
) -> float:
    """Exact risk difference: truncated to (0, p_bar], or to [p_lo, p_bar]
    when p_lo is given, minus untruncated."""
    _check_p(p)
    setup = BinomialSetup(n=n)
    trunc = EstimateTable.build(
        setup, PriorSpec(a=a, b=b, p_bar=p_bar, p_lo=p_lo)
    )
    unres = EstimateTable.build(setup, PriorSpec(a=a, b=b))
    r_u, r_t = next(_window_pass(n, (unres, trunc), (), [p]))
    return r_t - r_u


def standardized_risk_difference(
    p: float, n: int, a: float, b: float, p_bar: float
) -> float:
    """Exact risk difference divided by J(p) E_p[1/I(X+a, n+a+b+1, p_bar)]."""
    scale, _ = _upper_point(p, n, a, b, p_bar)
    return risk_difference(p, n, a, b, p_bar) / scale


def smallpbar_sufficient_conditions(
    n: int, a: float, b: float, p_bar: float
) -> tuple[bool, bool]:
    """Two sufficient conditions for the truncated estimator to dominate.

    The first is general; the second is the sharper variant valid when
    p_bar <= 1/n. An undefined log argument means the bound chain does
    not apply, which we report as the condition not holding. I enters
    only as c = 1/I, 0.0 where I overflows, c0 as c(0) of the upper
    table's row, and the second condition is multiplied through by c_bar
    rather than divided by it.
    """
    c0 = EstimateTable.build(BinomialSetup(n=n), PriorSpec(a, b, p_bar=p_bar))._c_row[0]
    s = n + a + b
    c_bar = math.exp(-_log_I(a, a + b + 1.0, p_bar))
    log_gain = math.log1p((1.0 + c_bar) / (p_bar * s))
    arg = 1.0 - c0 / ((1.0 - p_bar) * s)
    cond_general = arg > 0.0 and math.log(arg) + p_bar / (1.0 - p_bar) * log_gain < 0.0
    cond_small = p_bar <= 1.0 / n and p_bar * s * log_gain < c_bar
    return cond_general, cond_small


def thm33_necessary(n: int, a: float, b: float, p_bar: float) -> bool:
    """Necessary for domination in the upper case: p_bar < (n+a)/(n+a+b)."""
    _check_count("n", n)
    PriorSpec(a=a, b=b, p_bar=p_bar)
    return p_bar < (n + a) / (n + a + b)


def thm34_necessary(n: int, a: float, p_bar: float) -> bool:
    """Necessary condition for domination in the upper case with b = 1."""
    _check_count("n", n)
    PriorSpec(a=a, b=1.0, p_bar=p_bar)
    lhs = p_bar * math.log1p((1.0 - p_bar) * (a + 1.0) / (p_bar * (n + a + 1.0)))
    rhs = (1.0 - p_bar) * math.log(
        (n + a + 1.0) * (1.0 - p_bar ** (n + 1)) / ((n + 1.0) * (1.0 - p_bar))
    )
    return lhs < rhs


def thm41_conditions(
    n: int, a: float, b: float, p_lo: float, p_bar: float
) -> tuple[bool, bool]:
    """Sufficient pair for interval-restriction domination; both true
    certifies that the interval-truncated estimator dominates."""
    _check_count("n", n)
    _check_shape(a=a, b=b)
    if not 0.0 < p_lo < p_bar < 1.0:
        raise ValueError(f"need 0 < p_lo < p_bar < 1, got ({p_lo}, {p_bar})")
    c1 = p_bar <= (a + 1.0) / (n + a + b + 1.0)
    c2 = (
        p_bar / (1.0 - p_bar) * math.log((p_lo * n + a + 1.0) / (p_bar * (n + a + b)))
        + math.log(((1.0 - p_lo) * n + b) / ((1.0 - p_bar) * (n + a + b)))
        <= 0.0
    )
    return c1, c2


def cor41_conditions(a: float, c_lo: float, c_bar: float) -> bool:
    """Large-n domination regime for p_lo = c_lo/n, p_bar = c_bar/n."""
    _check_shape(a=a)
    if not 0.0 < c_lo < c_bar:
        raise ValueError(f"need 0 < c_lo < c_bar, got ({c_lo}, {c_bar})")
    if c_bar >= a + 1.0:
        return False
    return c_bar * math.log((c_lo + a + 1.0) / c_bar) + c_bar - c_lo < a


def max_risk_diff_symmetric_n1(a: float, p_bar: float) -> float:
    """Maximum risk difference for n = 1, b = a, p_lo = 1 - p_bar; negative
    means the interval-truncated estimator dominates everywhere on
    [1 - p_bar, p_bar].

    It reads the log ratios t_x = -log1p(-c(x)/(x+a)) of the untruncated to
    the truncated estimate at x = 0, 1 from one interval correction c = c(0),
    since the symmetry of the prior and the interval gives c(1) = -c(0); no
    log measures of size about a are subtracted.
    """
    _check_shape(a=a)
    if not 0.5 < p_bar < 1.0:
        raise ValueError(f"p_bar must be in (1/2, 1), got {p_bar}")
    _check_p_bar(p_bar)
    p_lo = 1.0 - p_bar
    c = _correction(0, 1.0 + 2.0 * a, PriorSpec(a=a, b=a, p_bar=p_bar, p_lo=p_lo))
    t0, t1 = -math.log1p(-c / a), -math.log1p(c / (1.0 + a))
    return (p_lo**2 + p_bar**2) * t1 + 2.0 * p_lo * p_bar * t0


def threshold_scan(a: float, size: int = 50) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """max_risk_diff_symmetric_n1 at size points p_bar from 0.5 + 1e-4 to
    1 - 1e-4, and its root, below which the truncated estimator dominates.

    A root is claimed only at the scan's first sign change, from a negative
    first value. The bisection runs between the scan's ends but evaluates
    only inside that sign change and takes the signs of the scan points
    around it elsewhere. Its midpoint is returned only if the values
    THRESHOLD_TOL below and above it are negative and positive, so a sign
    change lies within THRESHOLD_TOL of it.
    """
    grid = p_grid(1.0 - 1e-4, 0.5 + 1e-4, size)
    _check_shape(a=a)
    values = tuple(max_risk_diff_symmetric_n1(a, pb) for pb in grid)
    turn = next((i for i, v in enumerate(values) if v >= 0.0), None)
    if not turn:  # no sign change, or a nonnegative first value
        raise ArithmeticError(f"no sign change bracketed on (1/2, 1) for a={a}")
    lo, hi = grid[0], grid[-1]
    while hi - lo >= THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= grid[turn - 1] or (mid < grid[turn] and max_risk_diff_symmetric_n1(a, mid) < 0.0):
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    below = max_risk_diff_symmetric_n1(a, root - THRESHOLD_TOL)
    above = max_risk_diff_symmetric_n1(a, root + THRESHOLD_TOL)
    if not (below < 0.0 < above):
        raise ArithmeticError(
            f"root near {root} for a={a} not resolved to {THRESHOLD_TOL}: the "
            f"values {below} and {above} around it do not change sign"
        )
    return tuple(grid), values, root


def dominance_threshold_n1(a: float) -> float:
    """Root of the n = 1 symmetric maximum risk difference on (1/2, 1)."""
    return threshold_scan(a)[2]


class DominanceReport(_record("DominanceReport", """n a b restriction p_lo p_bar p_grid
        risk_unrestricted risk_truncated risk_difference thm32_bound_curve
        standardized_diff_curve condition_flags grid_verdict worst_p worst_difference""")):
    """Verdict and supporting diagnostics for one prior configuration; the
    two bound curves are None unless the restriction is an upper bound."""

    __slots__ = ()


def exhaustive_dominance_check(
    n: int,
    a: float,
    b: float,
    p_bar: float,
    p_lo: float | None = None,
    grid_size: int = 512,
) -> DominanceReport:
    """Exact risk differences over a uniform grid on the restriction.

    Verdict: 'dominates' when every difference is <= 1e-12, and
    'dominated_somewhere' when the worst difference clears the numerical
    noise ceiling of 1e-9; anything in between is 'inconclusive'.
    """
    setup = BinomialSetup(n=n)
    prior = PriorSpec(a=a, b=b, p_bar=p_bar, p_lo=p_lo)
    grid = p_grid(p_bar, p_lo, grid_size)
    unres = EstimateTable.build(setup, PriorSpec(a=a, b=b))
    trunc = EstimateTable.build(setup, prior)
    upper = prior.restriction == "upper"

    flags: dict[str, bool | None] = {
        "thm33_necessary": thm33_necessary(n, a, b, p_bar),
        "thm34_necessary": thm34_necessary(n, a, p_bar) if b == 1.0 else None,
        "thm41_c1": None,
        "thm41_c2": None,
        "smallpbar_sufficient": None,
    }
    if upper:
        cond_general, _ = smallpbar_sufficient_conditions(n, a, b, p_bar)
        flags["smallpbar_sufficient"] = cond_general
    else:
        c1, c2 = thm41_conditions(n, a, b, p_lo, p_bar)
        flags["thm41_c1"] = c1
        flags["thm41_c2"] = c2
    s = n + a + b
    value_rows = _j_rows(trunc) if upper else ()
    # p_grid keeps every p on the restriction, inside (0, 1)
    grid_pass = _row_pass if n + 1 <= _WHOLE_ROW else _window_pass
    rows = [
        (r_u, r_t, *(_curve_point(p, *js, p_bar, s) if upper else (None, None)))
        for p, (r_u, r_t, *js) in zip(grid, grid_pass(n, (unres, trunc), value_rows, grid))
    ]
    risk_unres, risk_trunc, scales, bounds = (tuple(col) for col in zip(*rows))
    diffs = tuple(t - u for t, u in zip(risk_trunc, risk_unres))

    worst_idx = max(range(len(grid)), key=lambda i: diffs[i])
    worst = diffs[worst_idx]
    if worst <= GRID_SLACK:
        verdict = "dominates"
    elif worst > NOISE_CEILING:
        verdict = "dominated_somewhere"
    else:
        verdict = "inconclusive"

    return DominanceReport(
        n=n,
        a=a,
        b=b,
        restriction=prior.restriction,
        p_lo=p_lo,
        p_bar=p_bar,
        p_grid=tuple(grid),
        risk_unrestricted=risk_unres,
        risk_truncated=risk_trunc,
        risk_difference=diffs,
        thm32_bound_curve=bounds if upper else None,
        standardized_diff_curve=tuple(d / c for d, c in zip(diffs, scales)) if upper else None,
        condition_flags=flags,
        grid_verdict=verdict,
        worst_p=grid[worst_idx],
        worst_difference=worst,
    )
