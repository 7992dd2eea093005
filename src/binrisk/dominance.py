"""Dominance conditions, risk-difference bounds, and grid certification.

"Dominates" is certified on a finite grid (default 512 points including
the restriction's upper endpoint): the verdict is the sign of the largest
grid difference D, which is exact to rounding, so it holds at grid
resolution, not as a symbolic proof.

The grid pass has two engines that return the same floats, one column
over the grid per sum, of three kinds: a table's risk; a risk difference
D(p), truncated minus untruncated, as one sum over the truncated table's
difference pair, p alpha_x + q beta_x with the p-free rows alpha_x =
log(d_u/d_t) and beta_x = log((1-d_u)/(1-d_t)), whose terms do not
cancel the way the two risks do; and a value row's expectation.
_row_pass sums the grid in blocks of _BLOCK points by rows of x while
n + 1 <= _WHOLE_ROW, where its coefficient row and its tables' rows are
whole lists, and _window_pass one pmf window per p above that and for
the scalar functions, which read one point of it; _grid_sums picks
between them; the window pass reads each risk and difference from
risk's certified core-window sums. The value rows of the upper case, the
J rows, are c(0..n) of the upper EstimateTable's row, none where a 1/c overflows.
risk_curves sums the two risks and J(p), exhaustive_dominance_check the
difference, J(p) and E_p[1/I]: no sweep forms a term it does not report.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

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
from .incbeta import _check_p_bar, _log_I
from .risk import _check_p, _pair_sums, _risk_sums

THRESHOLD_TOL = 1e-6

# Grid points per block of the row pass
_BLOCK = 64

# The tables and the p-free value rows a grid pass sums
_Tables = tuple[EstimateTable, ...]
_Rows = tuple[Sequence[float], ...]


class BoundUndefinedError(ArithmeticError):
    """The bound's log argument is nonpositive, or J(p) has an I beyond double range."""


def p_grid(p_bar: float, p_lo: float | None, size: int) -> list[float]:
    """Uniform grid of size points on the restriction, ending exactly at p_bar.

    Without a lower bound the grid starts at p_bar / size, since the
    support is open at 0.
    """
    _check_trials("grid size", size, lo=2, cap=MAX_GRID)  # the grid is built in memory
    lo = p_bar / size if p_lo is None else p_lo
    return [lo + (p_bar - lo) * i / (size - 1) for i in range(size - 1)] + [p_bar]


def _j_rows(table: EstimateTable) -> tuple[list[float], Sequence[float]] | None:
    """I(x+a, n+a+b+1, p_bar) and its inverse c for x = 0..n, c read from the
    upper table's row: the rows whose binomial expectations are J(p) and
    E_p[1/I]; neither depends on p. None where some I is beyond double
    range (c = 0.0, or 1/c overflows), as J is then."""
    inv_row = table._c_row[:-1]
    i_row = [1.0 / c if c else math.inf for c in inv_row]
    return None if math.inf in i_row else (i_row, inv_row)


def _bound(p: float, j: float, p_bar: float, s: float) -> float | None:
    """The Thm 3.2 bound at p from the sum j = J(p), None where its log
    argument is nonpositive; s = n + a + b."""
    arg = 1.0 - 1.0 / ((1.0 - p_bar) * s * j)
    gain = p * math.log1p((1.0 + 1.0 / j) / (p_bar * s))
    return (1.0 - p) * math.log(arg) + gain if arg > 0.0 else None


def _row_pass(
    n: int, grid: list[float], tables: _Tables = (), pairs: _Tables = (), rows: _Rows = ()
) -> list[list[float]]:
    """One column over grid per sum: each table's risk, then each
    restricted table's risk difference D(p) from its difference pair, then
    each value row's expectation, every one a correctly rounded sum over x
    = 0..n.

    The grid goes in blocks of _BLOCK points. For each x, one comprehension
    over the block forms the pmf terms, by the expression of
    binom._exp_terms, and one more per sum forms the weighted terms: the
    loss as in risk._risk_sums, p alpha + q beta for a pair, the value for
    a row; each p then sums its column of the block's rows. The terms are
    the windowed sums' terms, and the rest are exactly 0.0 (pmf terms
    outside the exact window times finite values), so each sum is the
    windowed one. It reads log C(n, x) by index and the tables' p-free
    rows whole, as they are up to _WHOLE_ROW estimates.
    """
    coeffs = _log_binom_coeffs(n)
    m = float(n)
    logs = [table._logs[:2] for table in tables]
    diffs = [table._pair[:2] for table in pairs]
    columns = [[] for _ in (*logs, *diffs, *rows)]
    for lo in range(0, len(grid), _BLOCK):
        block = [(p, 1.0 - p, math.log(p), math.log1p(-p)) for p in grid[lo : lo + _BLOCK]]
        loss_terms, pair_terms = [[] for _ in logs], [[] for _ in diffs]
        value_terms = [[] for _ in rows]
        for x in range(n + 1):
            c, fx = coeffs[x], float(x)
            ws = [math.exp(c + fx * log_p + (m - fx) * log_q) for _, _, log_p, log_q in block]
            for (log_ds, log_es), x_terms in zip(logs, loss_terms):
                log_d, log_e = log_ds[x], log_es[x]
                x_terms.append(
                    [
                        w * (0.0 if (v := p * (log_p - log_d) + q * (log_q - log_e)) < 0.0 else v)
                        for w, (p, q, log_p, log_q) in zip(ws, block)
                    ]
                )
            for (alphas, betas), x_terms in zip(diffs, pair_terms):
                al, be = alphas[x], betas[x]
                x_terms.append([w * (p * al + q * be) for w, (p, q, _, _) in zip(ws, block)])
            for values, x_terms in zip(rows, value_terms):
                value = values[x]
                x_terms.append([w * value for w in ws])
        for column, x_terms in zip(columns, loss_terms + pair_terms + value_terms):
            column += map(math.fsum, zip(*x_terms))
    return columns


def _window_pass(
    n: int, grid: list[float], tables: _Tables = (), pairs: _Tables = (), rows: _Rows = ()
) -> list[list[float]]:
    """The columns of _row_pass from the one pmf window of (n, p) per p:
    the tables' risks by risk._risk_sums, the pairs' differences by
    risk._pair_sums, each on its certified core window, then each value
    row's expectation over the exact window, which is built only when a
    value row is given, its terms largest first into fsum as in _risk_sums.
    """
    points = []
    for p in grid:
        sums = _risk_sums(tables, p) + _pair_sums(pairs, p)
        if rows:
            start, weights = pmf_windows(n, p).exact()
            for values in rows:
                terms = [w * v for w, v in zip(weights, values[start:])]
                terms.sort(reverse=True)
                sums.append(math.fsum(terms))
        points.append(sums)
    return [list(column) for column in zip(*points)]


def _grid_sums(
    n: int, grid: list[float], tables: _Tables = (), pairs: _Tables = (), rows: _Rows = ()
) -> list[list[float]]:
    """The columns of the grid pass: the row pass while n + 1 <= _WHOLE_ROW,
    where its rows are whole lists, the window pass above that."""
    grid_pass = _row_pass if n + 1 <= _WHOLE_ROW else _window_pass
    return grid_pass(n, grid, tables, pairs, rows)


def _upper_point(p: float, n: int, a: float, b: float, p_bar: float) -> tuple[float, float | None]:
    """The standardizer J(p) E_p[1/I] and the Thm 3.2 bound at p, from one
    point of _window_pass. a and b, n, p_bar (by the upper table) and p are
    checked in that order, the order of the public bound functions, then J's row."""
    _check_shape(a=a, b=b)
    rows = _j_rows(EstimateTable.build(BinomialSetup(n=n), PriorSpec(a, b, p_bar=p_bar)))
    if not 0.0 < p <= p_bar:
        raise ValueError(f"p must be in (0, p_bar], got p={p}, p_bar={p_bar}")
    if rows is None:
        raise BoundUndefinedError(f"J({p}) undefined: I(x+a, {n + a + b + 1.0}, {p_bar}) overflows")
    [j], [e] = _window_pass(n, [p], rows=rows)
    return j * e, _bound(p, j, p_bar, n + a + b)


def thm32_bound(p: float, n: int, a: float, b: float, p_bar: float) -> float:
    """Upper bound on the standardized risk difference (truncated minus
    untruncated) in the upper case; BoundUndefinedError where it has none."""
    _, bound = _upper_point(p, n, a, b, p_bar)
    if bound is None:
        raise BoundUndefinedError(f"bound undefined at p={p}: log argument <= 0")
    return bound


def risk_difference(
    p: float, n: int, a: float, b: float, p_bar: float, p_lo: float | None = None
) -> float:
    """Exact risk difference: truncated to (0, p_bar], or to [p_lo, p_bar]
    when p_lo is given, minus untruncated, as one sum D(p) over the
    truncated table's difference pair."""
    _check_p(p)
    trunc = EstimateTable.build(BinomialSetup(n=n), PriorSpec(a=a, b=b, p_bar=p_bar, p_lo=p_lo))
    [[diff]] = _window_pass(n, [p], pairs=(trunc,))
    return diff


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
        risk_difference thm32_bound_curve standardized_diff_curve condition_flags
        grid_verdict worst_p worst_difference""")):
    """Verdict and supporting diagnostics for one prior configuration: the
    risk difference D(p) over the grid, truncated minus untruncated; the
    two bound curves are None unless the restriction is an upper bound
    whose J row is finite. grid_verdict is 'dominated_somewhere' when some
    grid D is above 0.0 and 'dominates' otherwise."""

    __slots__ = ()


class RiskCurves(_record("RiskCurves", """n a b restriction p_lo p_bar p_grid
        risk_unrestricted risk_truncated thm32_bound_curve""")):
    """The untruncated and truncated risk over a grid on the restriction; the
    bound curve is None unless it is an upper bound whose J row is finite."""

    __slots__ = ()


def risk_curves(
    n: int,
    a: float,
    b: float,
    p_bar: float,
    p_lo: float | None = None,
    grid_size: int = 512,
) -> RiskCurves:
    """Exact risks of the untruncated and the truncated estimator over a
    uniform grid on the restriction, and the Thm 3.2 bound under an upper
    bound, which reads J(p) alone."""
    setup = BinomialSetup(n=n)
    prior = PriorSpec(a=a, b=b, p_bar=p_bar, p_lo=p_lo)
    grid = p_grid(p_bar, p_lo, grid_size)
    unres = EstimateTable.build(setup, PriorSpec(a=a, b=b))
    trunc = EstimateTable.build(setup, prior)
    rows = _j_rows(trunc) if prior.restriction == "upper" else None
    # p_grid keeps every p on the restriction, inside (0, 1)
    risk_unres, risk_trunc, *js = _grid_sums(
        n, grid, tables=(unres, trunc), rows=rows[:1] if rows else ()
    )
    bounds = tuple(_bound(p, j, p_bar, n + a + b) for p, j in zip(grid, *js)) if rows else None
    return RiskCurves(
        n=n, a=a, b=b, restriction=prior.restriction, p_lo=p_lo, p_bar=p_bar,
        p_grid=tuple(grid), risk_unrestricted=tuple(risk_unres),
        risk_truncated=tuple(risk_trunc), thm32_bound_curve=bounds,
    )


def exhaustive_dominance_check(
    n: int,
    a: float,
    b: float,
    p_bar: float,
    p_lo: float | None = None,
    grid_size: int = 512,
) -> DominanceReport:
    """Exact risk differences D(p) over a uniform grid on the restriction,
    each one sum over the truncated table's difference pair, and under an
    upper bound D/(J E_p[1/I]) and the Thm 3.2 bound.

    Verdict: the sign of the largest difference, 'dominated_somewhere'
    when it is above 0.0 and 'dominates' otherwise. Each D is exact to
    about 1e-13 of its scale p E|alpha| + q E|beta|, so the sign can be
    wrong only where D lies that close to 0, and the report prints that D
    as worst_difference; no slack on its value is needed.
    """
    prior = PriorSpec(a=a, b=b, p_bar=p_bar, p_lo=p_lo)
    grid = p_grid(p_bar, p_lo, grid_size)
    trunc = EstimateTable.build(BinomialSetup(n=n), prior)
    rows = _j_rows(trunc) if prior.restriction == "upper" else None

    flags: dict[str, bool | None] = {
        "thm33_necessary": thm33_necessary(n, a, b, p_bar),
        "thm34_necessary": thm34_necessary(n, a, p_bar) if b == 1.0 else None,
        "thm41_c1": None,
        "thm41_c2": None,
        "smallpbar_sufficient": None,
    }
    if prior.restriction == "upper":
        cond_general, _ = smallpbar_sufficient_conditions(n, a, b, p_bar)
        flags["smallpbar_sufficient"] = cond_general
    else:
        c1, c2 = thm41_conditions(n, a, b, p_lo, p_bar)
        flags["thm41_c1"] = c1
        flags["thm41_c2"] = c2
    # p_grid keeps every p on the restriction, inside (0, 1)
    diffs, *js = _grid_sums(n, grid, pairs=(trunc,), rows=rows or ())
    diffs = tuple(diffs)

    worst_idx = max(range(len(grid)), key=lambda i: diffs[i])
    worst = diffs[worst_idx]

    s = n + a + b
    return DominanceReport(
        n=n,
        a=a,
        b=b,
        restriction=prior.restriction,
        p_lo=p_lo,
        p_bar=p_bar,
        p_grid=tuple(grid),
        risk_difference=diffs,
        thm32_bound_curve=(
            tuple(_bound(p, j, p_bar, s) for p, j, _ in zip(grid, *js)) if rows else None
        ),
        standardized_diff_curve=(
            tuple(d / (j * e) for d, j, e in zip(diffs, *js)) if rows else None
        ),
        condition_flags=flags,
        grid_verdict="dominates" if worst <= 0.0 else "dominated_somewhere",
        worst_p=grid[worst_idx],
        worst_difference=worst,
    )
