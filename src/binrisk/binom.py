"""Binomial model primitives: pmf windows.

pmf_windows(n, p) holds, in one cache entry, the exact window of (n, p),
every x whose pmf is not exactly 0.0, and its core window, the x within
e^-64 of the pmf peak, with a bound on the sum of the terms the core
leaves out. Building an entry costs its core: the builder searches the
core's two edges in the lgamma form of the pmf exponent, and bounds the
terms past each by their geometric decay there; the exact window's edges
are searched the same way on its first read. A row of at most 64 terms is
exponentiated term by term from the whole row of log C(n, x), one list
per n, which the row pass and the predictive masses at small l also read.
A longer one keeps no row: one term at the mode, in Loader's saddle-point
form, is walked out by the pmf ratio, which holds the core within 4e-14
of mpmath at n = 1e6. An entry read as the future pmf of the predictive
KL risk also keeps the (y, f(y), log f(y)) triples of its nonzero terms.
Entries sit in two caches by row length: up to 1,024 short rows, which
sweeps revisit at the same few p, and 8 long ones. The builder takes n >=
1 and p in (0, 1) as checked: every entry point that takes p checks it
once, with risk._check_p. A long estimate table keeps its two log rows in
one _LazyRow, and a long restricted table its difference pair in another.

Also holds the two descriptors shared across the package, the
trial-count setup and the (possibly truncated) beta prior; the bases of
the records and the tables; and the count and shape checks that guard
every entry point taking raw values.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, count, islice
from operator import mul, truediv

from .special import _bd0, _log_beta_with, _stirling_error


# n = 1e6 takes about 0.4 s and 76 MB peak RSS in one upper estimate table
# and its risk, and a Poisson report up to K = 1e6 about 0.4 s and 82 MB
MAX_TRIALS = 10**6
# 1e6 grid points take about 11 s and 550 MB in a risk curve at n = 3, and
# 4 s and 155 MB in a threshold scan
MAX_GRID = 10**6


def _check_count(name: str, value: int, lo: int = 1, hi: int | None = None) -> None:
    """value must be an integer >= lo, and <= hi when hi is given; a bool,
    though an int subclass, is not a count."""
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if not is_int or value < lo or (hi is not None and value > hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {span}, got {value}")


def _check_trials(name: str, value: int, lo: int = 1, cap: int = MAX_TRIALS) -> None:
    """A count in [lo, cap], by default a trial count n or l: a row of its length is built."""
    _check_count(name, value, lo)
    if value > cap:
        _check_count(name, value, lo, cap)


def _check_shape(**shape: float) -> None:
    """Beta exponents and Poisson parameters must lie in (0, inf); NaN fails too."""
    for name, value in shape.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")


def _record(name: str, fields: str) -> type:
    """The named-tuple base of a record: ==, hash and repr over its fields,
    which cannot be assigned. Its _make, and so _replace, and its pickling
    and copying build through the record's own __new__, which validates."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    base.__reduce__ = lambda self: (type(self), tuple(self))
    return base


class _Table:
    """The base of the two tables: ==, hash and repr over _fields, which
    __init__ sets after validating them and which cannot be assigned after;
    pickling and copying build through __init__. Not a tuple: a table
    iterates over its entries, through __getitem__, and has no len."""

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), self._key()


class BinomialSetup(_record("BinomialSetup", "n l")):
    """Current and future trial counts."""

    __slots__ = ()

    def __new__(cls, n: int, l: int = 1) -> BinomialSetup:
        _check_trials("n", n)
        _check_trials("l", l)
        return super().__new__(cls, n, l)


class PriorSpec(_record("PriorSpec", "a b p_bar p_lo")):
    """Beta prior p^(a-1) (1-p)^(b-1), optionally truncated.

    restriction modes:
      - p_lo is None, p_bar is None : untruncated, support (0, 1)
      - p_lo is None, p_bar set     : upper truncation, support (0, p_bar]
      - both set                    : interval truncation, support [p_lo, p_bar]
    """

    __slots__ = ()

    def __new__(
        cls, a: float, b: float, p_bar: float | None = None, p_lo: float | None = None
    ) -> PriorSpec:
        _check_shape(a=a, b=b)
        if p_lo is not None and p_bar is None:
            raise ValueError("a lower bound requires an upper bound")
        if p_bar is not None and not 0.0 < p_bar < 1.0:
            raise ValueError(f"p_bar must be in (0, 1), got {p_bar}")
        if p_lo is not None and not 0.0 < p_lo < p_bar:
            raise ValueError(f"need 0 < p_lo < p_bar, got p_lo={p_lo}, p_bar={p_bar}")
        return super().__new__(cls, a, b, p_bar, p_lo)

    @property
    def restriction(self) -> str:
        if self.p_bar is None:
            return "none"
        if self.p_lo is None:
            return "upper"
        return "interval"

    @property
    def support(self) -> tuple[float, float]:
        lo = self.p_lo if self.p_lo is not None else 0.0
        hi = self.p_bar if self.p_bar is not None else 1.0
        return lo, hi


# A row of at most _WHOLE_ROW entries is built whole, as a plain list:
# the row pass (n < 64), the short pmf windows and the predictive masses at
# small l read all of it; estimators splits its two table caches at the
# same length
_WHOLE_ROW = 64


class _LazyRow:
    """p-free rows over x = 0..size-1, packed array('d') holding NaN where
    not yet computed, each by its own entries(start, stop), the row's x =
    start..stop-1. span(start, stop) computes a stretch of every row: it
    grows the one filled stretch [lo, hi) to hold it, so that the windows of
    a sweep over p, which overlap, compute each entry once."""

    __slots__ = ("rows", "_entries", "_lo", "_hi")

    def __init__(self, size: int, *entries) -> None:
        self.rows = tuple([array("d", [math.nan]) * size for _ in entries])
        self._entries, self._lo, self._hi = entries, 0, 0

    def span(self, start: int, stop: int) -> None:
        """Computes the entries x = start..stop-1, start < stop."""
        lo, hi = (start, start) if self._lo == self._hi else (self._lo, self._hi)
        for row, entries in zip(self.rows, self._entries):
            if start < lo:
                row[start:lo] = array("d", entries(start, lo))
            if stop > hi:
                row[hi:stop] = array("d", entries(hi, stop))
        self._lo, self._hi = min(start, lo), max(stop, hi)


def _coeff_entries(n: int, start: int, stop: int) -> list[float]:
    """log C(n, x) = -log(n+1) - log B(x+1, n-x+1) for x = start..stop-1;
    each log B reads delta(x+1), delta(n-x+1) and delta(n+2)."""
    log_n1, log_s, d_s = math.log(n + 1), math.log(n + 2), _stirling_error(n + 2)
    return [
        -log_n1
        - _log_beta_with(
            x + 1, n - x + 1, log_s, _stirling_error(x + 1), _stirling_error(n - x + 1), d_s
        )
        for x in range(start, stop)
    ]


@lru_cache(maxsize=256)  # a row takes at most about 2.6 KB with its floats
def _log_binom_coeffs(n: int) -> list[float]:
    """The row log C(n, x), x = 0..n, for n + 1 <= _WHOLE_ROW."""
    return _coeff_entries(n, 0, n + 1)


def _saddle_log_pmf(n: int, p: float, log_p: float, log_q: float, x: int) -> float:
    """log Bin(x; n, p) in Loader's saddle-point form (C. Loader, "Fast and
    Accurate Computation of Binomial Probabilities", 2000), in which no
    large terms cancel: delta(n) - delta(x) - delta(n-x) - bd0(x, np) -
    bd0(n-x, nq) - log(2 pi x (n-x)/n)/2, delta the Stirling error; n log q
    at x = 0 and n log p at x = n."""
    if x == 0 or x == n:
        return n * (log_q if x == 0 else log_p)
    delta = _stirling_error
    saddle = delta(n) - delta(x) - delta(n - x) - _bd0(x, n * p) - _bd0(n - x, n * (1.0 - p))
    return saddle - 0.5 * math.log(math.tau * x * (n - x) / n)


# math.exp is exactly 0.0 below about -745.13. Past the first exponent
# under this cutoff, 1 below -745.2, the log pmf only falls, and neither
# the rounding of the terms nor their gap to the searched lgamma form
# (_log_pmf), both far below the 1.07 of margin, can lift one back
_EXP_CUTOFF = -746.2

# The core window keeps the x whose pmf exponent lies within _DEPTH of the
# mode's: about ±11 standard deviations, where the exact window runs to ±38
_DEPTH = 64.0


# Each ratio r of the tail bound is inflated by this factor, which covers
# its few roundings (under 5e-16 relative)
_RATIO_SLACK = 1.0 + 2.0**-40


def _log_pmf(n: int, log_p: float, log_q: float, x: int) -> float:
    """The pmf exponent at x in lgamma form, lgamma(n+1) - lgamma(x+1) -
    lgamma(n-x+1) + x log_p + (n-x) log_q: within 4e-9 of the log of the
    window's term at x up to n = MAX_TRIALS (seeded x), far inside the 1 of
    the tail bound and the 1.07 between _EXP_CUTOFF and exp's zero."""
    lgamma = math.lgamma
    return lgamma(n + 1) - lgamma(x + 1) - lgamma(n - x + 1) + x * log_p + (n - x) * log_q


def _window_edge(row: tuple, inner: int, end: int, floor: float) -> int:
    """The last x from inner toward end whose pmf exponent, in lgamma form,
    is not under floor, inner's not being under it, by bisection: the log
    pmf is unimodal, so along the way the test flips once."""
    n, _, log_p, log_q = row
    outer, x = end, end
    while True:
        if _log_pmf(n, log_p, log_q, x) >= floor:
            inner = x
        else:
            outer = x
        if abs(outer - inner) <= 1:
            return inner
        x = (inner + outer) // 2


def _walk(row: tuple, w: float, x: int, start: int, stop: int) -> tuple[float, ...]:
    """The terms y = start..stop-1 from w, the term at x, start <= x < stop,
    for row = (n, p, log_p, log_q), by the pmf ratio w(y+1)/w(y) = (n-y)/(y+1)
    r, r = p/q: multiplied up from x, divided down. r is rounded once, from
    p's integer ratio, and its relative error e, the same at every step,
    would pile up (1.3e-16 a step at n = 1e5, p = 0.3), so every 64th ratio
    also takes 1 - 64 e, which leaves about 1e-18 a step."""
    n, p, _, _ = row
    num, den = p.as_integer_ratio()
    den -= num
    r = num / den
    a, b = r.as_integer_ratio()
    fix = 1.0 + 64 * (num * b - a * den) / (a * den)
    steps = map(truediv, range(n - start, n - stop + 1, -1), range(start + 1, stop))
    ratios = [t * r for t in steps]
    ratios[63::64] = [v * fix for v in ratios[63::64]]
    terms = list(accumulate(reversed(ratios[: x - start]), truediv, initial=w))
    terms.reverse()
    terms += islice(accumulate(ratios[x - start :], mul, initial=w), 1, None)
    return tuple(terms)


def _exp_terms(row: tuple, start: int, stop: int) -> tuple[float, ...]:
    """exp(log C(n, x) + x log_p + (n-x) log_q), x = start..stop-1, for row
    = (n, p, log_p, log_q) with n + 1 <= _WHOLE_ROW, from the whole row of
    log C(n, x); x and n-x are floats, exact below 2^53."""
    n, _, log_p, log_q = row
    m, terms = float(n), zip(_log_binom_coeffs(n)[start:stop], count(float(start)))
    return tuple([math.exp(c + x * log_p + (m - x) * log_q) for c, x in terms])


def _tail_ratio(ratio: float) -> float:
    """1/(1 - r) for the pmf ratio r just past one edge of the core, inflated
    for rounding; inf where r is not under 1, where no bound holds."""
    r = ratio * _RATIO_SLACK
    return 1.0 / (1.0 - r) if r < 1.0 else math.inf


class PmfWindows:
    """The two pmf windows of one (n, p), which share their terms; built by
    pmf_windows.

    exact() holds C(n,x) p^x (1-p)^(n-x) wherever it is not exactly 0.0:
    the log pmf is unimodal, so the window runs from the mode out to the
    last exponent not under _EXP_CUTOFF on either side. core is the part
    of it whose exponents lie within _DEPTH of the exponent at the mode,
    and tail bounds the sum of every term core leaves out (0.0 when it
    leaves none). Edges are searched in lgamma form (_log_pmf). Up to
    _WHOLE_ROW terms each term is exponentiated from the whole row of log
    C(n, x) (_exp_terms); above that the terms are walked (_walk) from the
    mode's, in Loader's form (_saddle_log_pmf), and no row is kept. Past
    an edge the log pmf is concave, so the terms fall at least as fast as
    the pmf ratio r just past it: (n-x)/(x+1) p/q right of the core,
    x/(n-x+1) q/p left of it. The first term left out lies under e^(peak -
    _DEPTH), so a side's terms sum to at most e^(peak - _DEPTH + 1)/(1 -
    r), the 1 covering the terms' rounding and their gap to the lgamma
    form; where r is not under 1, tail is inf and the sum runs over the
    exact window. Each window is a pair (start, terms) for x = start,
    start+1, ...; exact() searches its edges and walks on from the core's
    edge terms on its first call, so no term is computed twice.
    """

    __slots__ = ("core", "tail", "_exact", "_rest", "_logs")

    def exact(self) -> tuple[int, tuple[float, ...]]:
        if self._exact is None:
            row, core_start, core = self._rest, *self.core
            core_stop = core_start + len(core)
            start = _window_edge(row, core_start, 0, _EXP_CUTOFF)
            stop = _window_edge(row, core_stop - 1, row[0], _EXP_CUTOFF) + 1
            if row[0] + 1 <= _WHOLE_ROW:
                left, right = _exp_terms(row, start, core_start), _exp_terms(row, core_stop, stop)
            else:
                left = _walk(row, core[0], core_start, start, core_start + 1)[:-1]
                right = _walk(row, core[-1], core_stop - 1, core_stop - 1, stop)[1:]
            self._exact, self._rest = (start, left + core + right), None
        return self._exact

    def exact_logs(self) -> tuple[tuple[int, float, float], ...]:
        """(x, term, log term) for each nonzero term of the exact window,
        built on the first call and kept, the rows a sum over the future
        pmf iterates."""
        if self._logs is None:
            start, terms = self.exact()
            self._logs = tuple([(x, w, math.log(w)) for x, w in enumerate(terms, start) if w])
        return self._logs


def _build_windows(n: int, p: float) -> PmfWindows:
    """The windows of (n, p) for n >= 1 and 0 < p < 1, unchecked."""
    windows = PmfWindows()
    log_p, log_q, q = math.log(p), math.log1p(-p), 1.0 - p
    row = n, p, log_p, log_q
    mode = min(int((n + 1) * p), n)
    floor = _log_pmf(n, log_p, log_q, mode) - _DEPTH
    core_start = _window_edge(row, mode, 0, floor)
    core_stop = _window_edge(row, mode, n, floor) + 1
    if n + 1 <= _WHOLE_ROW:
        windows.core = core_start, _exp_terms(row, core_start, core_stop)
    else:
        w = math.exp(_saddle_log_pmf(*row, mode))
        windows.core = core_start, _walk(row, w, mode, core_start, core_stop)
    bound = 0.0
    if core_start:
        x = core_start - 1
        bound += _tail_ratio(x / (n - x + 1) * (q / p))
    if core_stop <= n:
        x = core_stop
        bound += _tail_ratio((n - x) / (x + 1) * (p / q))
    windows.tail = math.exp(floor + 1.0) * bound if bound else 0.0
    windows._exact, windows._rest = (None, row) if bound else (windows.core, None)
    windows._logs = None
    return windows


# Sweeps revisit the same few p at many small n (n + l - 1 <= 12 in the
# predictive acceptance sweep, whose 75 p give 900 rows). A row of at most
# _SHORT_ROW terms takes at most about 950 bytes with both windows, its key
# and its cache link, and about 2,230 with the (y, f, log f) triples of its
# terms (tracemalloc, n = 12), so its cache holds at most 2.3 MB; a long
# row takes about 32 bytes a term, 0.4 MB at n = 1e5, so only 8 of them
# are kept.
_SHORT_ROW = 13
_short_windows = lru_cache(maxsize=1024)(_build_windows)
_long_windows = lru_cache(maxsize=8)(_build_windows)


def pmf_windows(n: int, p: float) -> PmfWindows:
    """The windows of (n, p), built once for every sum at that p. n >= 1 and
    0 < p < 1 are not checked: the callers have checked them."""
    return (_short_windows if n < _SHORT_ROW else _long_windows)(n, p)
