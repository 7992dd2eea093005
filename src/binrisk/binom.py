"""Binomial model primitives: pmf windows.

pmf_windows(n, p) holds, in one cache entry, the exact window of (n, p),
every x whose pmf is not exactly 0.0, and its core window, the x within
e^-64 of the pmf peak, with a bound on the sum of the terms the core
leaves out; each term is exponentiated once. Building an entry costs its
core: the builder searches the core's two edges in the lgamma form of
the pmf exponent, which reads no row, and bounds the terms past each by
their geometric decay there; the exact window's edges are searched the
same way on its first read. An entry read as the future pmf of the
predictive KL risk also keeps the (y, f(y), log f(y)) triples of its
nonzero terms, which that risk iterates as they are. Entries sit in two
caches by row length: up to 1,024 short rows, which sweeps revisit at the
same few p, and 8 long ones. The builder takes n >= 1 and p in (0, 1) as
checked: every entry point that takes p checks it once, with
risk._check_p. The risk sums form their loss terms themselves
(risk._risk_sums), one log p and log(1-p) for all of a call's tables.

The windows read log C(n, x) from one row per n, _log_binom_coeffs(n):
a plain list when it has at most _WHOLE_ROW entries, which the row pass
and the predictive masses at small l read whole, and above that a
_LazyRow, a packed array('d') of 8 bytes an entry that holds NaN where an
entry is not yet computed; an entry is computed where a window's terms or
a mass first read it, so a one-shot risk at n = 1e5, p = 0.29 computes
3,246 of 100,001, its core. Up to 256 whole rows and 8 lazy ones are
kept. A long estimate table keeps its two log rows in one _LazyRow, and
a long restricted table its difference pair in another.

Also holds the two descriptors shared across the package, the
trial-count setup and the (possibly truncated) beta prior; the bases of
the records and the tables; and the count and shape checks that guard
every entry point taking raw values.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from functools import lru_cache, partial
from itertools import count

from .special import _log_beta_with, _stirling_error


# n = 1e6 takes about 0.6 s and 85 MB peak RSS in one upper estimate table
# and its risk, and a Poisson report up to K = 1e6 about 0.5 s and 91 MB
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
# the row pass (n < 64) and the predictive masses at small l read all of it;
# estimators splits its two table caches at the same length
_WHOLE_ROW = 64

# A packed row of one NaN, the entry not yet computed; no entry of a
# p-free row is NaN. _UNSET * size is a row of size such entries
_UNSET = array("d", [math.nan])


class _LazyRow:
    """p-free rows over x = 0..size-1, packed array('d') holding NaN where
    not yet computed, each by its own entries(start, stop), the row's x =
    start..stop-1; values is the first row. An index x >= 0 reads x of
    values, as the predictive masses and the plug-in density do, and
    computes x in every row; span(start, stop) computes a stretch of every
    row: it grows the one filled stretch [lo, hi) to hold it, so that the
    windows of a sweep over p, which overlap, compute each entry once."""

    __slots__ = ("rows", "values", "_entries", "_lo", "_hi")

    def __init__(self, size: int, *entries) -> None:
        self.rows = tuple([_UNSET * size for _ in entries])
        self.values, self._entries, self._lo, self._hi = self.rows[0], entries, 0, 0

    def __getitem__(self, x: int) -> float:
        value = self.values[x]
        if value != value:
            for row, entries in zip(self.rows, self._entries):
                row[x] = entries(x, x + 1)[0]
            value = self.values[x]
        return value

    def span(self, start: int, stop: int) -> None:
        """Computes the entries x = start..stop-1, start < stop."""
        lo, hi = (start, start) if self._lo == self._hi else (self._lo, self._hi)
        for row, entries in zip(self.rows, self._entries):
            if start < lo:
                row[start:lo] = array("d", entries(start, lo))
            if stop > hi:
                row[hi:stop] = array("d", entries(hi, stop))
        self._lo, self._hi = min(start, lo), max(stop, hi)


def _coeff_entries(
    n: int, log_n1: float, log_s: float, d_s: float, start: int, stop: int
) -> list[float]:
    """log C(n, x) = -log(n+1) - log B(x+1, n-x+1) for x = start..stop-1,
    from log_n1 = log(n+1), log_s = log(n+2) and d_s = delta(n+2); each
    log B also reads delta(x+1) and delta(n-x+1)."""
    return [
        -log_n1
        - _log_beta_with(
            x + 1, n - x + 1, log_s, _stirling_error(x + 1), _stirling_error(n - x + 1), d_s
        )
        for x in range(start, stop)
    ]


def _coeff_row(n: int) -> list[float] | _LazyRow:
    """The row log C(n, x), x = 0..n: a plain list when whole, else a
    _LazyRow that computes an entry the first time a window's terms or a
    mass read it."""
    entries = partial(_coeff_entries, n, math.log(n + 1), math.log(n + 2), _stirling_error(n + 2))
    return entries(0, n + 1) if n + 1 <= _WHOLE_ROW else _LazyRow(n + 1, entries)


# A whole row takes at most about 2.6 KB with its floats, so 256 are kept;
# a lazy row takes 8 bytes an entry, computed or not, 8 MB at n = 1e6, so
# only 8 of them are kept, as many as the long pmf windows
_whole_coeffs = lru_cache(maxsize=256)(_coeff_row)
_lazy_coeffs = lru_cache(maxsize=8)(_coeff_row)


def _log_binom_coeffs(n: int) -> list[float] | _LazyRow:
    """The row log C(n, x), x = 0..n, one per n, from the cache of its length."""
    return (_whole_coeffs if n + 1 <= _WHOLE_ROW else _lazy_coeffs)(n)


# math.exp is exactly 0.0 below about -745.13. Past the first exponent
# under this cutoff, 1 below -745.2, the log pmf only falls, and neither
# the rounding of the computed exponents nor the gap between them and the
# searched lgamma form (_log_pmf), both far below the 1.07 of margin, can
# lift one back
_EXP_CUTOFF = -746.2

# The core window keeps the x whose pmf exponent lies within _DEPTH of the
# mode's: about ±11 standard deviations, where the exact window runs to ±38
_DEPTH = 64.0


# Each ratio r of the tail bound is inflated by this factor, which covers
# its few roundings (under 5e-16 relative)
_RATIO_SLACK = 1.0 + 2.0**-40


def _log_pmf(n: int, log_p: float, log_q: float, x: int) -> float:
    """The pmf exponent at x in lgamma form, lgamma(n+1) - lgamma(x+1) -
    lgamma(n-x+1) + x log_p + (n-x) log_q, which reads no row: within
    4e-9 of the exponent _exp_terms computes from log C(n, x) for n up to
    MAX_TRIALS (seeded x), far inside the 1 of the tail bound and the 1.07
    between _EXP_CUTOFF and exp's zero."""
    lgamma = math.lgamma
    return lgamma(n + 1) - lgamma(x + 1) - lgamma(n - x + 1) + x * log_p + (n - x) * log_q


def _window_edge(row: tuple, inner: int, end: int, floor: float) -> int:
    """The last x from inner toward end whose pmf exponent, in lgamma form,
    is not under floor, inner's not being under it, by bisection: the log
    pmf is unimodal, so along the way the test flips once. row is (n,
    coeffs, log_p, log_q), as for _exp_terms; no entry of coeffs is read."""
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


def _exp_terms(row: tuple, start: int, stop: int) -> tuple[float, ...]:
    """exp(coeffs[x] + x log_p + (n-x) log_q), x = start..stop-1, for row =
    (n, coeffs, log_p, log_q); x and n-x are floats, exact below 2^53. A
    lazy row computes the stretch first."""
    n, coeffs, log_p, log_q = row
    if coeffs.__class__ is _LazyRow:
        if start < stop:
            coeffs.span(start, stop)
        coeffs = coeffs.values
    m, terms = float(n), zip(coeffs[start:stop], count(float(start)))
    return tuple([math.exp(c + x * log_p + (m - x) * log_q) for c, x in terms])


def _tail_ratio(ratio: float) -> float:
    """1/(1 - r) for the pmf ratio r just past one edge of the core, inflated
    for rounding; inf where r is not under 1, where no bound holds."""
    r = ratio * _RATIO_SLACK
    return 1.0 / (1.0 - r) if r < 1.0 else math.inf


class PmfWindows:
    """The two pmf windows of one (n, p), which share their terms; built by
    pmf_windows.

    exact() holds C(n,x) p^x (1-p)^(n-x), in log space, wherever it is
    not exactly 0.0: the log pmf is unimodal, so the window runs from the
    mode out to the last exponent not under _EXP_CUTOFF on either side.
    core is the part of it whose exponents lie within _DEPTH of the
    exponent at the mode, and tail bounds the sum of every term core
    leaves out (0.0 when it leaves none). The edges of both windows and
    the exponent at the mode are searched in lgamma form (_log_pmf), so a
    search reads no entry of the coefficient row and only the terms
    computed fill it. Past an edge the log pmf is concave, so the terms
    fall at least as fast as the pmf ratio r just past it: (n-x)/(x+1) p/q
    for the first x right of the core, x/(n-x+1) q/p for the first x left
    of it. The first term left out lies under e^(peak - _DEPTH), so a
    side's terms sum to at most e^(peak - _DEPTH + 1)/(1 - r), where the 1
    covers the rounding of the computed exponents and their gap to the
    lgamma form, both far below 1; where r is not under 1, tail is inf and
    the sum runs over the exact window. Each window is a pair (start,
    terms) for x = start, start+1, ...; core is built with the entry, and
    exact() searches its edges and extends core on its first call, so no
    term is exponentiated twice.
    """

    __slots__ = ("core", "tail", "_exact", "_rest", "_logs")

    def exact(self) -> tuple[int, tuple[float, ...]]:
        if self._exact is None:
            row, core_start, core = self._rest, *self.core
            core_stop = core_start + len(core)
            start = _window_edge(row, core_start, 0, _EXP_CUTOFF)
            stop = _window_edge(row, core_stop - 1, row[0], _EXP_CUTOFF) + 1
            left = _exp_terms(row, start, core_start)
            right = _exp_terms(row, core_stop, stop)
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
    row = n, _log_binom_coeffs(n), log_p, log_q
    mode = min(int((n + 1) * p), n)
    floor = _log_pmf(n, log_p, log_q, mode) - _DEPTH
    core_start = _window_edge(row, mode, 0, floor)
    core_stop = _window_edge(row, mode, n, floor) + 1
    windows.core = core_start, _exp_terms(row, core_start, core_stop)
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

