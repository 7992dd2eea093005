"""Binomial model primitives: pmf windows.

pmf_windows(n, p) holds, in one cache entry, the exact window of (n, p),
every x whose pmf is not exactly 0.0, and its core window, the x whose
terms are at least e^-64 times the mode's, with a bound on the sum of the
terms the core leaves out. Each window ends where its own terms do: a row
of at most 64 terms is exponentiated whole from the row of log C(n, x),
one list per n, which the row pass and the predictive masses at small l
also read, and its 0.0 ends trimmed; a longer one keeps no row, and walks
one term at the mode, in Loader's form, out by the pmf ratio. An entry
read as the future pmf of the predictive KL risk also keeps the (y, f(y),
log f(y)) triples of its nonzero terms. Entries sit in two caches split
where rows stop being whole: up to 1,024 whole-row windows, which sweeps
revisit at the same few p, and 8 walked ones. The builder takes n >= 1
and p in (0, 1) as checked: every entry point that takes p checks it
once, with risk._check_p. A long estimate table keeps its two log rows
in one _LazyRow, and a long restricted table its difference pair in
another.

Also holds the two descriptors shared across the package, the
trial-count setup and the (possibly truncated) beta prior; the bases of
the records and the tables; and the count and shape checks that guard
every entry point taking raw values.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, count, islice
from operator import mul, neg, truediv

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
# small l read all of it; pmf_windows splits its two window caches, and
# estimators its two table caches, at the same length
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


# The core window keeps the terms at least e^-_DEPTH times the mode's: about
# ±11 standard deviations, where the exact window runs to ±38
_DEPTH = 64.0

# Each ratio r of the tail bound is inflated by this factor, which covers
# its few roundings (under 5e-16 relative)
_RATIO_SLACK = 1.0 + 2.0**-40

# The exact window's subnormal terms are walked at 2^64 times their size,
# normal down to 2^-1075, where they round to 0.0 when scaled back once
_LIFT = 2.0**64


def _exp_terms(n: int, log_p: float, log_q: float) -> tuple[float, ...]:
    """exp(log C(n, x) + x log_p + (n-x) log_q), x = 0..n, for n + 1 <=
    _WHOLE_ROW, from the whole row of log C(n, x); x and n-x are floats,
    exact below 2^53."""
    m, terms = float(n), zip(_log_binom_coeffs(n), count(0.0))
    return tuple([math.exp(c + x * log_p + (m - x) * log_q) for c, x in terms])


def _side(rest: tuple, w: float, x: int, end: int, size: int, floor: float, lift: float) -> tuple:
    """The terms from w, the term at x, toward end while they are not under
    floor, outward, and the pmf ratio into the first term left out (None
    where end is reached), for rest = (n, r, fix): walked at lift times
    their size, in a first stretch of size terms, then 64 at a time, by
    w(k+1)/w(k) = (n-k)/(k+1) r, r = p/q. r is rounded once, from p's
    integer ratio, and its relative error e would pile up (1.3e-16 a step
    at n = 1e5, p = 0.3), so the ratio at every k = 63 mod 64 also takes
    fix = 1 - 64 e, which leaves about 1e-18 a step: a term's bits depend
    on (n, p, x) alone. The terms fall outward from the mode, so bisect
    finds the edge inside the last stretch."""
    (n, r, fix), kept, w, up = rest, [], w * lift, end > x
    while x != end:
        lo = x if up else max(x - size, end)
        size = min(x + size, end) - x if up else x - lo
        steps = map(truediv, range(n - lo, n - lo - size, -1), range(lo + 1, lo + size + 1))
        ratios = [t * r for t in steps]
        k = (63 - lo) % 64
        ratios[k::64] = [v * fix for v in ratios[k::64]]
        if not up:
            ratios.reverse()
        lifted = list(islice(accumulate(ratios, mul if up else truediv, initial=w), 1, None))
        terms = lifted if lift == 1.0 else [t / lift for t in lifted]
        i = bisect(terms, -floor, key=neg)
        kept += terms[:i]
        if i < size:
            return kept, ratios[i] if up else 1.0 / ratios[i]
        x, w, size = x + size if up else lo, lifted[-1], 64
    return kept, None


def _side_to_zero(rest: tuple, w: float, x: int, end: int, size: int) -> list[float]:
    """The terms from w, the term at x, toward end up to the first 0.0: the
    normal ones, then the subnormal ones at _LIFT times their size. These
    fall by at least the ratio r into the first of them, so log(2^-53)/
    log(r) terms, 2 more, reach 2^-1075 times the last normal one."""
    terms, ratio = _side(rest, w, x, end, size, sys.float_info.min, 1.0)
    if ratio is None:
        return terms
    x, w = x + len(terms) if end > x else x - len(terms), terms[-1] if terms else w
    size = int(math.log(2.0**-53, ratio)) + 2
    return terms + _side(rest, w, x, end, size, math.ulp(0.0), _LIFT)[0]


def _reach(n: int, p: float, q: float, depth: float) -> tuple[int, int]:
    """The x the terms need, left and right of the mode, to fall to e^-depth
    of the mode's, 4 more: d^2/2 - g d^3/6 = depth, g = (q - p)/sd the
    skewness, gives d = sqrt(2 depth) ± g depth/3 standard deviations: 2 to
    18 terms past the core's edges over 400 seeded (n, p), and past the
    exact window's last normal terms."""
    reach, skew = math.sqrt(2.0 * depth * n * p * q), (q - p) * depth / 3.0
    return max(int(reach - skew), 0) + 4, max(int(reach + skew), 0) + 4


def _tail_ratio(ratio: float) -> float:
    """1/(1 - r) for the pmf ratio r into the first term past one edge of
    the core, inflated for rounding; inf where r is not under 1, where no
    bound holds."""
    r = ratio * _RATIO_SLACK
    return 1.0 / (1.0 - r) if r < 1.0 else math.inf


class PmfWindows:
    """The two pmf windows of one (n, p), which share their terms; built by
    pmf_windows.

    exact() holds C(n,x) p^x (1-p)^(n-x) wherever it is not exactly 0.0,
    and core the part of it at least e^-_DEPTH times the mode's term, each
    a pair (start, terms) for x = start, start+1, ...; tail bounds the sum
    of every term core leaves out. Up to _WHOLE_ROW terms both are the
    row's nonzero span (_exp_terms) and tail is 0.0. Above that the mode's
    term, in Loader's form, is walked out (_side) to the core's edges and,
    on exact()'s first call, on to the first 0.0. Past an edge the walked
    ratios only fall, and _RATIO_SLACK covers the fix and the roundings of
    each step, so a side's terms left out sum to at most the first one,
    under the floor e^-_DEPTH w(mode), over 1 - r, r the ratio into it
    (_tail_ratio): tail is e times the floor times that sum over the two
    sides, the e covering the terms under 2^-1022, each rounded by up to
    2^-1075 when scaled back. Where r is not under 1, tail is inf and the
    sums run over the exact window.
    """

    __slots__ = ("core", "tail", "_exact", "_rest", "_logs")

    def exact(self) -> tuple[int, tuple[float, ...]]:
        if self._exact is None:
            (rest, left_size, right_size), start, core = self._rest, *self.core
            left = _side_to_zero(rest, core[0], start, 0, left_size)
            right = _side_to_zero(rest, core[-1], start + len(core) - 1, rest[0], right_size)
            self._exact = start - len(left), (*reversed(left), *core, *right)
            self._rest = None
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
    windows._logs = None
    log_p, log_q, q = math.log(p), math.log1p(-p), 1.0 - p
    if n + 1 <= _WHOLE_ROW:
        terms = _exp_terms(n, log_p, log_q)
        held = [x for x, w in enumerate(terms) if w]
        windows.core = windows._exact = held[0], terms[held[0] : held[-1] + 1]
        windows.tail, windows._rest = 0.0, None
        return windows
    num, den = p.as_integer_ratio()
    den -= num
    r = num / den
    a, b = r.as_integer_ratio()
    rest = n, r, 1.0 + 64 * (num * b - a * den) / (a * den)
    mode = min(int((n + 1) * p), n)
    w = math.exp(_saddle_log_pmf(n, p, log_p, log_q, mode))
    floor = w * math.exp(-_DEPTH)
    reach = _reach(n, p, q, _DEPTH)
    left, left_ratio = _side(rest, w, mode, 0, reach[0], floor, 1.0)
    right, right_ratio = _side(rest, w, mode, n, reach[1], floor, 1.0)
    windows.core = mode - len(left), (*reversed(left), w, *right)
    bound = sum([_tail_ratio(v) for v in (left_ratio, right_ratio) if v is not None])
    windows.tail = floor * math.e * bound
    far = _reach(n, p, q, math.log(w / sys.float_info.min))  # to the last normal term
    windows._rest = rest, max(far[0] - len(left), 1), max(far[1] - len(right), 1)
    windows._exact = None if bound else windows.core
    return windows


# Sweeps revisit the same few p at many small n (the predictive acceptance
# sweep reads 900 windows). 1,024 whole-row windows take at most 2.4 MB at
# n = 63, or 8.8 MB with the (y, f, log f) triples of their terms
# (tracemalloc); a walked window takes about 32 bytes a term, 0.4 MB at
# n = 1e5, so only 8 of them are kept.
_short_windows = lru_cache(maxsize=1024)(_build_windows)
_long_windows = lru_cache(maxsize=8)(_build_windows)


def pmf_windows(n: int, p: float) -> PmfWindows:
    """The windows of (n, p), built once for every sum at that p. n >= 1 and
    0 < p < 1 are not checked: the callers have checked them."""
    return (_short_windows if n < _WHOLE_ROW else _long_windows)(n, p)
