"""Single-window statistics of a trade tape.

Two families of estimators live here.  Frequency-based moments are plain
arithmetic means of n-th powers over the window,

    C(t;n) = (1/N) sum C_i^n,      U(t;n) = (1/N) sum U_i^n.

Market-based price moments weight prices by the n-th power of volume,
generalizing VWAP,

    p(t;n) = sum p_i^n U_i^n / sum U_i^n = C(t;n) / U(t;n),

and return moments weight n-th powers of the price ratio r_i = p_i /
p_{i-l} by n-th powers of the adjusted value C_a(t_i) = p_{i-l} U_i,

    r(t,tau;n) = sum r_i^n C_a_i^n / sum C_a_i^n
               = C(t;n) / C_a(t,tau;n) = p(t;n) / p_a(t,tau;n).

The n = 1 return moment is the value weighted average return (VaWAR),
matching portfolio-style weighting of per-trade returns by trade value.

Numerical conditioning: prices are divided by the window VWAP and
volumes by the mean volume before powers are taken, and the scales are
restored afterwards.  The rescaling is exact in real arithmetic (see the
scale-invariance properties in the tests) and prevents overflow at high
orders or for extreme trade sizes.  A moment that overflows all the same
(a scale near 1e154 at order 2) is inf, never an error or a numpy warning.

One series cache computes every moment and every cross expectation:
``_Series`` holds the tape series of a block of windows, one window per
row (a single window is a block of one), at one return lag, each divided
by its window mean on first use.  Each moment is one reduction over the
last axis, and so is each cross expectation of one window's cache with
the block's (``_Series.cross``, which ``correlations`` reads); each
window's scales are restored with Python ``float ** int``, so a sweep is
byte-identical to its windows computed one at a time.  ``_Series.blocks``
cuts every sweep's windows from the tape, one contiguous row each: the
strided windows of a ``stats`` sweep and the shifted twins of
``correlations.pair_sweep``.  ``moment_blocks`` checks a sweep, then
gives its rows in the report layout as an iterator of float64 blocks of
whole kernel blocks and at least ``BLOCK_ROWS`` rows, computed as they
are taken: ``stats`` hands them to the writer in either format, and
``moment_reports`` reads the same blocks as ``MomentReport``s.  The public
moment functions, the dispersions and the volatilities are views of a
block of one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptySeries, NonFinite, OrderExceedsWindow, OrderTooLarge
from .reportio import _CHUNK, columns, pairs
from .tape import LagSpec, ResolvedWindow, WindowSpec, integral, require_history, resolve

#: Cap on moment orders: higher orders warn (``OrderTooLarge``, which a
#: warning filter can silence) but still compute.
ORDER_CAP = 8

#: Ticks per field in one block of windows that ``_Series.blocks`` yields.
BLOCK_ELEMENTS = 2**14

#: Rows at least in one block of ``moment_blocks``: one run of the writer.
BLOCK_ROWS = _CHUNK

RATIO = "ratio"
CONVENTIONAL = "conventional"
LOG = "log"


def check_order(n, count=None, stacklevel=3):
    """A moment order n >= 1 as an int; warn above the cap or window size.
    The warnings name the frame ``stacklevel`` up (3: the caller of the
    function that checks)."""
    n = integral("moment order", n, 1)
    if n > ORDER_CAP:
        warnings.warn(
            f"moment order {n} exceeds cap {ORDER_CAP}; result is computed anyway",
            OrderTooLarge,
            stacklevel=stacklevel,
        )
    if count is not None and n > count:
        warnings.warn(
            f"moment order {n} exceeds window size {count}; "
            "the estimate is statistically meaningless",
            OrderExceedsWindow,
            stacklevel=stacklevel,
        )
    return n


def freq_moment(xs, n):
    """Frequency-based n-th moment (1/N) sum x_i^n of a series."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        raise EmptySeries("cannot take a moment of an empty series")
    if not np.isfinite(xs).all():
        raise NonFinite("series contains non-finite entries")
    n = check_order(n, count=xs.size)
    scale = float(np.mean(np.abs(xs)))  # |x|: return series may be signed
    if scale == 0.0:
        return 0.0
    return _power(scale, n) * float(np.mean((xs / scale) ** n))


def _weighted(x, w):
    # sum x w / sum w of each window
    return np.sum(x * w, axis=-1) / np.sum(w, axis=-1)


def adjusted_value_series(window: ResolvedWindow, lag_l):
    """Adjusted values C_a(t_i, tau) = p(t_i - tau) U(t_i) over the window."""
    return window.lagged_prices(lag_l) * window.volumes


# The kernels' and estimators' array arithmetic, as a decorator: an overflow
# is inf (written as null), inf * 0 is NaN and x / 0 is inf or NaN, with no
# numpy RuntimeWarning.
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _power(s, n):
    # s**n, or inf where Python's float ** int overflows, as numpy's power does
    try:
        return s**n
    except OverflowError:
        return math.copysign(math.inf, s) if n % 2 else math.inf


def _restored(scales, n):
    # scale**n of each window, with Python float ** int: numpy's array power
    # rounds differently, and output must not depend on how windows are
    # batched
    return np.array([_power(s, n) for s in scales])


def _scaled(scales, xs, n):
    # scale**n * x of each window
    return _restored(scales, n) * xs


def _pow(x, n):
    # x**n, and x itself at n = 1, where numpy's power would copy x
    return x if n == 1 else x**n


def _unit_series(series):
    # A cached attribute: (window means, x / mean) of x = series(cache), the
    # means as a list of floats, one per row
    def unit(cache):
        x = series(cache)
        s = np.mean(x, axis=-1)
        return s.tolist(), x / s[..., None]
    return cached_property(unit)


class _Series:
    """The tape series of a block of windows, one window per row (``(1, N)``
    for a single window), at one return lag: prices ``p``, volumes ``u``,
    values ``c`` and lagged prices ``pl``, each divided by its window mean
    on first use.

    Cross expectations and frequency moments read the cached series; the
    price moments divide prices by the VWAP and weight by powers of the
    volume series.  Moments are float64 arrays, one entry per window;
    orders are taken unchecked.
    """

    value = _unit_series(lambda x: x.c)
    volume = _unit_series(lambda x: x.u)
    price = _unit_series(lambda x: x.p)
    adjvalue = _unit_series(lambda x: x.pl * x.u)
    adjprice = _unit_series(lambda x: x.pl)

    def __init__(self, p, u, c, pl):
        self.p, self.u, self.c, self.pl = p, u, c, pl
        self._powers = {}
        self._vwap_powers = {}
        self._crosses = {}

    @classmethod
    def of(cls, window: ResolvedWindow, lag_l=None):
        """One window as a block of one, at return lag lag_l: the window's
        own by default, else checked by ``lagged_prices``."""
        return cls(*(x[None] for x in (window.prices, window.volumes, window.values,
                                       window.lagged_prices(lag_l))))

    @classmethod
    def blocks(cls, tape, starts, count, lag_l):
        """The windows of count ticks at the tape indices ``starts``, at
        return lag lag_l, as blocks of about ``BLOCK_ELEMENTS`` ticks per
        field; the windows and their history are taken unchecked."""
        p, u, c = (sliding_window_view(x, count) for x in (tape.prices, tape.volumes, tape.values))
        step = max(1, BLOCK_ELEMENTS // count)
        for lo in range(0, len(starts), step):
            s = starts[lo:lo + step]
            # Indexing copies each window into its own contiguous row, which
            # numpy sums pairwise as it sums a window alone
            yield cls(p[s], u[s], c[s], p[s - lag_l])

    @cached_property
    def vwap(self):
        v = _weighted(self.p, self.u)
        return v.tolist(), v[..., None]

    # The ratios of each window's series, computed once for every order
    @cached_property
    def unit_price(self):
        return self.p / self.vwap[1]

    @cached_property
    def unit_adjprice(self):
        return self.pl / self.vwap[1]

    @cached_property
    def returns(self):
        return self.p / self.pl

    def volume_powers(self, n):
        # (U/Ubar)^n of each window and its sums, kept per order
        if n not in self._powers:
            un = _pow(self.volume[1], n)
            self._powers[n] = un, np.sum(un, axis=-1)
        return self._powers[n]

    def cross(self, kind, other, n=1, m=1):
        """The cross expectations of one kind at degrees (n, m) of the one
        window of ``other`` paired elementwise with each window of this
        block, evaluated on first use and kept per (kind, other, n, m): an
        array, one entry per window of this block.

        A kind names the two series, ``other``'s first: the frequency kinds
        are (1/N) sum a^n b^m, and the price kinds ``price_price`` and
        ``adjprice_adjprice`` weight each product by U1^n U^m,
        sum a^n b^m U1^n U^m / sum U1^n U^m.
        """
        key = kind, other, n, m
        if key not in self._crosses:
            self._crosses[key] = self._cross(*key)
        return self._crosses[key]

    @_quiet
    def _cross(self, kind, other, n, m):
        # cross, evaluated.  Kind "weights" is the price kinds' shared
        # weights (U1/U1bar)^n (U/Ubar)^m and their sums.
        if kind == "weights":
            w = _pow(other.volume[1], n) * _pow(self.volume[1], m)
            return w, np.sum(w, axis=-1)
        leg1, leg2 = kind.split("_")
        ([s1], a), (s2, b) = getattr(other, leg1), getattr(self, leg2)
        if leg2.endswith("price"):
            w, sw = self.cross("weights", other, n, m)
            e = np.sum(_pow(a, n) * _pow(b, m) * w, axis=-1) / sw
        else:
            e = np.mean(_pow(a, n) * _pow(b, m), axis=-1)
        return _power(s1, n) * _restored(s2, m) * e

    def vwap_power(self, n):
        # VWAP^n of each window, kept per order
        if n not in self._vwap_powers:
            self._vwap_powers[n] = _restored(self.vwap[0], n)
        return self._vwap_powers[n]

    @_quiet
    def value_moment(self, n):
        s, a = self.value
        return _scaled(s, np.mean(_pow(a, n), axis=-1), n)

    @_quiet
    def volume_moment(self, n):
        un, su = self.volume_powers(n)
        return _scaled(self.volume[0], su / un.shape[-1], n)

    @_quiet
    def price_moment(self, n):
        un, su = self.volume_powers(n)
        return self.vwap_power(n) * (np.sum(_pow(self.unit_price, n) * un, axis=-1) / su)

    @_quiet
    def adjusted_moments(self, n):
        # (C_a, p_a) of each window, as the rows of one array
        un, su = self.volume_powers(n)
        s = np.sum(_pow(self.unit_adjprice, n) * un, axis=-1)
        return np.array((_scaled([a * b for a, b in zip(self.vwap[0], self.volume[0])],
                                 s / un.shape[-1], n),
                         self.vwap_power(n) * (s / su)))

    @_quiet
    def return_moment(self, n):
        # r(t,tau;n) of each window, weighted by C_a^n; it needs no scale
        return _weighted(_pow(self.returns, n), _pow(self.adjvalue[1], n))

    def moments(self, top):
        """The order 1..top moments of each window, as a ``(windows, 6,
        top)`` array: the families C, U, p, C_a, p_a, r, by order."""
        return np.array([(self.value_moment(n), self.volume_moment(n), self.price_moment(n),
                          *self.adjusted_moments(n), self.return_moment(n))
                         for n in range(1, top + 1)]).transpose(2, 1, 0)


def price_moment(window: ResolvedWindow, n):
    """Market-based n-th price moment sum p^n U^n / sum U^n (VWAP at n=1)."""
    n = check_order(n, count=window.count)
    return _Series.of(window).price_moment(n).item()


def adjusted_moments(window: ResolvedWindow, lag_l, n):
    """Adjusted-value and adjusted-price n-th moments.

    Returns (C_a(t,tau;n), p_a(t,tau;n)) where

        C_a(t,tau;n) = (1/N) sum (p_{i-l} U_i)^n
        p_a(t,tau;n) = sum p_{i-l}^n U_i^n / sum U_i^n

    and C_a(t,tau;n) = p_a(t,tau;n) U(t;n) holds identically.
    """
    n = check_order(n, count=window.count)
    return tuple(_Series.of(window, lag_l).adjusted_moments(n)[:, 0].tolist())


def return_series(window: ResolvedWindow, lag_l, form=RATIO):
    """Per-tick returns over the window for lag tau = epsilon * lag_l.

    ``ratio`` gives p_i / p_{i-l}, ``conventional`` subtracts 1, and
    ``log`` gives ln p_i - ln p_{i-l}.
    """
    lagged = window.lagged_prices(lag_l)
    ratio = window.prices / lagged
    if form == RATIO:
        return ratio
    if form == CONVENTIONAL:
        return ratio - 1.0
    if form == LOG:
        return np.log(window.prices) - np.log(lagged)
    raise ValueError(f"unknown return form {form!r}")


def return_moment(window: ResolvedWindow, lag_l, n):
    """Market-based n-th return moment, weighted by adjusted values.

    r(t,tau;n) = sum r_i^n C_a_i^n / sum C_a_i^n; n = 1 is VaWAR.
    """
    n = check_order(n, count=window.count)
    return _Series.of(window, lag_l).return_moment(n).item()


@dataclass(frozen=True)
class Dispersions:
    """Second-minus-squared-first central dispersions of one window.

    The price dispersions use the market-based moments, whose volume
    weights differ between orders 1 and 2; they are reported raw and may
    legitimately be negative.
    """

    sigma_C2: float
    sigma_Ca2: float
    sigma_U2: float
    sigma_p2: float
    sigma_pa2: float

    def astuple(self):
        return (self.sigma_C2, self.sigma_Ca2, self.sigma_U2, self.sigma_p2, self.sigma_pa2)


@_quiet
def _sigmas(m):
    # The six dispersions x_2 - x_1 x_1, in _SIGMAS order, of moments m of
    # shape (..., 6, top >= 2) in _FAMILIES order
    return (m[..., 1] - m[..., 0] * m[..., 0])[..., [0, 3, 1, 2, 4, 5]]


def dispersions(window: ResolvedWindow, lag_l) -> Dispersions:
    """Dispersions of values, adjusted values, volumes, and (market-based)
    prices and adjusted prices over the window."""
    [sigmas] = _sigmas(_Series.of(window, lag_l).moments(2)).tolist()
    return Dispersions(*sigmas[:5])


@dataclass(frozen=True)
class ReturnVolatility:
    """Return volatility computed by three algebraically equal routes:
    from return moments, from value dispersions, and from price
    dispersions."""

    via_moments: float
    via_values: float
    via_prices: float

    @property
    def value(self):
        return self.via_moments


@_quiet
def return_volatility(window: ResolvedWindow, lag_l) -> ReturnVolatility:
    """sigma_r^2(t, tau) three ways.

    via_moments:  r(t,tau;2) - r(t,tau;1)^2
    via_values:   [sigma_C^2 Ca1^2 - sigma_Ca^2 C1^2] / [Ca1^2 Ca2]
    via_prices:   [sigma_p^2 pa1^2 - sigma_pa^2 p1^2] / [pa1^2 pa2]
    """
    [m] = _Series.of(window, lag_l).moments(2)
    (c1, _), _, (p1, _), (ca1, ca2), (pa1, pa2), _ = m
    s_c, s_ca, _, s_p, s_pa, s_r = _sigmas(m)
    return ReturnVolatility(
        via_moments=float(s_r),
        via_values=float((s_c * ca1 * ca1 - s_ca * c1 * c1) / (ca1 * ca1 * ca2)),
        via_prices=float((s_p * pa1 * pa1 - s_pa * p1 * p1) / (pa1 * pa1 * pa2)),
    )


_HEAD = ("window_start", "window_count", "lag", "order_max")
_FAMILIES = ("C", "U", "p", "Ca", "pa", "r")
_SIGMAS = ("sigma_C2", "sigma_Ca2", "sigma_U2", "sigma_p2", "sigma_pa2", "sigma_r2")


@dataclass(frozen=True)
class MomentReport:
    """All order-1..m statistics of one window plus its dispersions.

    Moment tuples are indexed by order - 1.  ``csv_row`` is the report as
    one flat row of cells, which ``json_fields`` lays out as a JSON object
    (``to_dict``) with one list per moment family.
    """

    window_start: int
    window_count: int
    lag_l: int
    order_max: int
    value_moments: tuple
    volume_moments: tuple
    price_moments: tuple
    adj_value_moments: tuple
    adj_price_moments: tuple
    return_moments: tuple
    sigma_C2: float
    sigma_Ca2: float
    sigma_U2: float
    sigma_p2: float
    sigma_pa2: float
    sigma_r2: float

    @staticmethod
    def json_fields(order_max):
        """The JSON layout of ``csv_row``: the header keys, each moment
        family as a list of ``order_max`` values, and the sigmas."""
        return (*_HEAD, *((f"{k}_n", order_max) for k in _FAMILIES), *_SIGMAS)

    def to_dict(self):
        cells, doc = iter(self.csv_row()), {}
        for name, width in pairs(self.json_fields(self.order_max)):
            doc[name] = next(cells) if width is None else [next(cells) for _ in range(width)]
        return doc

    @staticmethod
    def csv_header(order_max):
        return columns(MomentReport.json_fields(order_max))

    @classmethod
    def from_row(cls, row):
        """The report of one ``csv_row`` of Python numbers, such as a row of
        a block of :func:`moment_blocks`; the header cells become ints."""
        start, count, lag_l, order_max = map(int, row[:4])
        ends = range(4, 4 + 7 * order_max, order_max)
        return cls(start, count, lag_l, order_max,
                   *(tuple(row[a:b]) for a, b in zip(ends, ends[1:])), *row[ends[-1]:])

    def csv_row(self):
        return (self.window_start, self.window_count, self.lag_l, self.order_max,
                *self.value_moments, *self.volume_moments, *self.price_moments,
                *self.adj_value_moments, *self.adj_price_moments, *self.return_moments,
                self.sigma_C2, self.sigma_Ca2, self.sigma_U2, self.sigma_p2, self.sigma_pa2,
                self.sigma_r2)


def _sweep(tape, window: WindowSpec, lag_l, order_max, stride):
    # The checks of a stats sweep, then an iterator of its blocks of rows.
    # Its order warnings name the caller of its caller.
    stride = integral("stride", stride, 0)
    lag_l = resolve(tape, window, LagSpec(lag_l=lag_l)).lag_l
    count, first = window.count, window.start
    order_max = check_order(order_max, count=count, stacklevel=4)
    # one step past the end when stride is 0: the first window only
    starts = np.arange(first, len(tape) - count + 1, stride or len(tape))
    return _row_blocks(tape, starts, count, lag_l, order_max)


def _row_blocks(tape, starts, count, lag_l, order_max):
    top = max(order_max, 2)  # the dispersions need order 2
    sigmas = 4 + len(_FAMILIES) * order_max  # the column of the first sigma
    # A block of rows is whole kernel blocks and at least BLOCK_ROWS rows,
    # so the kernel blocks run back to back and the writer allocates
    # between blocks of rows: between kernel blocks, it made glibc return
    # the heap top and fault it back in for every kernel block.
    windows = max(1, BLOCK_ELEMENTS // count)  # per kernel block
    step = -(-BLOCK_ROWS // windows) * windows
    for lo in range(0, len(starts), step):
        s = starts[lo:lo + step]
        rows = np.empty((len(s), sigmas + len(_SIGMAS)))
        rows[:, 0] = s
        rows[:, 1:4] = (count, lag_l, order_max)
        at = 0
        # x holds a block while the next is cut, so the allocator reuses
        # the memory of one block for the block after next: freed before
        # the next is cut, it is returned to the system and faulted back
        # in for every block.
        for x in _Series.blocks(tape, s, count, lag_l):
            m = x.moments(top)
            rows[at:at + len(m), 4:sigmas] = m[..., :order_max].reshape(len(m), -1)
            rows[at:at + len(m), sigmas:] = _sigmas(m)
            at += len(m)
        yield rows


def moment_blocks(tape, window: WindowSpec, lag_l, order_max=2, stride=0):
    """The windows of :func:`moment_reports` as an iterator of float64
    blocks of rows, one ``csv_row`` per window: the header cells (whole
    numbers), each moment family's orders 1..order_max, then the six
    sigmas.  Each block is whole kernel blocks (about ``BLOCK_ELEMENTS``
    ticks each) and at least ``BLOCK_ROWS`` rows but the last, computed as
    it is taken, so that no more than a block of rows is held.

    Every check runs before this returns: it raises what
    :func:`vawar.tape.resolve` raises for the first window, and warns of
    an order above the cap or the window size.
    """
    return _sweep(tape, window, lag_l, order_max, stride)


def moment_reports(tape, window: WindowSpec, lag_l, order_max=2, stride=0):
    """Reports of the window and of every later window ``stride`` ticks on
    that fits in the tape (the window alone when ``stride`` is 0): the rows
    of :func:`moment_blocks`."""
    blocks = _sweep(tape, window, lag_l, order_max, stride)
    return [MomentReport.from_row(row) for rows in blocks for row in rows.tolist()]


def moment_report(window: ResolvedWindow, lag_l, order_max=2) -> MomentReport:
    """Compute every order-1..order_max statistic of the window."""
    lag_l = require_history(window, lag_l)
    order_max = check_order(order_max, count=window.count)
    [rows] = _row_blocks(window.tape, np.array([window.start]), window.count, lag_l, order_max)
    return MomentReport.from_row(rows[0].tolist())
