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
(a scale near 1e154 at order 2) is inf, never an error.

One series cache computes every moment: ``_Ticks`` holds the lag-free
series of a block of windows, one window per row (a single window is a
block of one), each divided by its window mean on first use, and
``_Units`` adds the lagged prices of one return lag.  Each moment is one
reduction over the last axis, and each window's scales are restored with
Python ``float ** int``, so a sweep is byte-identical to its windows
computed one at a time.  ``moment_reports`` runs its blocks of windows
through the cache; the public moment functions, the dispersions and the
volatilities are views of a block of one; the correlations read the same
cache for one window and for a block of shifted windows alike.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptySeries, NonFinite, OrderExceedsWindow, OrderTooLarge
from .reportio import columns, pairs
from .tape import LagSpec, ResolvedWindow, WindowSpec, resolve

#: Default cap on moment orders; higher orders warn but still compute.
DEFAULT_ORDER_CAP = 8

#: Ticks per field that moment_reports and correlations.pair_sweep hold in
#: one block of windows.
BLOCK_ELEMENTS = 2**14

RATIO = "ratio"
CONVENTIONAL = "conventional"
LOG = "log"


def check_order(n, count=None, order_cap=DEFAULT_ORDER_CAP):
    """Validate a moment order: n >= 1, warn above the cap or window size."""
    n = int(n)
    if n < 1:
        raise ValueError(f"moment order must be >= 1, got {n}")
    if n > order_cap:
        warnings.warn(
            f"moment order {n} exceeds cap {order_cap}; result is computed anyway",
            OrderTooLarge,
            stacklevel=3,
        )
    if count is not None and n > count:
        warnings.warn(
            f"moment order {n} exceeds window size {count}; "
            "the estimate is statistically meaningless",
            OrderExceedsWindow,
            stacklevel=3,
        )
    return n


def freq_moment(xs, n, order_cap=DEFAULT_ORDER_CAP):
    """Frequency-based n-th moment (1/N) sum x_i^n of a series."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        raise EmptySeries("cannot take a moment of an empty series")
    if not np.isfinite(xs).all():
        raise NonFinite("series contains non-finite entries")
    n = check_order(n, count=xs.size, order_cap=order_cap)
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


def _block_rows(count):
    # Windows of count ticks in one block of about BLOCK_ELEMENTS ticks per field
    return max(1, BLOCK_ELEMENTS // count)


def _power(s, n):
    # s**n, or inf where Python's float ** int overflows, as numpy's power does
    try:
        return s**n
    except OverflowError:
        return math.copysign(math.inf, s) if n % 2 else math.inf


def _scaled(scales, xs, n):
    # scale**n * x of each window: the scales go back in with Python
    # float ** int, as numpy's array power rounds differently and output
    # must not depend on how windows are batched
    return [_power(s, n) * x for s, x in zip(scales, xs.tolist())]


def _unit_series(series):
    # A cached attribute: (window means, x / mean) of x = series(cache), the
    # means as a list of floats, one per row
    def unit(cache):
        x = series(cache)
        s = np.mean(x, axis=-1)
        return s.tolist(), x / s[..., None]
    return cached_property(unit)


class _Ticks:
    """The lag-free tape series of a block of windows, one window per row
    (``(1, N)`` for a single window), each divided by its window mean on
    first use.

    Cross expectations and frequency moments read the cached series; the
    price moments divide prices by the VWAP and weight by powers of the
    volume series.  Moments are lists, one float per window; orders are
    taken unchecked.
    """

    value = _unit_series(lambda x: x.c)
    volume = _unit_series(lambda x: x.u)
    price = _unit_series(lambda x: x.p)

    def __init__(self, p, u, c):
        self.p, self.u, self.c = p, u, c
        self._powers = {}

    @classmethod
    def of(cls, window: ResolvedWindow):
        return cls(*(x[None] for x in (window.prices, window.volumes, window.values)))

    @cached_property
    def vwap(self):
        v = _weighted(self.p, self.u)
        return v.tolist(), v[..., None]

    def volume_powers(self, n):
        # (U/Ubar)^n of each window and its sums, kept per order
        if n not in self._powers:
            un = self.volume[1] ** n
            self._powers[n] = un, np.sum(un, axis=-1)
        return self._powers[n]

    def value_moment(self, n):
        s, a = self.value
        return _scaled(s, np.mean(a**n, axis=-1), n)

    def volume_moment(self, n):
        un, su = self.volume_powers(n)
        return _scaled(self.volume[0], su / un.shape[-1], n)

    def price_moment(self, n):
        (v, va), (un, su) = self.vwap, self.volume_powers(n)
        return _scaled(v, np.sum((self.p / va) ** n * un, axis=-1) / su, n)


class _Units:
    """A ``_Ticks`` block at one return lag: the adjusted series and the
    adjusted and return moments of its lagged prices ``pl``.  Every
    lag-free attribute is the ticks', so two lags of the same windows
    divide those series once."""

    adjvalue = _unit_series(lambda x: x.pl * x.u)
    adjprice = _unit_series(lambda x: x.pl)

    def __init__(self, ticks: _Ticks, pl):
        self.ticks, self.pl = ticks, pl

    def __getattr__(self, name):
        return getattr(self.ticks, name)

    @classmethod
    def of(cls, window: ResolvedWindow, lag_l, ticks=None):
        """One window at lag lag_l (history checked), on the given ticks
        of the same window or on its own."""
        return cls(ticks or _Ticks.of(window), window.lagged_prices(lag_l)[None])

    def adjusted_moments(self, n):
        (v, va), (un, su) = self.vwap, self.volume_powers(n)
        s = np.sum((self.pl / va) ** n * un, axis=-1)
        return (_scaled([a * b for a, b in zip(v, self.volume[0])], s / un.shape[-1], n),
                _scaled(v, s / su, n))

    def return_moment(self, n):
        # r(t,tau;n) of each window, weighted by C_a^n; it needs no scale
        return _weighted((self.p / self.pl) ** n, self.adjvalue[1] ** n).tolist()

    def moments(self, top):
        """The order 1..top moment tuples (C, U, p, C_a, p_a, r) of each
        window."""
        by_order = [zip(self.value_moment(n), self.volume_moment(n), self.price_moment(n),
                        *self.adjusted_moments(n), self.return_moment(n))
                    for n in range(1, top + 1)]
        return [tuple(zip(*orders)) for orders in zip(*by_order)]


def price_moment(window: ResolvedWindow, n, order_cap=DEFAULT_ORDER_CAP):
    """Market-based n-th price moment sum p^n U^n / sum U^n (VWAP at n=1)."""
    n = check_order(n, count=window.count, order_cap=order_cap)
    [p] = _Ticks.of(window).price_moment(n)
    return p


def adjusted_moments(window: ResolvedWindow, lag_l, n, order_cap=DEFAULT_ORDER_CAP):
    """Adjusted-value and adjusted-price n-th moments.

    Returns (C_a(t,tau;n), p_a(t,tau;n)) where

        C_a(t,tau;n) = (1/N) sum (p_{i-l} U_i)^n
        p_a(t,tau;n) = sum p_{i-l}^n U_i^n / sum U_i^n

    and C_a(t,tau;n) = p_a(t,tau;n) U(t;n) holds identically.
    """
    n = check_order(n, count=window.count, order_cap=order_cap)
    [ca], [pa] = _Units.of(window, lag_l).adjusted_moments(n)
    return ca, pa


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


def return_moment(window: ResolvedWindow, lag_l, n, order_cap=DEFAULT_ORDER_CAP):
    """Market-based n-th return moment, weighted by adjusted values.

    r(t,tau;n) = sum r_i^n C_a_i^n / sum C_a_i^n; n = 1 is VaWAR.
    """
    n = check_order(n, count=window.count, order_cap=order_cap)
    [r] = _Units.of(window, lag_l).return_moment(n)
    return r


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

    @classmethod
    def of(cls, c, u, p, ca, pa):
        """Dispersions from order-1 and order-2 moment tuples."""
        return cls(*(x[1] - x[0] * x[0] for x in (c, ca, u, p, pa)))

    def astuple(self):
        return (self.sigma_C2, self.sigma_Ca2, self.sigma_U2, self.sigma_p2, self.sigma_pa2)


def _sigmas(c, u, p, ca, pa, r):
    # The six dispersions, in _SIGMAS order, from order-1 and order-2 moment tuples
    return (*Dispersions.of(c, u, p, ca, pa).astuple(), r[1] - r[0] * r[0])


def dispersions(window: ResolvedWindow, lag_l) -> Dispersions:
    """Dispersions of values, adjusted values, volumes, and (market-based)
    prices and adjusted prices over the window."""
    [moments] = _Units.of(window, lag_l).moments(2)
    return Dispersions.of(*moments[:5])


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


def return_volatility(window: ResolvedWindow, lag_l) -> ReturnVolatility:
    """sigma_r^2(t, tau) three ways.

    via_moments:  r(t,tau;2) - r(t,tau;1)^2
    via_values:   [sigma_C^2 Ca1^2 - sigma_Ca^2 C1^2] / [Ca1^2 Ca2]
    via_prices:   [sigma_p^2 pa1^2 - sigma_pa^2 p1^2] / [pa1^2 pa2]
    """
    [(c, u, p, ca, pa, r)] = _Units.of(window, lag_l).moments(2)
    s_c, s_ca, _, s_p, s_pa, s_r = _sigmas(c, u, p, ca, pa, r)
    (c1, _), (p1, _), (ca1, ca2), (pa1, pa2) = c, p, ca, pa
    return ReturnVolatility(
        via_moments=s_r,
        via_values=(s_c * ca1 * ca1 - s_ca * c1 * c1) / (ca1 * ca1 * ca2),
        via_prices=(s_p * pa1 * pa1 - s_pa * p1 * p1) / (pa1 * pa1 * pa2),
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

    def csv_row(self):
        return (self.window_start, self.window_count, self.lag_l, self.order_max,
                *self.value_moments, *self.volume_moments, *self.price_moments,
                *self.adj_value_moments, *self.adj_price_moments, *self.return_moments,
                self.sigma_C2, self.sigma_Ca2, self.sigma_U2, self.sigma_p2, self.sigma_pa2,
                self.sigma_r2)


def moment_reports(tape, window: WindowSpec, lag_l, order_max=2, stride=0,
                   order_cap=DEFAULT_ORDER_CAP):
    """Reports of the window and of every later window ``stride`` ticks on
    that fits in the tape (the window alone when ``stride`` is 0).

    Raises what :func:`vawar.tape.resolve` raises for the first window.
    Windows are computed in blocks of about ``BLOCK_ELEMENTS`` ticks.
    """
    if stride < 0:
        raise ValueError(f"stride must be >= 0, got {stride}")
    resolve(tape, window, LagSpec(lag_l=lag_l))
    count, first = window.count, window.start
    order_max = check_order(order_max, count=count, order_cap=order_cap)
    top = max(order_max, 2)  # the dispersions need order 2
    step = stride or len(tape)  # one step past the end: the first window only
    fields = [sliding_window_view(x, count)[lo::step] for x, lo in (
        (tape.prices, first), (tape.volumes, first), (tape.values, first),
        (tape.prices, first - lag_l))]
    total = len(fields[0])
    block = _block_rows(count)
    reports = []
    for lo in range(0, total, block):
        hi = min(lo + block, total)
        # numpy sums pairwise only along the fast axis in memory; in these
        # copies that is each window's own row, as for a window alone
        *ticks, pl = (np.ascontiguousarray(f[lo:hi]) for f in fields)
        for k, (c, u, p, ca, pa, r) in enumerate(_Units(_Ticks(*ticks), pl).moments(top), lo):
            reports.append(MomentReport(
                first + k * stride, count, int(lag_l), order_max,
                c[:order_max], u[:order_max], p[:order_max], ca[:order_max],
                pa[:order_max], r[:order_max],
                *_sigmas(c, u, p, ca, pa, r),
            ))
    return reports


def moment_report(
    window: ResolvedWindow, lag_l, order_max=2, order_cap=DEFAULT_ORDER_CAP
) -> MomentReport:
    """Compute every order-1..order_max statistic of the window."""
    spec = WindowSpec(window.start, window.count)
    [report] = moment_reports(window.tape, spec, lag_l, order_max, 0, order_cap)
    return report
