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
orders or for extreme trade sizes.

One kernel takes these power sums for every order over the last axis, so
it serves one window ``(N,)`` and a block of windows ``(B, N)`` alike;
dispersions and volatilities are views of it.  Each window is summed on
its own and its scales restored with Python ``float ** int``, so a sweep
is byte-identical to its windows computed one at a time.  The
single-order price and adjusted moments are views of a per-window cache
(``_Units``) that holds each tape series divided by its window mean; the
correlations read the same cache, one per window of a pair.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptySeries, NonFinite, OrderExceedsWindow, OrderTooLarge
from .tape import LagSpec, ResolvedWindow, WindowSpec, resolve

#: Default cap on moment orders; higher orders warn but still compute.
DEFAULT_ORDER_CAP = 8

#: Ticks per field that moment_reports holds in one block of windows.
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
    return scale**n * float(np.mean((xs / scale) ** n))


def _weighted(x, w):
    # sum x w / sum w of each window
    return np.sum(x * w, axis=-1) / np.sum(w, axis=-1)


def _return_weights(p, pl, u):
    # Returns p_i / p_{i-l} and adjusted values C_a,i over their window mean.
    ca = pl * u
    return p / pl, ca / np.mean(ca, axis=-1)[..., None]


def adjusted_value_series(window: ResolvedWindow, lag_l):
    """Adjusted values C_a(t_i, tau) = p(t_i - tau) U(t_i) over the window."""
    return window.lagged_prices(lag_l) * window.volumes


def _unit_series(series):
    # A _Units attribute: (window mean, x / mean) of x = series(window, lag_l),
    # computed on first use and kept
    def unit(units):
        x = series(units.window, units.lag_l)
        s = float(np.mean(x))
        return s, x / s
    return cached_property(unit)


class _Units:
    """One window's tape series, each divided by its window mean once.

    Cross expectations and frequency moments read the cached series; the
    price and adjusted moments divide prices by the VWAP and weight by the
    volume series.  Orders are taken unchecked.
    """

    value = _unit_series(lambda w, _: w.values)
    adjvalue = _unit_series(adjusted_value_series)
    volume = _unit_series(lambda w, _: w.volumes)
    price = _unit_series(lambda w, _: w.prices)
    adjprice = _unit_series(ResolvedWindow.lagged_prices)

    def __init__(self, window: ResolvedWindow, lag_l):
        self.window, self.lag_l = window, lag_l

    @cached_property
    def vwap(self):
        return float(_weighted(self.window.prices, self.window.volumes))

    def freq_moment(self, series, n):
        s, a = getattr(self, series)
        return s**n * float(np.mean(a**n))

    def price_moment(self, n):
        v = self.vwap
        return v**n * float(_weighted((self.window.prices / v) ** n, self.volume[1] ** n))

    def adjusted_moments(self, n):
        v, (ub, us) = self.vwap, self.volume
        un = us**n
        s = np.sum((self.window.lagged_prices(self.lag_l) / v) ** n * un)
        return (v * ub) ** n * float(s / us.size), v**n * float(s / np.sum(un))


def price_moment(window: ResolvedWindow, n, order_cap=DEFAULT_ORDER_CAP):
    """Market-based n-th price moment sum p^n U^n / sum U^n (VWAP at n=1)."""
    n = check_order(n, count=window.count, order_cap=order_cap)
    return _Units(window, window.lag_l).price_moment(n)


def adjusted_moments(window: ResolvedWindow, lag_l, n, order_cap=DEFAULT_ORDER_CAP):
    """Adjusted-value and adjusted-price n-th moments.

    Returns (C_a(t,tau;n), p_a(t,tau;n)) where

        C_a(t,tau;n) = (1/N) sum (p_{i-l} U_i)^n
        p_a(t,tau;n) = sum p_{i-l}^n U_i^n / sum U_i^n

    and C_a(t,tau;n) = p_a(t,tau;n) U(t;n) holds identically.
    """
    n = check_order(n, count=window.count, order_cap=order_cap)
    return _Units(window, lag_l).adjusted_moments(n)


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
    r, w = _return_weights(window.prices, window.lagged_prices(lag_l), window.volumes)
    return float(_weighted(r**n, w**n))


def _unit_moments(p, u, c, pl, top):
    """Orders 1..top of every moment family of each window, scales divided out.

    Takes prices, volumes, values and lagged prices of one window (1-D) or
    of a block of windows (2-D, one per row).  Returns the scales (mean
    value Cbar, VWAP v, mean volume Ubar) and six arrays of shape
    (..., top): the means of (C/Cbar)^n and (U/Ubar)^n, the
    (U/Ubar)^n-weighted mean of (p/v)^n, the plain and weighted means of
    (p_lag/v)^n, and r(t,tau;n), which needs no scale.
    """
    count = p.shape[-1]
    sc = np.mean(c, axis=-1)  # values are > 0, so this is freq_moment's scale
    v, ub = _weighted(p, u), np.mean(u, axis=-1)  # VWAP and mean volume
    cs, ps, us, pls = (x / s[..., None] for x, s in ((c, sc), (p, v), (u, ub), (pl, v)))
    r, w = _return_weights(p, pl, u)
    rows = []
    for n in range(1, top + 1):
        un = us**n
        su = np.sum(un, axis=-1)
        sa = np.sum(pls**n * un, axis=-1)
        rows.append((np.mean(cs**n, axis=-1), su / count, np.sum(ps**n * un, axis=-1) / su,
                     sa / count, sa / su, _weighted(r**n, w**n)))
    return (sc, v, ub), [np.stack(family, axis=-1) for family in zip(*rows)]


def _restore(sc, v, ub, c, u, p, ca, pa, r):
    """Moment tuples (C, U, p, C_a, p_a, r) of one window from its unit moments.

    The scales go back in with Python float ** int: numpy's array power
    rounds differently, and output must not depend on how windows are
    batched.
    """
    orders = range(1, len(r) + 1)
    return (
        tuple(sc**n * x for n, x in zip(orders, c)),
        tuple(ub**n * x for n, x in zip(orders, u)),
        tuple(v**n * x for n, x in zip(orders, p)),
        tuple((v * ub) ** n * x for n, x in zip(orders, ca)),
        tuple(v**n * x for n, x in zip(orders, pa)),
        tuple(r),
    )


def _window_moments(window: ResolvedWindow, lag_l, top):
    # Order 1..top moment tuples of one window.
    scales, unit = _unit_moments(window.prices, window.volumes, window.values,
                                 window.lagged_prices(lag_l), top)
    return _restore(*(a.tolist() for a in (*scales, *unit)))


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
    return Dispersions.of(*_window_moments(window, lag_l, 2)[:5])


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
    c, u, p, ca, pa, r = _window_moments(window, lag_l, 2)
    s_c, s_ca, _, s_p, s_pa, s_r = _sigmas(c, u, p, ca, pa, r)
    (c1, _), (p1, _), (ca1, ca2), (pa1, pa2) = c, p, ca, pa
    return ReturnVolatility(
        via_moments=s_r,
        via_values=(s_c * ca1 * ca1 - s_ca * c1 * c1) / (ca1 * ca1 * ca2),
        via_prices=(s_p * pa1 * pa1 - s_pa * p1 * p1) / (pa1 * pa1 * pa2),
    )


_FAMILIES = ("C", "U", "p", "Ca", "pa", "r")
_SIGMAS = ("sigma_C2", "sigma_Ca2", "sigma_U2", "sigma_p2", "sigma_pa2", "sigma_r2")


@dataclass(frozen=True)
class MomentReport:
    """All order-1..m statistics of one window plus its dispersions.

    Moment tuples are indexed by order - 1.  Serializes to a flat JSON
    object (``to_dict``) and to one CSV row per window (``csv_row``).
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

    def _parts(self):
        # header fields, moment tuples and sigmas, in output order
        head = {"window_start": self.window_start, "window_count": self.window_count,
                "lag": self.lag_l, "order_max": self.order_max}
        moments = (self.value_moments, self.volume_moments, self.price_moments,
                   self.adj_value_moments, self.adj_price_moments, self.return_moments)
        return head, moments, [getattr(self, k) for k in _SIGMAS]

    def to_dict(self):
        head, moments, sigmas = self._parts()
        head.update((f"{k}_n", list(m)) for k, m in zip(_FAMILIES, moments))
        head.update(zip(_SIGMAS, sigmas))
        return head

    @staticmethod
    def csv_header(order_max):
        cols = ["window_start", "window_count", "lag", "order_max"]
        for key in _FAMILIES:
            cols += [f"{key}_{n}" for n in range(1, order_max + 1)]
        return cols + list(_SIGMAS)

    def csv_row(self):
        head, moments, sigmas = self._parts()
        return [*head.values(), *(x for m in moments for x in m), *sigmas]


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
    block = max(1, BLOCK_ELEMENTS // count)
    reports = []
    for lo in range(0, total, block):
        hi = min(lo + block, total)
        # numpy sums pairwise only along the fast axis in memory; in these
        # copies that is each window's own row, as for a window alone
        scales, unit = _unit_moments(*(np.ascontiguousarray(f[lo:hi]) for f in fields), top)
        for k, sums in enumerate(zip(*(a.tolist() for a in (*scales, *unit))), lo):
            c, u, p, ca, pa, r = _restore(*sums)
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
