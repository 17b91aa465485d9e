"""Cross-window expectations and correlations of returns, volumes and prices.

A pair of equal-size windows (the second shifted back by lambda =
epsilon * j, elementwise pairing t_i <-> t_i - lambda) drives every
estimator here.  Product expectations of values, adjusted values and
volumes are frequency-based means; product expectations of prices and
adjusted prices are volume-weighted in the same fashion as VWAP:

    p(t;t2)  = sum p_i p_{i,2} U_i U_{i,2} / sum U_i U_{i,2}.

Correlations are covariance-like: a product expectation minus the
product of the matching first-order expectations.  They are NOT
normalized to [-1, 1]; normalized variants are provided separately as an
extension (see ``CorrelationReport.normalized``).

The estimators deliberately mix weighting schemes exactly as defined:
return and price expectations are weighted, value/volume expectations
are frequency-based, even when both appear in one formula.

A pair builds one series cache per window (``PairedWindows.units``) on
first use: each tape series and its window mean, shared by every
estimator of the pair.  One formula (``_cross``) takes every cross
expectation from the two caches, and the first-order moments come from
the same caches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import MismatchedWindows
from .moments import DEFAULT_ORDER_CAP, _sigmas, _Units, _window_moments, check_order
from .tape import (
    LagSpec,
    ResolvedWindow,
    TradeTape,
    WindowSpec,
    require_history,
    resolve,
)

VALUE_VALUE = "value_value"
ADJVALUE_ADJVALUE = "adjvalue_adjvalue"
VOLUME_VOLUME = "volume_volume"
PRICE_PRICE = "price_price"
ADJPRICE_ADJPRICE = "adjprice_adjprice"
VALUE_VOLUME = "value_volume"
ADJVALUE_VOLUME = "adjvalue_volume"

FREQUENCY_KINDS = (
    VALUE_VALUE,
    ADJVALUE_ADJVALUE,
    VOLUME_VOLUME,
    VALUE_VOLUME,
    ADJVALUE_VOLUME,
)
MARKET_KINDS = (PRICE_PRICE, ADJPRICE_ADJPRICE)


@dataclass(frozen=True)
class PairedWindows:
    """Two equal-size resolved windows paired elementwise.

    window2 starts shift_j ticks before window1 (lambda = epsilon * j,
    j >= 0); each carries its own return lag.  Windows of different
    sizes are rejected rather than truncated.
    """

    window1: ResolvedWindow
    window2: ResolvedWindow

    def __post_init__(self):
        w1, w2 = self.window1, self.window2
        if w1.tape is not w2.tape:
            raise MismatchedWindows("paired windows must come from the same tape")
        if w1.count != w2.count:
            raise MismatchedWindows(
                f"paired windows must have equal size, got {w1.count} and {w2.count}"
            )
        if w1.start < w2.start:
            raise MismatchedWindows(
                "window2 must not start after window1 (pair shift lambda >= 0)"
            )

    @property
    def shift_j(self):
        return self.window1.start - self.window2.start

    @property
    def count(self):
        return self.window1.count

    @cached_property
    def units(self):
        """Series caches of window1 and window2, each at its own lag."""
        return tuple(_Units(w, w.lag_l) for w in (self.window1, self.window2))


def pair_windows(
    tape: TradeTape, window: WindowSpec, lag1, lag2=None, shift_j=0
) -> PairedWindows:
    """Resolve a window and its shifted twin into a pair.

    window1 starts at window.start with return lag lag1; window2 starts
    shift_j ticks earlier with return lag lag2 (defaults to lag1).
    """
    if lag2 is None:
        lag2 = lag1
    w1 = resolve(tape, window, LagSpec(lag_l=lag1))
    w2 = resolve(
        tape,
        WindowSpec(start=window.start - shift_j, count=window.count),
        LagSpec(lag_l=lag2),
    )
    return PairedWindows(window1=w1, window2=w2)


def _relag(window: ResolvedWindow, lag_l) -> ResolvedWindow:
    # The window's ticks with return lag lag_l, its history checked
    w = ResolvedWindow(window.tape, window.start, window.count, int(lag_l))
    require_history(w, w.lag_l)
    return w


def self_pair(window: ResolvedWindow, lag2=None) -> PairedWindows:
    """Pair a window with itself (lambda = 0), optionally with a second lag."""
    return PairedWindows(window, _relag(window, window.lag_l if lag2 is None else lag2))


def paired_expectation(kind, pair: PairedWindows, degrees=(1, 1),
                       order_cap=DEFAULT_ORDER_CAP):
    """Cross expectation of two window series raised to (n, m).

    Frequency-based kinds return (1/N) sum a_i^n b_{i,2}^m; the
    market-based kinds weight price products by the matching powers of
    the volume product:

        sum p_1^n p_2^m U_1^n U_2^m / sum U_1^n U_2^m.
    """
    n, m = (check_order(d, count=pair.count, order_cap=order_cap) for d in degrees)
    if kind not in FREQUENCY_KINDS + MARKET_KINDS:
        raise ValueError(f"unknown paired-expectation kind {kind!r}")
    return _cross(kind, *pair.units, n, m)


def _cross(kind, x1, x2, n=1, m=1):
    # paired_expectation of window caches x1, x2, degrees unchecked; the
    # kind names the cached series of each leg
    leg1, leg2 = kind.split("_")
    (s1, a), (s2, b) = getattr(x1, leg1), getattr(x2, leg2)
    if kind in MARKET_KINDS:
        un = x1.volume[1] ** n * x2.volume[1] ** m
        return s1**n * s2**m * float(np.sum(a**n * b**m * un) / np.sum(un))
    return s1**n * s2**m * float(np.mean(a**n * b**m))


@dataclass(frozen=True)
class ReturnAutocorr:
    """Return autocorrelation by its defining route and two closed forms."""

    definitional: float
    value_form: float
    price_form: float

    @property
    def value(self):
        return self.definitional


def return_autocorr(pair: PairedWindows) -> ReturnAutocorr:
    """corr_r(t,tau | t2,tau2) = E[r r2] - E[r] E[r2].

    The product expectation is the adjusted-value weighted mean, equal to
    the ratio of cross value expectations; the value form rewrites the
    correlation through corr_C and corr_Ca, the price form through
    corr_p and corr_pa.  All three agree in exact arithmetic; for a
    self-pair the result reduces to sigma_r^2(t, tau).
    """
    x1, x2 = pair.units
    cross_c = _cross(VALUE_VALUE, x1, x2)
    cross_ca = _cross(ADJVALUE_ADJVALUE, x1, x2)
    c1 = x1.freq_moment("value", 1)
    c2 = x2.freq_moment("value", 1)
    ca1, pa1 = x1.adjusted_moments(1)
    ca2, pa2 = x2.adjusted_moments(1)
    r1 = c1 / ca1
    r2 = c2 / ca2
    definitional = cross_c / cross_ca - r1 * r2

    corr_c = cross_c - c1 * c2
    corr_ca = cross_ca - ca1 * ca2
    value_form = (corr_c - r1 * r2 * corr_ca) / cross_ca

    p1 = x1.price_moment(1)
    p2 = x2.price_moment(1)
    cross_p = _cross(PRICE_PRICE, x1, x2)
    cross_pa = _cross(ADJPRICE_ADJPRICE, x1, x2)
    corr_p = cross_p - p1 * p2
    corr_pa = cross_pa - pa1 * pa2
    price_form = (pa1 * pa2 * corr_p - p1 * p2 * corr_pa) / (cross_pa * pa1 * pa2)

    return ReturnAutocorr(
        definitional=definitional, value_form=value_form, price_form=price_form
    )


@dataclass(frozen=True)
class TwoLagAutocorr:
    """Same-window correlation of returns at two lags: the exact value,
    the no-adjusted-value-correlation approximation, and their gap."""

    exact: float
    approximation: float
    residual: float


def same_day_two_lag_autocorr(window: ResolvedWindow, lag1, lag2) -> TwoLagAutocorr:
    """corr_r(t,tau | t,tau2) for one window with lags lag1 and lag2.

    ``exact`` is the closed form with corr_Ca retained; ``approximation``
    drops corr_Ca, leaving sigma_C^2 / [Ca(t,tau;1) Ca(t,tau2;1)];
    ``residual`` is exact - approximation, the part attributable to
    correlated adjusted values.
    """
    x1, x2 = self_pair(_relag(window, lag1), lag2).units
    cross_c = _cross(VALUE_VALUE, x1, x2)
    cross_ca = _cross(ADJVALUE_ADJVALUE, x1, x2)
    c1 = x1.freq_moment("value", 1)
    ca1, _ = x1.adjusted_moments(1)
    ca2, _ = x2.adjusted_moments(1)
    sigma_c2 = cross_c - c1 * c1
    corr_ca = cross_ca - ca1 * ca2
    r1 = c1 / ca1
    r2 = c1 / ca2
    exact = (sigma_c2 - r1 * r2 * corr_ca) / cross_ca
    approximation = sigma_c2 / (ca1 * ca2)
    return TwoLagAutocorr(
        exact=exact, approximation=approximation, residual=exact - approximation
    )


@dataclass(frozen=True)
class ReturnVolumeCorr:
    """Return-volume correlation by its defining route and two closed
    forms (dividing corr_CU by Ca(t,tau;1) or by pa(t,tau;1) U(t;1))."""

    definitional: float
    closed_form: float
    closed_form_prices: float

    @property
    def value(self):
        return self.definitional


def return_volume_corr(pair: PairedWindows) -> ReturnVolumeCorr:
    """corr_rU(t,tau | t2) = E[r U2] - E[r] E[U2].

    E[r U2] weights each return by its adjusted value; the closed form is
    corr_CU(t | t2) / Ca(t,tau;1), equal to corr_CU / [pa(t,tau;1)
    U(t;1)].  Only window1's lag enters.
    """
    x1, x2 = pair.units
    cu = _cross(VALUE_VOLUME, x1, x2)
    c1 = x1.freq_moment("value", 1)
    u1 = x1.freq_moment("volume", 1)
    u2 = x2.freq_moment("volume", 1)
    ca1, pa1 = x1.adjusted_moments(1)
    r1 = c1 / ca1
    corr_cu = cu - c1 * u2
    definitional = cu / ca1 - r1 * u2
    return ReturnVolumeCorr(
        definitional=definitional,
        closed_form=corr_cu / ca1,
        closed_form_prices=corr_cu / (pa1 * u1),
    )


@dataclass(frozen=True)
class ReturnPriceCorr:
    """Degree-(n, m) return-price correlation, defining route and closed
    form."""

    definitional: float
    closed_form: float
    degree_n: int
    degree_m: int

    @property
    def value(self):
        return self.definitional


def return_price_corr(pair: PairedWindows, n=1, m=1,
                      order_cap=DEFAULT_ORDER_CAP) -> ReturnPriceCorr:
    """corr_rp(t,tau;n | t2;m) = E[r^n p2^m] - r(t,tau;n) p(t2;m).

    E[r^n p2^m] is weighted by C_a^n U2^m and equals the ratio of the
    value cross expectation to the C_a^n U2^m expectation; the closed
    form rewrites the correlation through corr_C and corr_CaU.  Each order
    condition of n and m warns once.
    """
    n = check_order(n, count=pair.count, order_cap=order_cap)
    m = check_order(m, count=pair.count, order_cap=order_cap)
    x1, x2 = pair.units
    cnm = _cross(VALUE_VALUE, x1, x2, n, m)
    cau = _cross(ADJVALUE_VOLUME, x1, x2, n, m)
    c_n = x1.freq_moment("value", n)
    ca_n, _ = x1.adjusted_moments(n)
    r_n = c_n / ca_n
    c_m, u_m = x2.freq_moment("value", m), x2.freq_moment("volume", m)
    p_m = c_m / u_m
    definitional = cnm / cau - r_n * p_m
    corr_c = cnm - c_n * c_m
    corr_cau = cau - ca_n * u_m
    closed_form = (corr_c - r_n * p_m * corr_cau) / cau
    return ReturnPriceCorr(
        definitional=definitional, closed_form=closed_form, degree_n=n, degree_m=m
    )


@dataclass(frozen=True)
class AdjPriceVolumeSqCorr:
    """Mixed-degree correlation of lagged price with squared volume."""

    direct: float
    identity_form: float

    @property
    def value(self):
        return self.direct


def adjprice_volume_sq_corr(window: ResolvedWindow, lag_l) -> AdjPriceVolumeSqCorr:
    """corr(p(t_i - tau), U^2(t_i)) over one window.

    Direct route: (1/N) sum p_{i-l} U_i^2 - pa(t,tau;1) U(t;2).  Identity
    route: corr_CaU(t,tau | t) - pa(t,tau;1) sigma_U^2(t).  Equal in
    exact arithmetic.
    """
    x1, x2 = self_pair(_relag(window, lag_l)).units
    cau = _cross(ADJVALUE_VOLUME, x1, x2)
    ca1, pa1 = x1.adjusted_moments(1)
    u1 = x1.freq_moment("volume", 1)
    u2 = x1.freq_moment("volume", 2)
    direct = cau - pa1 * u2
    corr_cau = cau - ca1 * u1
    sigma_u2 = u2 - u1 * u1
    identity_form = corr_cau - pa1 * sigma_u2
    return AdjPriceVolumeSqCorr(direct=direct, identity_form=identity_form)


@dataclass(frozen=True)
class CorrelationReport:
    """All degree-(1,1) cross expectations and correlations of a pair.

    ``normalized`` is an extension beyond the covariance-like
    correlations: each entry is divided by the square root of the product
    of the matching dispersions and is NaN when that product is not
    positive (market-based price dispersions may be negative).
    """

    window1_start: int
    window2_start: int
    count: int
    lag1: int
    lag2: int
    shift_j: int
    cross_value: float
    cross_adj_value: float
    cross_volume: float
    cross_price: float
    cross_adj_price: float
    cross_return: float
    corr_C: float
    corr_Ca: float
    corr_U: float
    corr_p: float
    corr_pa: float
    corr_r: float
    corr_rU: float
    corr_rp: float
    corr_CaU: float
    normalized: dict

    def to_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["normalized"] = dict(sorted(self.normalized.items()))
        return out


#: The correlations that ``normalized`` divides by their dispersions.
_NORMALIZED = ("corr_C", "corr_Ca", "corr_U", "corr_p", "corr_pa", "corr_r")


def _normalize(corr, var1, var2):
    if var1 <= 0 or var2 <= 0:
        return math.nan
    return corr / math.sqrt(var1 * var2)


def correlation_report(pair: PairedWindows) -> CorrelationReport:
    """Assemble every cross expectation and correlation of the pair."""
    w1, w2 = pair.window1, pair.window2
    x1, x2 = pair.units
    cross_c = _cross(VALUE_VALUE, x1, x2)
    cross_ca = _cross(ADJVALUE_ADJVALUE, x1, x2)
    cross_u = _cross(VOLUME_VOLUME, x1, x2)
    cross_p = _cross(PRICE_PRICE, x1, x2)
    cross_pa = _cross(ADJPRICE_ADJPRICE, x1, x2)
    cau = _cross(ADJVALUE_VOLUME, x1, x2)

    c1, c2 = x1.freq_moment("value", 1), x2.freq_moment("value", 1)
    u1, u2 = x1.freq_moment("volume", 1), x2.freq_moment("volume", 1)
    p1, p2 = x1.price_moment(1), x2.price_moment(1)
    ca1, pa1 = x1.adjusted_moments(1)
    ca2, pa2 = x2.adjusted_moments(1)
    corrs = dict(zip(_NORMALIZED, (
        cross_c - c1 * c2, cross_ca - ca1 * ca2, cross_u - u1 * u2, cross_p - p1 * p2,
        cross_pa - pa1 * pa2, return_autocorr(pair).definitional)))
    # each window's dispersions, matching _NORMALIZED, from one kernel call
    s1, s2 = (_sigmas(*_window_moments(w, w.lag_l, 2)) for w in (w1, w2))
    return CorrelationReport(
        window1_start=w1.start,
        window2_start=w2.start,
        count=pair.count,
        lag1=w1.lag_l,
        lag2=w2.lag_l,
        shift_j=pair.shift_j,
        cross_value=cross_c,
        cross_adj_value=cross_ca,
        cross_volume=cross_u,
        cross_price=cross_p,
        cross_adj_price=cross_pa,
        cross_return=cross_c / cross_ca,
        **corrs,
        corr_rU=return_volume_corr(pair).definitional,
        corr_rp=return_price_corr(pair).definitional,
        corr_CaU=cau - ca1 * u2,
        normalized={k: _normalize(c, a, b) for (k, c), a, b in zip(corrs.items(), s1, s2)},
    )
