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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import MismatchedWindows
from .moments import (
    DEFAULT_ORDER_CAP,
    _adjusted_moments,
    _freq_moment,
    adjusted_moments,
    check_order,
    dispersions,
    freq_moment,
    price_moment,
    return_volatility,
)
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


def pair_windows(
    tape: TradeTape, window: WindowSpec, lag1, lag2=None, shift_j=0
) -> PairedWindows:
    """Resolve a window and its shifted twin into a pair.

    window1 starts at window.start with return lag lag1; window2 starts
    shift_j ticks earlier with return lag lag2 (defaults to lag1).
    """
    if lag2 is None:
        lag2 = lag1
    w1 = resolve(tape, window, LagSpec(lag_l=lag1, window_shift_j=shift_j))
    w2 = resolve(
        tape,
        WindowSpec(start=window.start - shift_j, count=window.count),
        LagSpec(lag_l=lag2),
    )
    return PairedWindows(window1=w1, window2=w2)


def self_pair(window: ResolvedWindow, lag2=None) -> PairedWindows:
    """Pair a window with itself (lambda = 0), optionally with a second lag."""
    w2 = ResolvedWindow(
        tape=window.tape,
        start=window.start,
        count=window.count,
        lag_l=window.lag_l if lag2 is None else int(lag2),
    )
    require_history(w2, w2.lag_l)
    return PairedWindows(window1=window, window2=w2)


def _norm(x):
    s = float(np.mean(x))
    return s, x / s


def _leg_series(window: ResolvedWindow, leg):
    if leg == "value":
        return window.values
    if leg == "adjvalue":
        return window.lagged_prices() * window.volumes
    if leg == "volume":
        return window.volumes
    raise ValueError(f"unknown leg {leg!r}")


def paired_expectation(kind, pair: PairedWindows, degrees=(1, 1),
                       order_cap=DEFAULT_ORDER_CAP):
    """Cross expectation of two window series raised to (n, m).

    Frequency-based kinds return (1/N) sum a_i^n b_{i,2}^m; the
    market-based kinds weight price products by the matching powers of
    the volume product:

        sum p_1^n p_2^m U_1^n U_2^m / sum U_1^n U_2^m.
    """
    n, m = (check_order(d, count=pair.count, order_cap=order_cap) for d in degrees)
    return _paired_expectation(kind, pair, n, m)


def _paired_expectation(kind, pair: PairedWindows, n, m):
    # paired_expectation with the degrees unchecked
    w1, w2 = pair.window1, pair.window2
    if kind in FREQUENCY_KINDS:
        leg1, leg2 = kind.split("_")
        s1, a = _norm(_leg_series(w1, leg1))
        s2, b = _norm(_leg_series(w2, leg2))
        return s1**n * s2**m * float(np.mean(a**n * b**m))
    if kind in MARKET_KINDS:
        p1 = w1.lagged_prices() if kind == ADJPRICE_ADJPRICE else w1.prices
        p2 = w2.lagged_prices() if kind == ADJPRICE_ADJPRICE else w2.prices
        s1, a = _norm(p1)
        s2, b = _norm(p2)
        _, u1 = _norm(w1.volumes)
        _, u2 = _norm(w2.volumes)
        un = u1**n * u2**m
        return s1**n * s2**m * float(np.sum(a**n * b**m * un) / np.sum(un))
    raise ValueError(f"unknown paired-expectation kind {kind!r}")


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
    w1, w2 = pair.window1, pair.window2
    cross_c = paired_expectation(VALUE_VALUE, pair)
    cross_ca = paired_expectation(ADJVALUE_ADJVALUE, pair)
    c1 = freq_moment(w1.values, 1)
    c2 = freq_moment(w2.values, 1)
    ca1, pa1 = adjusted_moments(w1, w1.lag_l, 1)
    ca2, pa2 = adjusted_moments(w2, w2.lag_l, 1)
    r1 = c1 / ca1
    r2 = c2 / ca2
    definitional = cross_c / cross_ca - r1 * r2

    corr_c = cross_c - c1 * c2
    corr_ca = cross_ca - ca1 * ca2
    value_form = (corr_c - r1 * r2 * corr_ca) / cross_ca

    p1 = price_moment(w1, 1)
    p2 = price_moment(w2, 1)
    cross_p = paired_expectation(PRICE_PRICE, pair)
    cross_pa = paired_expectation(ADJPRICE_ADJPRICE, pair)
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
    w1 = ResolvedWindow(window.tape, window.start, window.count, int(lag1))
    require_history(w1, w1.lag_l)
    pair = self_pair(w1, lag2=int(lag2))
    w2 = pair.window2
    cross_c = paired_expectation(VALUE_VALUE, pair)
    cross_ca = paired_expectation(ADJVALUE_ADJVALUE, pair)
    c1 = freq_moment(w1.values, 1)
    ca1, _ = adjusted_moments(w1, w1.lag_l, 1)
    ca2, _ = adjusted_moments(w2, w2.lag_l, 1)
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
    w1, w2 = pair.window1, pair.window2
    cu = paired_expectation(VALUE_VOLUME, pair)
    c1 = freq_moment(w1.values, 1)
    u1 = freq_moment(w1.volumes, 1)
    u2 = freq_moment(w2.volumes, 1)
    ca1, pa1 = adjusted_moments(w1, w1.lag_l, 1)
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
    w1, w2 = pair.window1, pair.window2
    cnm = _paired_expectation(VALUE_VALUE, pair, n, m)
    cau = _paired_expectation(ADJVALUE_VOLUME, pair, n, m)
    c_n = _freq_moment(w1.values, n)
    ca_n, _ = _adjusted_moments(w1, w1.lag_l, n)
    r_n = c_n / ca_n
    c_m, u_m = _freq_moment(w2.values, m), _freq_moment(w2.volumes, m)
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
    w1 = ResolvedWindow(window.tape, window.start, window.count, int(lag_l))
    require_history(w1, w1.lag_l)
    pair = self_pair(w1)
    cau = paired_expectation(ADJVALUE_VOLUME, pair)
    ca1, pa1 = adjusted_moments(w1, lag_l, 1)
    u1 = freq_moment(w1.volumes, 1)
    u2 = freq_moment(w1.volumes, 2)
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


def _normalize(corr, var1, var2):
    if var1 <= 0 or var2 <= 0:
        return math.nan
    return corr / math.sqrt(var1 * var2)


def correlation_report(pair: PairedWindows) -> CorrelationReport:
    """Assemble every cross expectation and correlation of the pair."""
    w1, w2 = pair.window1, pair.window2
    cross_c = paired_expectation(VALUE_VALUE, pair)
    cross_ca = paired_expectation(ADJVALUE_ADJVALUE, pair)
    cross_u = paired_expectation(VOLUME_VOLUME, pair)
    cross_p = paired_expectation(PRICE_PRICE, pair)
    cross_pa = paired_expectation(ADJPRICE_ADJPRICE, pair)
    cross_r = cross_c / cross_ca
    cau = paired_expectation(ADJVALUE_VOLUME, pair)

    c1, c2 = freq_moment(w1.values, 1), freq_moment(w2.values, 1)
    u1, u2 = freq_moment(w1.volumes, 1), freq_moment(w2.volumes, 1)
    p1, p2 = price_moment(w1, 1), price_moment(w2, 1)
    ca1, pa1 = adjusted_moments(w1, w1.lag_l, 1)
    ca2, pa2 = adjusted_moments(w2, w2.lag_l, 1)
    d1 = dispersions(w1, w1.lag_l)
    d2 = dispersions(w2, w2.lag_l)
    s_r1 = return_volatility(w1, w1.lag_l).via_moments
    s_r2 = return_volatility(w2, w2.lag_l).via_moments

    corr_r = return_autocorr(pair).definitional
    normalized = {
        "corr_C": _normalize(cross_c - c1 * c2, d1.sigma_C2, d2.sigma_C2),
        "corr_Ca": _normalize(cross_ca - ca1 * ca2, d1.sigma_Ca2, d2.sigma_Ca2),
        "corr_U": _normalize(cross_u - u1 * u2, d1.sigma_U2, d2.sigma_U2),
        "corr_p": _normalize(cross_p - p1 * p2, d1.sigma_p2, d2.sigma_p2),
        "corr_pa": _normalize(cross_pa - pa1 * pa2, d1.sigma_pa2, d2.sigma_pa2),
        "corr_r": _normalize(corr_r, s_r1, s_r2),
    }
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
        cross_return=cross_r,
        corr_C=cross_c - c1 * c2,
        corr_Ca=cross_ca - ca1 * ca2,
        corr_U=cross_u - u1 * u2,
        corr_p=cross_p - p1 * p2,
        corr_pa=cross_pa - pa1 * pa2,
        corr_r=corr_r,
        corr_rU=return_volume_corr(pair).definitional,
        corr_rp=return_price_corr(pair).definitional,
        corr_CaU=cau - ca1 * u2,
        normalized=normalized,
    )
