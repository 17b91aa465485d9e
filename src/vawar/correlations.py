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
extension (see ``CorrelationReport.normalized``).  A correlation that
reads a non-finite moment or cross expectation (one that overflowed) is
NaN in every form.

The estimators deliberately mix weighting schemes exactly as defined:
return and price expectations are weighted, value/volume expectations
are frequency-based, even when both appear in one formula.

One pair kernel computes the estimators for a block of pairs that share
window1: window1's series cache (``moments._Units``, one row, built once
per sweep) against the caches of a block of window2s, one row per shift,
copied from the tape as contiguous ``(B, N)`` rows.  Every window2 mean,
cross expectation (``_Pairs.cross``) and moment is one reduction over the
last axis of the block; each estimator's arithmetic then runs per shift
on Python floats in its formula's order.  A sweep over shifts
(:func:`pair_sweep`) is therefore bit-identical to its pairs computed one
at a time, and the one-pair estimators are the kernel on a block of one
(``PairedWindows.units``).  Within a block each cross expectation is
evaluated once, however many estimators read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import MismatchedWindows
from .moments import DEFAULT_ORDER_CAP, _block_rows, _power, _sigmas, _Ticks, _Units, check_order
from .tape import LagSpec, ResolvedWindow, TradeTape, WindowSpec, require_history, resolve

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

#: The statistics pair_sweep computes: return_autocorr, return_volume_corr
#: and return_price_corr.
CORR_R = "corr_r"
CORR_RU = "corr_rU"
CORR_RP = "corr_rp"


def _cross(kind, x1: _Units, x2: _Units, n, m):
    # paired_expectation of window1's cache x1 with each window of the block
    # cache x2, degrees unchecked: a list of floats, one per window of x2
    leg1, leg2 = kind.split("_")
    ([s1], a), (s2, b) = getattr(x1, leg1), getattr(x2, leg2)
    if kind in MARKET_KINDS:
        un = x1.volume[1] ** n * x2.volume[1] ** m
        e = np.sum(a**n * b**m * un, axis=-1) / np.sum(un, axis=-1)
    else:
        e = np.mean(a**n * b**m, axis=-1)
    s1n = _power(s1, n)
    return [s1n * _power(s, m) * x for s, x in zip(s2, e.tolist())]


def _forms(reads, *forms):
    # an estimator's forms, each NaN when a moment or cross expectation it
    # reads is not finite: a ratio over an overflowed one would read as 0
    # or as a plausible finite number
    return forms if all(map(math.isfinite, reads)) else (math.nan,) * len(forms)


class _Pairs:
    """Window1's series cache ``x1`` paired with each window of a block
    cache ``x2``."""

    def __init__(self, x1: _Units, x2: _Units):
        self.x1, self.x2, self._crosses = x1, x2, {}

    def cross(self, kind, n=1, m=1):
        """The block's cross expectations of one kind and degrees, evaluated
        on first use: a list of floats, one per window of the block."""
        key = kind, n, m
        if key not in self._crosses:
            self._crosses[key] = _cross(kind, self.x1, self.x2, n, m)
        return self._crosses[key]


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
        """The pair as the kernel's block of one: window1's series cache
        and window2's, which shares window1's lag-free series when both
        hold the same ticks."""
        w1, w2 = self.window1, self.window2
        x1 = _Units.of(w1, w1.lag_l)
        return _Pairs(x1, _Units.of(w2, w2.lag_l, x1.ticks if w2.start == w1.start else None))


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
    return pair.units.cross(kind, n, m)[0]


@dataclass(frozen=True)
class ReturnAutocorr:
    """Return autocorrelation by its defining route and two closed forms."""

    definitional: float
    value_form: float
    price_form: float

    @property
    def value(self):
        return self.definitional


def _autocorr(x: _Pairs):
    # return_autocorr of each pair of the block
    x1, x2 = x.x1, x.x2
    [c1], ([ca1], [pa1]), [p1] = (x1.value_moment(1), x1.adjusted_moments(1),
                                  x1.price_moment(1))
    r1 = c1 / ca1
    out = []
    for cross_c, cross_ca, cross_p, cross_pa, c2, ca2, pa2, p2 in zip(
            x.cross(VALUE_VALUE), x.cross(ADJVALUE_ADJVALUE), x.cross(PRICE_PRICE),
            x.cross(ADJPRICE_ADJPRICE), x2.value_moment(1),
            *x2.adjusted_moments(1), x2.price_moment(1)):
        r2 = c2 / ca2
        corr_c = cross_c - c1 * c2
        corr_ca = cross_ca - ca1 * ca2
        corr_p = cross_p - p1 * p2
        corr_pa = cross_pa - pa1 * pa2
        out.append(ReturnAutocorr(*_forms(
            (c1, ca1, pa1, p1, cross_c, cross_ca, cross_p, cross_pa, c2, ca2, pa2, p2),
            cross_c / cross_ca - r1 * r2,
            (corr_c - r1 * r2 * corr_ca) / cross_ca,
            (pa1 * pa2 * corr_p - p1 * p2 * corr_pa) / (cross_pa * pa1 * pa2),
        )))
    return out


def return_autocorr(pair: PairedWindows) -> ReturnAutocorr:
    """corr_r(t,tau | t2,tau2) = E[r r2] - E[r] E[r2].

    The product expectation is the adjusted-value weighted mean, equal to
    the ratio of cross value expectations; the value form rewrites the
    correlation through corr_C and corr_Ca, the price form through
    corr_p and corr_pa.  All three agree in exact arithmetic; for a
    self-pair the result reduces to sigma_r^2(t, tau).
    """
    return _autocorr(pair.units)[0]


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
    x = self_pair(_relag(window, lag1), lag2).units
    [cross_c], [cross_ca] = x.cross(VALUE_VALUE), x.cross(ADJVALUE_ADJVALUE)
    [c1] = x.x1.value_moment(1)
    ([ca1], _), ([ca2], _) = x.x1.adjusted_moments(1), x.x2.adjusted_moments(1)
    sigma_c2 = cross_c - c1 * c1
    corr_ca = cross_ca - ca1 * ca2
    r1 = c1 / ca1
    r2 = c1 / ca2
    exact, approximation = _forms((cross_c, cross_ca, c1, ca1, ca2),
                                  (sigma_c2 - r1 * r2 * corr_ca) / cross_ca,
                                  sigma_c2 / (ca1 * ca2))
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


def _volume_corr(x: _Pairs):
    # return_volume_corr of each pair of the block
    x1 = x.x1
    [c1], [u1], ([ca1], [pa1]) = (x1.value_moment(1), x1.volume_moment(1),
                                  x1.adjusted_moments(1))
    r1 = c1 / ca1
    out = []
    for cu, u2 in zip(x.cross(VALUE_VOLUME), x.x2.volume_moment(1)):
        corr_cu = cu - c1 * u2
        out.append(ReturnVolumeCorr(*_forms(
            (c1, u1, ca1, pa1, cu, u2),
            cu / ca1 - r1 * u2,
            corr_cu / ca1,
            corr_cu / (pa1 * u1),
        )))
    return out


def return_volume_corr(pair: PairedWindows) -> ReturnVolumeCorr:
    """corr_rU(t,tau | t2) = E[r U2] - E[r] E[U2].

    E[r U2] weights each return by its adjusted value; the closed form is
    corr_CU(t | t2) / Ca(t,tau;1), equal to corr_CU / [pa(t,tau;1)
    U(t;1)].  Only window1's lag enters.
    """
    return _volume_corr(pair.units)[0]


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


def _price_corr(x: _Pairs, n, m):
    # return_price_corr of each pair of the block, degrees unchecked
    [c_n], ([ca_n], _) = x.x1.value_moment(n), x.x1.adjusted_moments(n)
    r_n = c_n / ca_n
    out = []
    for cnm, cau, c_m, u_m in zip(x.cross(VALUE_VALUE, n, m), x.cross(ADJVALUE_VOLUME, n, m),
                                  x.x2.value_moment(m), x.x2.volume_moment(m)):
        p_m = c_m / u_m
        corr_c = cnm - c_n * c_m
        corr_cau = cau - ca_n * u_m
        out.append(ReturnPriceCorr(*_forms(
            (c_n, ca_n, cnm, cau, c_m, u_m),
            cnm / cau - r_n * p_m,
            (corr_c - r_n * p_m * corr_cau) / cau,
        ), degree_n=n, degree_m=m))
    return out


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
    return _price_corr(pair.units, n, m)[0]


def pair_sweep(tape: TradeTape, window: WindowSpec, lag1, lag2, max_shift, stats, degrees):
    """The named statistics of the window (return lag lag1) paired with its
    twin j ticks earlier (return lag lag2), j = 0..max_shift.

    ``stats`` names them: ``corr_r`` (:func:`return_autocorr`),
    ``corr_rU`` (:func:`return_volume_corr`) and ``corr_rp``
    (:func:`return_price_corr` at ``degrees`` (n, m), whose order
    conditions warn once per sweep).  Returns an iterator of one tuple of
    results per shift, each equal to that estimator on
    ``pair_windows(tape, window, lag1, lag2, j)``.  Every shift is checked
    before this returns: it raises what ``pair_windows`` raises at the
    first infeasible j.  Window1's series are cached once; window2's are
    computed as the iterator is consumed, in blocks of about
    ``moments.BLOCK_ELEMENTS`` ticks per field, so only one block's
    results are held at a time.
    """
    unknown = set(stats) - {CORR_R, CORR_RU, CORR_RP}
    if unknown:
        raise ValueError(f"unknown sweep statistics {sorted(unknown)}")
    lag1, lag2 = int(lag1), int(lag2)
    # Shift 0 checks window1 and window2's size; window2 then fits at every
    # shift until it runs out of history, at j = window.start - lag2 + 1
    # (a negative max_shift fails as pair_windows fails at that shift).
    w1 = pair_windows(tape, window, lag1, lag2).window1
    pair_windows(tape, window, lag1, lag2, min(max_shift, window.start - lag2 + 1))
    n, m = degrees
    if CORR_RP in stats:
        n = check_order(n, count=window.count)
        m = check_order(m, count=window.count)
    estimate = {CORR_R: _autocorr, CORR_RU: _volume_corr,
                CORR_RP: lambda x: _price_corr(x, n, m)}
    x1, count = _Units.of(w1, w1.lag_l), window.count
    step = _block_rows(count)
    p, u, c = (sliding_window_view(f, count) for f in (tape.prices, tape.volumes, tape.values))

    def block(lo):
        starts = window.start - np.arange(lo, min(lo + step, max_shift + 1))
        # Indexing copies each window2 into its own contiguous row, which
        # numpy sums pairwise as it sums a window alone.
        x = _Pairs(x1, _Units(_Ticks(p[starts], u[starts], c[starts]), p[starts - lag2]))
        return zip(*(estimate[s](x) for s in stats))

    return chain.from_iterable(map(block, range(0, max_shift + 1, step)))


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
    x = self_pair(_relag(window, lag_l)).units
    [cau] = x.cross(ADJVALUE_VOLUME)
    [ca1], [pa1] = x.x1.adjusted_moments(1)
    [u1], [u2] = x.x1.volume_moment(1), x.x1.volume_moment(2)
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
    x = pair.units
    [cross_c], [cross_ca], [cross_u], [cross_p], [cross_pa], [cau] = (x.cross(kind) for kind in (
        VALUE_VALUE, ADJVALUE_ADJVALUE, VOLUME_VOLUME, PRICE_PRICE, ADJPRICE_ADJPRICE,
        ADJVALUE_VOLUME))
    ([c1], [u1], [p1]), ([c2], [u2], [p2]) = (
        (y.value_moment(1), y.volume_moment(1), y.price_moment(1))
        for y in (x.x1, x.x2))
    ([ca1], [pa1]), ([ca2], [pa2]) = x.x1.adjusted_moments(1), x.x2.adjusted_moments(1)
    # the estimators read the cross expectations above from the same pair
    [ac], [ru], [rp] = _autocorr(x), _volume_corr(x), _price_corr(x, 1, 1)
    corrs = dict(zip(_NORMALIZED, (
        cross_c - c1 * c2, cross_ca - ca1 * ca2, cross_u - u1 * u2, cross_p - p1 * p2,
        cross_pa - pa1 * pa2, ac.definitional)))
    # each window's dispersions, matching _NORMALIZED, from the same caches
    s1, s2 = (_sigmas(*y.moments(2)[0]) for y in (x.x1, x.x2))
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
        corr_rU=ru.definitional,
        corr_rp=rp.definitional,
        corr_CaU=cau - ca1 * u2,
        normalized={k: _normalize(c, a, b) for (k, c), a, b in zip(corrs.items(), s1, s2)},
    )
