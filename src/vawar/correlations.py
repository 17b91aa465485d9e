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
window1: window1's series cache (``moments._Series``, one row, built once
per sweep) against the cache of a block of window2s, one row per shift,
cut from the tape by ``_Series.blocks``.  Every window2 mean, moment and
cross expectation (``_Series.cross``, kept on the block's cache) is one
reduction over the last axis of the block; each estimator reads only
those, and its forms are array expressions over the block in their
formulas' order.  A sweep over shifts (:func:`pair_sweep`) is therefore
bit-identical to its pairs computed one at a time, and the one-pair
estimators are the kernel on a block of one (``PairedWindows.units``,
the two windows' caches); the one-window estimators pair the window's
caches at its two lags.  Within a block each cross expectation is
evaluated once, however many estimators read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, partial

import numpy as np

from .errors import MismatchedWindows
from .moments import _quiet, _Series, _sigmas, check_order
from .tape import LagSpec, ResolvedWindow, TradeTape, WindowSpec, integral, resolve

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


def _forms(result, reads, *forms):
    # result(*forms) of each pair of the block, every form NaN where a moment
    # or cross expectation it reads is not finite: a ratio over an
    # overflowed one would read as 0 or as a plausible finite number
    ok = np.isfinite(np.broadcast_arrays(*reads)).all(axis=0)
    return list(map(result, *(np.where(ok, f, math.nan).tolist() for f in forms)))


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
        and window2's."""
        return _Series.of(self.window1), _Series.of(self.window2)


def pair_windows(
    tape: TradeTape, window: WindowSpec, lag1, lag2=None, shift_j=0
) -> PairedWindows:
    """Resolve a window and its shifted twin into a pair.

    window1 starts at window.start with return lag lag1; window2 starts
    shift_j ticks earlier with return lag lag2 (defaults to lag1).
    """
    return _twin(resolve(tape, window, LagSpec(lag_l=lag1)), lag2, shift_j)


def self_pair(window: ResolvedWindow, lag2=None) -> PairedWindows:
    """Pair a window with itself (lambda = 0), optionally with a second lag."""
    return _twin(window, lag2)


def _twin(w1: ResolvedWindow, lag2=None, shift_j=0) -> PairedWindows:
    # w1 paired with its twin shift_j ticks earlier at return lag lag2 (w1's
    # own by default), resolving the twin alone
    j = integral("shift_j", shift_j, -math.inf)  # PairedWindows rejects j < 0
    spec = WindowSpec(w1.start - j, w1.count)
    lags = LagSpec(lag_l=w1.lag_l if lag2 is None else lag2)
    return PairedWindows(window1=w1, window2=resolve(w1.tape, spec, lags))


def paired_expectation(kind, pair: PairedWindows, degrees=(1, 1)):
    """Cross expectation of two window series raised to (n, m).

    Frequency-based kinds return (1/N) sum a_i^n b_{i,2}^m; the
    market-based kinds weight price products by the matching powers of
    the volume product:

        sum p_1^n p_2^m U_1^n U_2^m / sum U_1^n U_2^m.
    """
    if kind not in FREQUENCY_KINDS + MARKET_KINDS:
        raise ValueError(f"unknown paired-expectation kind {kind!r}")
    n, m = degrees
    n = check_order(n, count=pair.count)
    m = check_order(m, count=pair.count)
    x1, x2 = pair.units
    return x2.cross(kind, x1, n, m).item()


@dataclass(frozen=True)
class ReturnAutocorr:
    """Return autocorrelation by its defining route and two closed forms."""

    definitional: float
    value_form: float
    price_form: float

    @property
    def value(self):
        return self.definitional


@_quiet
def _autocorr(x1: _Series, x2: _Series):
    # return_autocorr of window1's cache x1 paired with each window of the
    # block cache x2
    (c1, (ca1, pa1), p1), (c2, (ca2, pa2), p2) = (
        (y.value_moment(1), y.adjusted_moments(1), y.price_moment(1)) for y in (x1, x2))
    cross_c, cross_ca, cross_p, cross_pa = (x2.cross(kind, x1) for kind in (
        VALUE_VALUE, ADJVALUE_ADJVALUE, PRICE_PRICE, ADJPRICE_ADJPRICE))
    r1, r2 = c1 / ca1, c2 / ca2
    corr_c = cross_c - c1 * c2
    corr_ca = cross_ca - ca1 * ca2
    corr_p = cross_p - p1 * p2
    corr_pa = cross_pa - pa1 * pa2
    return _forms(
        ReturnAutocorr,
        (c1, ca1, pa1, p1, cross_c, cross_ca, cross_p, cross_pa, c2, ca2, pa2, p2),
        cross_c / cross_ca - r1 * r2,
        (corr_c - r1 * r2 * corr_ca) / cross_ca,
        (pa1 * pa2 * corr_p - p1 * p2 * corr_pa) / (cross_pa * pa1 * pa2),
    )


def return_autocorr(pair: PairedWindows) -> ReturnAutocorr:
    """corr_r(t,tau | t2,tau2) = E[r r2] - E[r] E[r2].

    The product expectation is the adjusted-value weighted mean, equal to
    the ratio of cross value expectations; the value form rewrites the
    correlation through corr_C and corr_Ca, the price form through
    corr_p and corr_pa.  All three agree in exact arithmetic; for a
    self-pair the result reduces to sigma_r^2(t, tau).
    """
    return _autocorr(*pair.units)[0]


@dataclass(frozen=True)
class TwoLagAutocorr:
    """Same-window correlation of returns at two lags: the exact value,
    the no-adjusted-value-correlation approximation, and their gap."""

    exact: float
    approximation: float
    residual: float


@_quiet
def same_day_two_lag_autocorr(window: ResolvedWindow, lag1, lag2) -> TwoLagAutocorr:
    """corr_r(t,tau | t,tau2) for one window with lags lag1 and lag2.

    ``exact`` is the closed form with corr_Ca retained; ``approximation``
    drops corr_Ca, leaving sigma_C^2 / [Ca(t,tau;1) Ca(t,tau2;1)];
    ``residual`` is exact - approximation, the part attributable to
    correlated adjusted values.
    """
    x1, x2 = _Series.of(window, lag1), _Series.of(window, lag2)
    cross_c, cross_ca = x2.cross(VALUE_VALUE, x1), x2.cross(ADJVALUE_ADJVALUE, x1)
    c1 = x1.value_moment(1)
    (ca1, _), (ca2, _) = x1.adjusted_moments(1), x2.adjusted_moments(1)
    sigma_c2 = cross_c - c1 * c1
    corr_ca = cross_ca - ca1 * ca2
    r1 = c1 / ca1
    r2 = c1 / ca2
    exact = (sigma_c2 - r1 * r2 * corr_ca) / cross_ca
    approximation = sigma_c2 / (ca1 * ca2)
    return _forms(TwoLagAutocorr, (cross_c, cross_ca, c1, ca1, ca2),
                  exact, approximation, exact - approximation)[0]


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


@_quiet
def _volume_corr(x1: _Series, x2: _Series):
    # return_volume_corr of x1 paired with each window of x2
    c1, u1, (ca1, pa1) = x1.value_moment(1), x1.volume_moment(1), x1.adjusted_moments(1)
    cu, u2 = x2.cross(VALUE_VOLUME, x1), x2.volume_moment(1)
    r1 = c1 / ca1
    corr_cu = cu - c1 * u2
    return _forms(ReturnVolumeCorr, (c1, u1, ca1, pa1, cu, u2),
                  cu / ca1 - r1 * u2, corr_cu / ca1, corr_cu / (pa1 * u1))


def return_volume_corr(pair: PairedWindows) -> ReturnVolumeCorr:
    """corr_rU(t,tau | t2) = E[r U2] - E[r] E[U2].

    E[r U2] weights each return by its adjusted value; the closed form is
    corr_CU(t | t2) / Ca(t,tau;1), equal to corr_CU / [pa(t,tau;1)
    U(t;1)].  Only window1's lag enters.
    """
    return _volume_corr(*pair.units)[0]


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


@_quiet
def _price_corr(x1: _Series, x2: _Series, n, m):
    # return_price_corr of x1 paired with each window of x2, degrees unchecked
    c_n, (ca_n, _) = x1.value_moment(n), x1.adjusted_moments(n)
    cnm, cau = x2.cross(VALUE_VALUE, x1, n, m), x2.cross(ADJVALUE_VOLUME, x1, n, m)
    c_m, u_m = x2.value_moment(m), x2.volume_moment(m)
    r_n = c_n / ca_n
    p_m = c_m / u_m
    corr_c = cnm - c_n * c_m
    corr_cau = cau - ca_n * u_m
    return _forms(partial(ReturnPriceCorr, degree_n=n, degree_m=m),
                  (c_n, ca_n, cnm, cau, c_m, u_m),
                  cnm / cau - r_n * p_m,
                  (corr_c - r_n * p_m * corr_cau) / cau)


def return_price_corr(pair: PairedWindows, n=1, m=1) -> ReturnPriceCorr:
    """corr_rp(t,tau;n | t2;m) = E[r^n p2^m] - r(t,tau;n) p(t2;m).

    E[r^n p2^m] is weighted by C_a^n U2^m and equals the ratio of the
    value cross expectation to the C_a^n U2^m expectation; the closed
    form rewrites the correlation through corr_C and corr_CaU.  Each order
    condition of n and m warns once.
    """
    n = check_order(n, count=pair.count)
    m = check_order(m, count=pair.count)
    return _price_corr(*pair.units, n, m)[0]


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
    first infeasible j.  Window1 is resolved and its series are cached
    once; window2's are computed as the iterator is consumed, in blocks of
    about ``moments.BLOCK_ELEMENTS`` ticks per field, so only one block's
    results, and the series of that block and of the next, are held at a
    time.
    """
    unknown = set(stats) - {CORR_R, CORR_RU, CORR_RP}
    if unknown:
        raise ValueError(f"unknown sweep statistics {sorted(unknown)}")
    # Shift 0 checks both lags and window2's size; window2 then fits at every
    # shift until it runs out of history, at j = window.start - lag2 + 1 (a
    # negative max_shift fails as pair_windows fails there); the last pair,
    # window1 with its twin alone resolved, holds max_shift as an int.
    first = pair_windows(tape, window, lag1, lag2)
    w1, lag2 = first.window1, first.window2.lag_l
    max_shift = _twin(w1, lag2, min(max_shift, window.start - lag2 + 1)).shift_j
    n, m = degrees
    if CORR_RP in stats:
        n = check_order(n, count=window.count)
        m = check_order(m, count=window.count)
    estimate = {CORR_R: _autocorr, CORR_RU: _volume_corr,
                CORR_RP: lambda x1, x2: _price_corr(x1, x2, n, m)}
    starts = window.start - np.arange(max_shift + 1)
    blocks = _Series.blocks(tape, starts, window.count, lag2)
    return _sweep(_Series.of(w1), blocks, [estimate[s] for s in stats])


def _sweep(x1, blocks, estimators):
    # pair_sweep's results, a block of shifts at a time.  x2 holds a block
    # while the next is cut, as in moments._row_blocks: a block freed
    # before the next is cut is returned to the system and faulted back in.
    for x2 in blocks:
        yield from zip(*(estimate(x1, x2) for estimate in estimators))


@dataclass(frozen=True)
class AdjPriceVolumeSqCorr:
    """Mixed-degree correlation of lagged price with squared volume."""

    direct: float
    identity_form: float

    @property
    def value(self):
        return self.direct


@_quiet
def adjprice_volume_sq_corr(window: ResolvedWindow, lag_l) -> AdjPriceVolumeSqCorr:
    """corr(p(t_i - tau), U^2(t_i)) over one window.

    Direct route: (1/N) sum p_{i-l} U_i^2 - pa(t,tau;1) U(t;2).  Identity
    route: corr_CaU(t,tau | t) - pa(t,tau;1) sigma_U^2(t).  Equal in
    exact arithmetic.
    """
    x = _Series.of(window, lag_l)
    cau = x.cross(ADJVALUE_VOLUME, x)
    # the window's order-1 and order-2 moments, each an array of one entry
    _, (u1, u2), _, (ca1, _), (pa1, _), _ = x.moments(2).transpose(1, 2, 0)
    corr_cau = cau - ca1 * u1
    sigma_u2 = u2 - u1 * u1
    return _forms(AdjPriceVolumeSqCorr, (cau, pa1, u2, ca1, u1),
                  cau - pa1 * u2, corr_cau - pa1 * sigma_u2)[0]


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


@_quiet
def _normalize(corr, var1, var2):
    # corr / sqrt(var1 var2), NaN unless var1, var2 and their product (which
    # may underflow or overflow) are positive and finite
    v = var1 * var2
    return np.where((var1 > 0) & (v > 0) & np.isfinite(v), corr / np.sqrt(v), math.nan)


def _corr(cross, a, b):
    # cross - a * b, NaN when one of the three is not finite
    return _forms(float, (cross, a, b), cross - a * b)[0]


@_quiet
def correlation_report(pair: PairedWindows) -> CorrelationReport:
    """Assemble every cross expectation and correlation of the pair."""
    w1, w2 = pair.window1, pair.window2
    x1, x2 = pair.units
    cross_c, cross_ca, cross_u, cross_p, cross_pa, cau = (x2.cross(kind, x1) for kind in (
        VALUE_VALUE, ADJVALUE_ADJVALUE, VOLUME_VOLUME, PRICE_PRICE, ADJPRICE_ADJPRICE,
        ADJVALUE_VOLUME))
    # each window's order-1 and order-2 moment tuples (C, U, p, C_a, p_a, r)
    m = np.concatenate([y.moments(2) for y in (x1, x2)])
    (c1, u1, p1, ca1, pa1, _), (c2, u2, p2, ca2, pa2, _) = m[..., 0].tolist()
    # the estimators read the cross expectations above from the same pair
    [ac], [ru], [rp] = _autocorr(x1, x2), _volume_corr(x1, x2), _price_corr(x1, x2, 1, 1)
    corrs = dict(zip(_NORMALIZED, (
        _corr(cross_c, c1, c2), _corr(cross_ca, ca1, ca2), _corr(cross_u, u1, u2),
        _corr(cross_p, p1, p2), _corr(cross_pa, pa1, pa2), ac.definitional)))
    # each window's dispersions, matching _NORMALIZED
    s1, s2 = _sigmas(m)
    return CorrelationReport(
        window1_start=w1.start,
        window2_start=w2.start,
        count=pair.count,
        lag1=w1.lag_l,
        lag2=w2.lag_l,
        shift_j=pair.shift_j,
        cross_value=cross_c.item(),
        cross_adj_value=cross_ca.item(),
        cross_volume=cross_u.item(),
        cross_price=cross_p.item(),
        cross_adj_price=cross_pa.item(),
        cross_return=_forms(float, (cross_c, cross_ca), cross_c / cross_ca)[0],
        **corrs,
        corr_rU=ru.definitional,
        corr_rp=rp.definitional,
        corr_CaU=_corr(cau, ca1, u2),
        normalized=dict(zip(_NORMALIZED, _normalize(np.array([*corrs.values()]), s1, s2).tolist())),
    )
