"""Brute-force reference implementations of every tape statistic.

Each statistic is spelled out as literal loops over its defining sums:
no vectorization, no normalization tricks, no kernels shared with (or
imported from) the estimator modules.  This module exists to anchor the
test suite; the main code never calls it.

Window-1 quantities use ticks i = start .. start+count-1 with lagged
prices p[i - l1]; window-2 quantities use the same positions shifted
back by j ticks with lag l2.
"""

from __future__ import annotations

from vawar.errors import InsufficientHistory, UnknownStatistic, WindowOutOfRange
from vawar.tape import LagSpec, TradeTape, WindowSpec


def _bounds(tape, window, lag, shift=0):
    start = window.start - shift
    if start < 0 or start + window.count > len(tape):
        raise WindowOutOfRange(f"window at {start} does not fit the tape")
    if start - lag < 0:
        raise InsufficientHistory(f"window at {start} lacks {lag} ticks of history")
    return start, window.count


def value_moment(tape, window, lags, n=1):
    start, count = _bounds(tape, window, 0)
    total = 0.0
    for i in range(start, start + count):
        total += float(tape.values[i]) ** n
    return total / count


def volume_moment(tape, window, lags, n=1):
    start, count = _bounds(tape, window, 0)
    total = 0.0
    for i in range(start, start + count):
        total += float(tape.volumes[i]) ** n
    return total / count


def price_moment(tape, window, lags, n=1):
    start, count = _bounds(tape, window, 0)
    num = 0.0
    den = 0.0
    for i in range(start, start + count):
        num += float(tape.prices[i]) ** n * float(tape.volumes[i]) ** n
        den += float(tape.volumes[i]) ** n
    return num / den


def adj_value_moment(tape, window, lags, n=1):
    l = lags.lag_l
    start, count = _bounds(tape, window, l)
    total = 0.0
    for i in range(start, start + count):
        total += (float(tape.prices[i - l]) * float(tape.volumes[i])) ** n
    return total / count


def adj_price_moment(tape, window, lags, n=1):
    l = lags.lag_l
    start, count = _bounds(tape, window, l)
    num = 0.0
    den = 0.0
    for i in range(start, start + count):
        num += float(tape.prices[i - l]) ** n * float(tape.volumes[i]) ** n
        den += float(tape.volumes[i]) ** n
    return num / den


def return_moment(tape, window, lags, n=1):
    l = lags.lag_l
    start, count = _bounds(tape, window, l)
    num = 0.0
    den = 0.0
    for i in range(start, start + count):
        r = float(tape.prices[i]) / float(tape.prices[i - l])
        ca = float(tape.prices[i - l]) * float(tape.volumes[i])
        num += r**n * ca**n
        den += ca**n
    return num / den


def vawar(tape, window, lags):
    return return_moment(tape, window, lags, 1)


def freq_mean_return(tape, window, lags):
    l = lags.lag_l
    start, count = _bounds(tape, window, l)
    total = 0.0
    for i in range(start, start + count):
        total += float(tape.prices[i]) / float(tape.prices[i - l])
    return total / count


def sigma_C2(tape, window, lags):
    start, count = _bounds(tape, window, 0)
    s1 = 0.0
    s2 = 0.0
    for i in range(start, start + count):
        s1 += float(tape.values[i])
        s2 += float(tape.values[i]) ** 2
    return s2 / count - (s1 / count) ** 2


def sigma_Ca2(tape, window, lags):
    l = lags.lag_l
    start, count = _bounds(tape, window, l)
    s1 = 0.0
    s2 = 0.0
    for i in range(start, start + count):
        ca = float(tape.prices[i - l]) * float(tape.volumes[i])
        s1 += ca
        s2 += ca**2
    return s2 / count - (s1 / count) ** 2


def sigma_U2(tape, window, lags):
    start, count = _bounds(tape, window, 0)
    s1 = 0.0
    s2 = 0.0
    for i in range(start, start + count):
        s1 += float(tape.volumes[i])
        s2 += float(tape.volumes[i]) ** 2
    return s2 / count - (s1 / count) ** 2


def sigma_p2(tape, window, lags):
    start, count = _bounds(tape, window, 0)
    n1 = d1 = n2 = d2 = 0.0
    for i in range(start, start + count):
        p = float(tape.prices[i])
        u = float(tape.volumes[i])
        n1 += p * u
        d1 += u
        n2 += p * p * u * u
        d2 += u * u
    return n2 / d2 - (n1 / d1) ** 2


def sigma_pa2(tape, window, lags):
    l = lags.lag_l
    start, count = _bounds(tape, window, l)
    n1 = d1 = n2 = d2 = 0.0
    for i in range(start, start + count):
        p = float(tape.prices[i - l])
        u = float(tape.volumes[i])
        n1 += p * u
        d1 += u
        n2 += p * p * u * u
        d2 += u * u
    return n2 / d2 - (n1 / d1) ** 2


def sigma_r2(tape, window, lags):
    l = lags.lag_l
    start, count = _bounds(tape, window, l)
    n1 = d1 = n2 = d2 = 0.0
    for i in range(start, start + count):
        r = float(tape.prices[i]) / float(tape.prices[i - l])
        ca = float(tape.prices[i - l]) * float(tape.volumes[i])
        n1 += r * ca
        d1 += ca
        n2 += r * r * ca * ca
        d2 += ca * ca
    return n2 / d2 - (n1 / d1) ** 2


def _pair_starts(tape, window, lags, lag2):
    l1 = lags.lag_l
    j = lags.window_shift_j
    l2 = l1 if lag2 is None else int(lag2)
    s1, count = _bounds(tape, window, l1)
    s2, _ = _bounds(tape, window, l2, shift=j)
    return s1, s2, count, l1, l2


def value_value(tape, window, lags, n=1, m=1, lag2=None):
    s1, s2, count, _, _ = _pair_starts(tape, window, lags, lag2)
    total = 0.0
    for k in range(count):
        total += float(tape.values[s1 + k]) ** n * float(tape.values[s2 + k]) ** m
    return total / count


def adjvalue_adjvalue(tape, window, lags, n=1, m=1, lag2=None):
    s1, s2, count, l1, l2 = _pair_starts(tape, window, lags, lag2)
    total = 0.0
    for k in range(count):
        ca1 = float(tape.prices[s1 + k - l1]) * float(tape.volumes[s1 + k])
        ca2 = float(tape.prices[s2 + k - l2]) * float(tape.volumes[s2 + k])
        total += ca1**n * ca2**m
    return total / count


def volume_volume(tape, window, lags, n=1, m=1, lag2=None):
    s1, s2, count, _, _ = _pair_starts(tape, window, lags, lag2)
    total = 0.0
    for k in range(count):
        total += float(tape.volumes[s1 + k]) ** n * float(tape.volumes[s2 + k]) ** m
    return total / count


def value_volume(tape, window, lags, n=1, m=1, lag2=None):
    s1, s2, count, _, _ = _pair_starts(tape, window, lags, lag2)
    total = 0.0
    for k in range(count):
        total += float(tape.values[s1 + k]) ** n * float(tape.volumes[s2 + k]) ** m
    return total / count


def adjvalue_volume(tape, window, lags, n=1, m=1, lag2=None):
    s1, s2, count, l1, _ = _pair_starts(tape, window, lags, lag2)
    total = 0.0
    for k in range(count):
        ca1 = float(tape.prices[s1 + k - l1]) * float(tape.volumes[s1 + k])
        total += ca1**n * float(tape.volumes[s2 + k]) ** m
    return total / count


def price_price(tape, window, lags, n=1, m=1, lag2=None):
    s1, s2, count, _, _ = _pair_starts(tape, window, lags, lag2)
    num = 0.0
    den = 0.0
    for k in range(count):
        p1 = float(tape.prices[s1 + k])
        p2 = float(tape.prices[s2 + k])
        u1 = float(tape.volumes[s1 + k])
        u2 = float(tape.volumes[s2 + k])
        num += p1**n * p2**m * u1**n * u2**m
        den += u1**n * u2**m
    return num / den


def adjprice_adjprice(tape, window, lags, n=1, m=1, lag2=None):
    s1, s2, count, l1, l2 = _pair_starts(tape, window, lags, lag2)
    num = 0.0
    den = 0.0
    for k in range(count):
        p1 = float(tape.prices[s1 + k - l1])
        p2 = float(tape.prices[s2 + k - l2])
        u1 = float(tape.volumes[s1 + k])
        u2 = float(tape.volumes[s2 + k])
        num += p1**n * p2**m * u1**n * u2**m
        den += u1**n * u2**m
    return num / den


def corr_C(tape, window, lags, lag2=None):
    s1, s2, count, _, _ = _pair_starts(tape, window, lags, lag2)
    cross = 0.0
    m1 = 0.0
    m2 = 0.0
    for k in range(count):
        cross += float(tape.values[s1 + k]) * float(tape.values[s2 + k])
        m1 += float(tape.values[s1 + k])
        m2 += float(tape.values[s2 + k])
    return cross / count - (m1 / count) * (m2 / count)


def corr_Ca(tape, window, lags, lag2=None):
    s1, s2, count, l1, l2 = _pair_starts(tape, window, lags, lag2)
    cross = 0.0
    m1 = 0.0
    m2 = 0.0
    for k in range(count):
        ca1 = float(tape.prices[s1 + k - l1]) * float(tape.volumes[s1 + k])
        ca2 = float(tape.prices[s2 + k - l2]) * float(tape.volumes[s2 + k])
        cross += ca1 * ca2
        m1 += ca1
        m2 += ca2
    return cross / count - (m1 / count) * (m2 / count)


def corr_U(tape, window, lags, lag2=None):
    s1, s2, count, _, _ = _pair_starts(tape, window, lags, lag2)
    cross = 0.0
    m1 = 0.0
    m2 = 0.0
    for k in range(count):
        cross += float(tape.volumes[s1 + k]) * float(tape.volumes[s2 + k])
        m1 += float(tape.volumes[s1 + k])
        m2 += float(tape.volumes[s2 + k])
    return cross / count - (m1 / count) * (m2 / count)


def corr_p(tape, window, lags, lag2=None):
    s1, s2, count, _, _ = _pair_starts(tape, window, lags, lag2)
    num = den = 0.0
    n1 = d1 = n2 = d2 = 0.0
    for k in range(count):
        p1 = float(tape.prices[s1 + k])
        p2 = float(tape.prices[s2 + k])
        u1 = float(tape.volumes[s1 + k])
        u2 = float(tape.volumes[s2 + k])
        num += p1 * p2 * u1 * u2
        den += u1 * u2
        n1 += p1 * u1
        d1 += u1
        n2 += p2 * u2
        d2 += u2
    return num / den - (n1 / d1) * (n2 / d2)


def corr_pa(tape, window, lags, lag2=None):
    s1, s2, count, l1, l2 = _pair_starts(tape, window, lags, lag2)
    num = den = 0.0
    n1 = d1 = n2 = d2 = 0.0
    for k in range(count):
        p1 = float(tape.prices[s1 + k - l1])
        p2 = float(tape.prices[s2 + k - l2])
        u1 = float(tape.volumes[s1 + k])
        u2 = float(tape.volumes[s2 + k])
        num += p1 * p2 * u1 * u2
        den += u1 * u2
        n1 += p1 * u1
        d1 += u1
        n2 += p2 * u2
        d2 += u2
    return num / den - (n1 / d1) * (n2 / d2)


def corr_r(tape, window, lags, lag2=None):
    s1, s2, count, l1, l2 = _pair_starts(tape, window, lags, lag2)
    num = den = 0.0
    n1 = d1 = n2 = d2 = 0.0
    for k in range(count):
        r1 = float(tape.prices[s1 + k]) / float(tape.prices[s1 + k - l1])
        r2 = float(tape.prices[s2 + k]) / float(tape.prices[s2 + k - l2])
        ca1 = float(tape.prices[s1 + k - l1]) * float(tape.volumes[s1 + k])
        ca2 = float(tape.prices[s2 + k - l2]) * float(tape.volumes[s2 + k])
        num += r1 * r2 * ca1 * ca2
        den += ca1 * ca2
        n1 += r1 * ca1
        d1 += ca1
        n2 += r2 * ca2
        d2 += ca2
    return num / den - (n1 / d1) * (n2 / d2)


def two_lag_approx(tape, window, lags, lag2=None):
    l1 = lags.lag_l
    l2 = l1 if lag2 is None else int(lag2)
    start, count = _bounds(tape, window, max(l1, l2))
    s1 = s2 = 0.0
    ca1 = ca2 = 0.0
    for i in range(start, start + count):
        c = float(tape.values[i])
        s1 += c
        s2 += c * c
        ca1 += float(tape.prices[i - l1]) * float(tape.volumes[i])
        ca2 += float(tape.prices[i - l2]) * float(tape.volumes[i])
    var_c = s2 / count - (s1 / count) ** 2
    return var_c / ((ca1 / count) * (ca2 / count))


def corr_CU(tape, window, lags, lag2=None):
    s1, s2, count, _, _ = _pair_starts(tape, window, lags, lag2)
    cross = 0.0
    m1 = 0.0
    m2 = 0.0
    for k in range(count):
        cross += float(tape.values[s1 + k]) * float(tape.volumes[s2 + k])
        m1 += float(tape.values[s1 + k])
        m2 += float(tape.volumes[s2 + k])
    return cross / count - (m1 / count) * (m2 / count)


def corr_rU(tape, window, lags, lag2=None):
    s1, s2, count, l1, _ = _pair_starts(tape, window, lags, lag2)
    num = den = 0.0
    r1n = r1d = 0.0
    u2m = 0.0
    for k in range(count):
        r = float(tape.prices[s1 + k]) / float(tape.prices[s1 + k - l1])
        ca = float(tape.prices[s1 + k - l1]) * float(tape.volumes[s1 + k])
        u2 = float(tape.volumes[s2 + k])
        num += r * u2 * ca
        den += ca
        r1n += r * ca
        r1d += ca
        u2m += u2
    return num / den - (r1n / r1d) * (u2m / count)


def corr_CaU(tape, window, lags, n=1, m=1, lag2=None):
    s1, s2, count, l1, _ = _pair_starts(tape, window, lags, lag2)
    cross = 0.0
    m1 = 0.0
    m2 = 0.0
    for k in range(count):
        ca = float(tape.prices[s1 + k - l1]) * float(tape.volumes[s1 + k])
        u2 = float(tape.volumes[s2 + k])
        cross += ca**n * u2**m
        m1 += ca**n
        m2 += u2**m
    return cross / count - (m1 / count) * (m2 / count)


def corr_rp(tape, window, lags, n=1, m=1, lag2=None):
    s1, s2, count, l1, _ = _pair_starts(tape, window, lags, lag2)
    num = den = 0.0
    rn_num = rn_den = 0.0
    pm_num = pm_den = 0.0
    for k in range(count):
        r = float(tape.prices[s1 + k]) / float(tape.prices[s1 + k - l1])
        ca = float(tape.prices[s1 + k - l1]) * float(tape.volumes[s1 + k])
        p2 = float(tape.prices[s2 + k])
        u2 = float(tape.volumes[s2 + k])
        num += r**n * p2**m * ca**n * u2**m
        den += ca**n * u2**m
        rn_num += r**n * ca**n
        rn_den += ca**n
        pm_num += p2**m * u2**m
        pm_den += u2**m
    return num / den - (rn_num / rn_den) * (pm_num / pm_den)


def corr_paU2(tape, window, lags):
    l = lags.lag_l
    start, count = _bounds(tape, window, l)
    cross = 0.0
    pa_num = pa_den = 0.0
    u2 = 0.0
    for i in range(start, start + count):
        p = float(tape.prices[i - l])
        u = float(tape.volumes[i])
        cross += p * u * u
        pa_num += p * u
        pa_den += u
        u2 += u * u
    return cross / count - (pa_num / pa_den) * (u2 / count)


_STATISTICS = {
    "value_moment": value_moment,
    "volume_moment": volume_moment,
    "price_moment": price_moment,
    "adj_value_moment": adj_value_moment,
    "adj_price_moment": adj_price_moment,
    "return_moment": return_moment,
    "vawar": vawar,
    "freq_mean_return": freq_mean_return,
    "sigma_C2": sigma_C2,
    "sigma_Ca2": sigma_Ca2,
    "sigma_U2": sigma_U2,
    "sigma_p2": sigma_p2,
    "sigma_pa2": sigma_pa2,
    "sigma_r2": sigma_r2,
    "value_value": value_value,
    "adjvalue_adjvalue": adjvalue_adjvalue,
    "volume_volume": volume_volume,
    "value_volume": value_volume,
    "adjvalue_volume": adjvalue_volume,
    "price_price": price_price,
    "adjprice_adjprice": adjprice_adjprice,
    "corr_C": corr_C,
    "corr_Ca": corr_Ca,
    "corr_U": corr_U,
    "corr_p": corr_p,
    "corr_pa": corr_pa,
    "corr_r": corr_r,
    "corr_CU": corr_CU,
    "corr_rU": corr_rU,
    "corr_CaU": corr_CaU,
    "corr_rp": corr_rp,
    "corr_paU2": corr_paU2,
    "two_lag_approx": two_lag_approx,
}


def statistics():
    """Names accepted by :func:`oracle`."""
    return tuple(sorted(_STATISTICS))


def oracle(tape: TradeTape, window: WindowSpec, lags: LagSpec, statistic,
           **params):
    """Evaluate ``statistic`` directly from its defining sums.

    ``params`` may carry ``n``, ``m`` (degrees) and ``lag2`` (second
    window's lag) where the statistic takes them.  Raises
    UnknownStatistic for names not in :func:`statistics`.
    """
    try:
        fn = _STATISTICS[statistic]
    except KeyError:
        raise UnknownStatistic(
            f"no oracle for {statistic!r}; known: {', '.join(statistics())}"
        ) from None
    try:
        return fn(tape, window, lags, **params)
    except TypeError as exc:
        raise UnknownStatistic(
            f"bad parameters for {statistic!r}: {exc}"
        ) from None
