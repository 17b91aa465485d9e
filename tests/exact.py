"""Exact moments of one window and cross expectations of two, to measure how
far a float path is from them.

Each statistic is its defining sum in rational arithmetic
(``fractions.Fraction``) over the tape's float64 numbers, so the only
rounding left is the final conversion to a float:

    C(n)   = (1/N) sum c_i^n
    U(n)   = (1/N) sum U_i^n
    p(n)   = sum p_i^n U_i^n / sum U_i^n
    C_a(n) = (1/N) sum C_a_i^n,            C_a_i = p_{i-l} U_i
    p_a(n) = sum p_{i-l}^n U_i^n / sum U_i^n
    r(n)   = sum r_i^n C_a_i^n / sum C_a_i^n,  r_i = p_i / p_{i-l}

with i over the window's ticks and l the return lag.  The cross
expectations of two windows of N ticks, paired elementwise, are

    (1/N) sum a_i^n b_{i,2}^m                                  (frequency kinds)
    sum a_i^n b_{i,2}^m U_i^n U_{i,2}^m / sum U_i^n U_{i,2}^m  (price kinds)

with a the first window's series and b the second's.  :func:`ulps` gives an
error in units in the last place of the exact value.  Like
``tests/oracle.py``, this module shares no code with the estimators; unlike
it, it is not a float path, so it can say which of two paths is nearer the
truth.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: MomentReport fields of the moment families, in the report's order.
FAMILIES = ("value_moments", "volume_moments", "price_moments",
            "adj_value_moments", "adj_price_moments", "return_moments")

#: MomentReport field of each sigma -> the family it is x_2 - x_1^2 of.
SIGMAS = {"sigma_C2": "value_moments", "sigma_Ca2": "adj_value_moments",
          "sigma_U2": "volume_moments", "sigma_p2": "price_moments",
          "sigma_pa2": "adj_price_moments", "sigma_r2": "return_moments"}


#: The cross-expectation kinds: the first window's series, then the
#: second's; the price kinds are volume-weighted.
CROSS_KINDS = ("value_value", "adjvalue_adjvalue", "volume_volume", "price_price",
               "adjprice_adjprice", "value_volume", "adjvalue_volume")


def _exact(array):
    return [Fraction(x) for x in array.tolist()]


def _series(tape, start, count, lag):
    # {series: its Fractions} of the window of count ticks from tick start at
    # return lag lag
    p, u, c = (_exact(x[start:start + count]) for x in (tape.prices, tape.volumes, tape.values))
    pl = _exact(tape.prices[start - lag:start - lag + count])
    return {"price": p, "volume": u, "value": c, "adjprice": pl,
            "adjvalue": [a * b for a, b in zip(pl, u)]}


def exact_moments(tape, start, count, lag, order):
    """{family: [its orders 1..order as Fractions]} of the window of
    ``count`` ticks from tick ``start`` at return lag ``lag``."""
    x = _series(tape, start, count, lag)
    p, u, c, pl, ca = x["price"], x["volume"], x["value"], x["adjprice"], x["adjvalue"]
    r = [a / b for a, b in zip(p, pl)]
    moments = {family: [] for family in FAMILIES}
    for n in range(1, order + 1):
        un = [x**n for x in u]
        can = [x**n for x in ca]
        moments["value_moments"].append(sum(x**n for x in c) / count)
        moments["volume_moments"].append(sum(un) / count)
        moments["price_moments"].append(sum(x**n * w for x, w in zip(p, un)) / sum(un))
        moments["adj_value_moments"].append(sum(can) / count)
        moments["adj_price_moments"].append(sum(x**n * w for x, w in zip(pl, un)) / sum(un))
        moments["return_moments"].append(sum(x**n * w for x, w in zip(r, can)) / sum(can))
    return moments


def exact_crosses(tape, count, window1, window2, degrees):
    """{(kind, n, m): Fraction} of every kind of ``CROSS_KINDS`` at each
    (n, m) of ``degrees``, for two windows of ``count`` ticks, each given as
    (start tick, return lag), paired elementwise."""
    x1, x2 = (_series(tape, start, count, lag) for start, lag in (window1, window2))
    crosses = {}
    for n, m in degrees:
        w = [a**n * b**m for a, b in zip(x1["volume"], x2["volume"])]
        for kind in CROSS_KINDS:
            leg1, leg2 = kind.split("_")
            terms = [a**n * b**m for a, b in zip(x1[leg1], x2[leg2])]
            crosses[kind, n, m] = (sum(t * v for t, v in zip(terms, w)) / sum(w)
                                   if leg2.endswith("price") else sum(terms) / count)
    return crosses


def exact_correlations(tape, count, window1, window2, degrees):
    """{(statistic, n, m): (value, product) as Fractions} of corr_r and
    corr_rU at (1, 1) and of corr_rp at each (n, m) of ``degrees``, for two
    windows given as in :func:`exact_crosses`.  Each is E[x y] - E[x] E[y],
    its value, and ``product`` is the E[x] E[y] it subtracts:

        corr_r  = C_C / C_CaCa - (C_1 / Ca_1) (C_1,2 / Ca_1,2)
        corr_rU = C_CU / Ca_1 - (C_1 / Ca_1) U_1,2
        corr_rp = C_C(n, m) / C_CaU(n, m) - (C_n / Ca_n) (C_m,2 / U_m,2)

    with C_XY the cross expectations and ,2 the second window's moments.
    A statistic's forms are equal in exact arithmetic where c = p U
    exactly; on a tape whose values are rounded products, the forms that
    read prices differ from these by that rounding."""
    (start1, lag1), (start2, lag2) = window1, window2
    top = max(max(d) for d in degrees)
    m1, m2 = (exact_moments(tape, start, count, lag, top)
              for start, lag in ((start1, lag1), (start2, lag2)))
    crosses = exact_crosses(tape, count, window1, window2, [(1, 1), *degrees])
    c1, ca1 = m1["value_moments"], m1["adj_value_moments"]
    c2, ca2, u2 = m2["value_moments"], m2["adj_value_moments"], m2["volume_moments"]
    r1 = c1[0] / ca1[0]
    out = {("corr_r", 1, 1): (crosses["value_value", 1, 1] / crosses["adjvalue_adjvalue", 1, 1],
                              r1 * c2[0] / ca2[0]),
           ("corr_rU", 1, 1): (crosses["value_volume", 1, 1] / ca1[0], r1 * u2[0])}
    for n, m in degrees:
        out["corr_rp", n, m] = (crosses["value_value", n, m] / crosses["adjvalue_volume", n, m],
                                c1[n - 1] / ca1[n - 1] * (c2[m - 1] / u2[m - 1]))
    return {key: (cross - product, product) for key, (cross, product) in out.items()}


def exact_sigmas(moments):
    """{sigma: x_2 - x_1^2} of each family of :func:`exact_moments`."""
    return {sigma: moments[family][1] - moments[family][0] ** 2
            for sigma, family in SIGMAS.items()}


def ulps(got, exact, floor):
    """|got - exact| in ulps of the exact value, or of ``floor`` where the
    exact value is smaller in magnitude (at or near 0, where its own ulp
    would call any rounding of the terms a huge error)."""
    scale = max(abs(float(exact)), floor)
    return float(abs(Fraction(got) - exact) / Fraction(math.ulp(scale)))
