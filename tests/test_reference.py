"""The correlation estimators against the path they replaced, and the
oracle's independence from the estimator modules.

Each estimator is rebuilt as it was computed before the per-window series
cache: the reference cross expectation ``helpers.old_paired_expectation``
composed with the checked single-window moment functions.  The
summation order is unchanged, so the floats must be equal, not close.
"""

import ast
import math
from functools import cache
from pathlib import Path

import pytest

from vawar.correlations import (
    adjprice_volume_sq_corr,
    correlation_report,
    pair_windows,
    paired_expectation,
    return_autocorr,
    return_price_corr,
    return_volume_corr,
    same_day_two_lag_autocorr,
    self_pair,
)
from vawar.moments import (
    adjusted_moments,
    dispersions,
    freq_moment,
    price_moment,
    return_volatility,
)
from vawar.synth import GenConfig, HeavyTailVolume, WalkPrice, generate, whale_tape
from vawar.tape import WindowSpec

from helpers import old_paired_expectation as pe

KINDS = ("value_value", "adjvalue_adjvalue", "volume_volume", "price_price",
         "adjprice_adjprice", "value_volume", "adjvalue_volume")
DEGREES = range(1, 9)
TAPES = {
    "walk": GenConfig(ticks=400, seed=11, price=WalkPrice(start=50.0, log_vol=0.02),
                      volume=HeavyTailVolume(base=5.0, shape=2.0), coupling=0.3),
    "decades": GenConfig(ticks=400, seed=6, price=WalkPrice(start=1.0, log_vol=0.6),
                         volume=HeavyTailVolume(base=5.0, shape=1.5), coupling=0.5),
}


@cache
def _pairs(name):
    # Pairs at three shifts and two lag combinations; on the whale tape
    # window1 ends on the whale and the shifted window2 misses it.
    tape = whale_tape(n_small=300)[0] if name == "whale" else generate(TAPES[name])
    window = WindowSpec(len(tape) - 40, 40)
    return [pair_windows(tape, window, lag1, lag2, shift_j=j)
            for j in (0, 7, 60) for lag1, lag2 in ((1, 1), (3, 2))]


def _same(got, want):
    # equal floats, NaN matching NaN (the normalized correlations)
    return got == want or (math.isnan(got) and math.isnan(want))


def old_return_autocorr(pair):
    w1, w2 = pair.window1, pair.window2
    cross_c, cross_ca = pe("value_value", pair), pe("adjvalue_adjvalue", pair)
    c1, c2 = freq_moment(w1.values, 1), freq_moment(w2.values, 1)
    ca1, pa1 = adjusted_moments(w1, w1.lag_l, 1)
    ca2, pa2 = adjusted_moments(w2, w2.lag_l, 1)
    r1, r2 = c1 / ca1, c2 / ca2
    p1, p2 = price_moment(w1, 1), price_moment(w2, 1)
    cross_pa = pe("adjprice_adjprice", pair)
    corr_p, corr_pa = pe("price_price", pair) - p1 * p2, cross_pa - pa1 * pa2
    return (cross_c / cross_ca - r1 * r2,
            (cross_c - c1 * c2 - r1 * r2 * (cross_ca - ca1 * ca2)) / cross_ca,
            (pa1 * pa2 * corr_p - p1 * p2 * corr_pa) / (cross_pa * pa1 * pa2))


def old_return_volume_corr(pair):
    w1, w2 = pair.window1, pair.window2
    cu = pe("value_volume", pair)
    c1, u1, u2 = freq_moment(w1.values, 1), freq_moment(w1.volumes, 1), freq_moment(w2.volumes, 1)
    ca1, pa1 = adjusted_moments(w1, w1.lag_l, 1)
    corr_cu = cu - c1 * u2
    return cu / ca1 - c1 / ca1 * u2, corr_cu / ca1, corr_cu / (pa1 * u1)


def old_return_price_corr(pair, n, m):
    w1, w2 = pair.window1, pair.window2
    cnm, cau = pe("value_value", pair, n, m), pe("adjvalue_volume", pair, n, m)
    c_n, ca_n = freq_moment(w1.values, n), adjusted_moments(w1, w1.lag_l, n)[0]
    c_m, u_m = freq_moment(w2.values, m), freq_moment(w2.volumes, m)
    r_n, p_m = c_n / ca_n, c_m / u_m
    return (cnm / cau - r_n * p_m,
            (cnm - c_n * c_m - r_n * p_m * (cau - ca_n * u_m)) / cau, n, m)


def old_two_lag(w1, lag2):
    pair = self_pair(w1, lag2)
    c1 = freq_moment(w1.values, 1)
    ca1, ca2 = adjusted_moments(w1, w1.lag_l, 1)[0], adjusted_moments(w1, lag2, 1)[0]
    sigma_c2, cross_ca = pe("value_value", pair) - c1 * c1, pe("adjvalue_adjvalue", pair)
    exact = (sigma_c2 - c1 / ca1 * (c1 / ca2) * (cross_ca - ca1 * ca2)) / cross_ca
    approximation = sigma_c2 / (ca1 * ca2)
    return exact, approximation, exact - approximation


def old_adjprice_volume_sq(w1):
    cau = pe("adjvalue_volume", self_pair(w1))
    ca1, pa1 = adjusted_moments(w1, w1.lag_l, 1)
    u1, u2 = freq_moment(w1.volumes, 1), freq_moment(w1.volumes, 2)
    return cau - pa1 * u2, cau - ca1 * u1 - pa1 * (u2 - u1 * u1)


def old_report(pair):
    w1, w2 = pair.window1, pair.window2
    x = {k: pe(k, pair) for k in KINDS}
    c1, c2 = freq_moment(w1.values, 1), freq_moment(w2.values, 1)
    u1, u2 = freq_moment(w1.volumes, 1), freq_moment(w2.volumes, 1)
    p1, p2 = price_moment(w1, 1), price_moment(w2, 1)
    ca1, pa1 = adjusted_moments(w1, w1.lag_l, 1)
    ca2, pa2 = adjusted_moments(w2, w2.lag_l, 1)
    d1, d2 = dispersions(w1, w1.lag_l), dispersions(w2, w2.lag_l)
    corrs = {
        "corr_C": (x["value_value"] - c1 * c2, d1.sigma_C2, d2.sigma_C2),
        "corr_Ca": (x["adjvalue_adjvalue"] - ca1 * ca2, d1.sigma_Ca2, d2.sigma_Ca2),
        "corr_U": (x["volume_volume"] - u1 * u2, d1.sigma_U2, d2.sigma_U2),
        "corr_p": (x["price_price"] - p1 * p2, d1.sigma_p2, d2.sigma_p2),
        "corr_pa": (x["adjprice_adjprice"] - pa1 * pa2, d1.sigma_pa2, d2.sigma_pa2),
        "corr_r": (old_return_autocorr(pair)[0], return_volatility(w1, w1.lag_l).via_moments,
                   return_volatility(w2, w2.lag_l).via_moments),
    }
    return {
        "window1_start": w1.start, "window2_start": w2.start, "count": pair.count,
        "lag1": w1.lag_l, "lag2": w2.lag_l, "shift_j": pair.shift_j,
        "cross_value": x["value_value"], "cross_adj_value": x["adjvalue_adjvalue"],
        "cross_volume": x["volume_volume"], "cross_price": x["price_price"],
        "cross_adj_price": x["adjprice_adjprice"],
        "cross_return": x["value_value"] / x["adjvalue_adjvalue"],
        **{k: c for k, (c, _, _) in corrs.items()},
        "corr_rU": old_return_volume_corr(pair)[0],
        "corr_rp": old_return_price_corr(pair, 1, 1)[0],
        "corr_CaU": x["adjvalue_volume"] - ca1 * u2,
        "normalized": {k: math.nan if a <= 0 or b <= 0 else c / math.sqrt(a * b)
                       for k, (c, a, b) in corrs.items()},
    }


@pytest.mark.parametrize("name", ["walk", "whale", "decades"])
class TestOldPath:
    def test_paired_expectation(self, name):
        for pair in _pairs(name):
            for kind in KINDS:
                for n in DEGREES:
                    for m in DEGREES:
                        want = pe(kind, pair, n, m)
                        assert paired_expectation(kind, pair, (n, m)) == want, (kind, n, m)

    def test_return_autocorr(self, name):
        for pair in _pairs(name):
            ac = return_autocorr(pair)
            assert (ac.definitional, ac.value_form, ac.price_form) == old_return_autocorr(pair)

    def test_return_volume_corr(self, name):
        for pair in _pairs(name):
            ru = return_volume_corr(pair)
            got = (ru.definitional, ru.closed_form, ru.closed_form_prices)
            assert got == old_return_volume_corr(pair)

    def test_return_price_corr(self, name):
        for pair in _pairs(name):
            for n in DEGREES:
                for m in DEGREES:
                    rp = return_price_corr(pair, n, m)
                    got = (rp.definitional, rp.closed_form, rp.degree_n, rp.degree_m)
                    assert got == old_return_price_corr(pair, n, m), (n, m)

    def test_single_window_correlations(self, name):
        for pair in _pairs(name):
            w1 = pair.window1
            tl = same_day_two_lag_autocorr(w1, w1.lag_l, pair.window2.lag_l)
            assert (tl.exact, tl.approximation, tl.residual) == old_two_lag(w1, pair.window2.lag_l)
            ap = adjprice_volume_sq_corr(w1, w1.lag_l)
            assert (ap.direct, ap.identity_form) == old_adjprice_volume_sq(w1)

    def test_correlation_report(self, name):
        for pair in _pairs(name):
            got, want = correlation_report(pair).to_dict(), old_report(pair)
            assert list(got) == list(want)
            for key, value in want.items():
                if key == "normalized":
                    assert list(got[key]) == sorted(value)
                    assert all(_same(got[key][k], v) for k, v in value.items()), key
                else:
                    assert got[key] == value, key

    def test_report_reads_the_standalone_estimators(self, name):
        for pair in _pairs(name):
            rep = correlation_report(pair)
            assert rep.corr_r == return_autocorr(pair).definitional
            assert rep.corr_rU == return_volume_corr(pair).definitional
            assert rep.corr_rp == return_price_corr(pair).definitional


def test_oracle_imports_only_errors_and_tape():
    # The oracle anchors the estimators only while it shares no code with them.
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    package = {m for m in modules if m.startswith(".") or m.split(".")[0] == "vawar"}
    assert package <= {"vawar.errors", "vawar.tape"}, sorted(package)
