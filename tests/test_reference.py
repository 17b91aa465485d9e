"""The correlation estimators and the shift sweep against the path they
replaced, and the oracle's independence from the estimator modules.

Each estimator is rebuilt as it was computed before the per-window series
cache: the reference cross expectation ``helpers.old_paired_expectation``
composed with the checked single-window moment functions.  The
summation order is unchanged, so the floats must be equal, not close.
Every row of a ``pair_sweep`` must equal those references on its pair.
"""

import ast
import io
import json
import math
import warnings
from functools import cache
from pathlib import Path

import pytest

from vawar import moments
from vawar.cli import main
from vawar.correlations import (
    CORR_R,
    CORR_RP,
    CORR_RU,
    adjprice_volume_sq_corr,
    correlation_report,
    pair_sweep,
    pair_windows,
    paired_expectation,
    return_autocorr,
    return_price_corr,
    return_volume_corr,
    same_day_two_lag_autocorr,
    self_pair,
)
from vawar.errors import InsufficientHistory, MismatchedWindows, OrderTooLarge
from vawar.moments import (
    MomentReport,
    adjusted_moments,
    dispersions,
    freq_moment,
    moment_report,
    moment_reports,
    price_moment,
    return_moment,
    return_volatility,
)
from vawar.synth import GenConfig, HeavyTailVolume, WalkPrice, generate, whale_tape
from vawar.tape import LagSpec, WindowSpec, resolve, write_csv

from helpers import assert_close, corr_r_anchor, corr_rp_anchor, corr_ru_anchor
from helpers import old_paired_expectation as pe
from helpers import old_window_moments
from oracle import oracle

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


# Sweeps: window1 is 40 ticks from tick 121 (on the whale tape, the last
# 40 ticks, ending on the whale), swept back to its last feasible shift
# start - lag2; lags equal and different.
SWEEP_LAGS = [(2, 2), (3, 1)]
SWEEP_COUNT = 40


@cache
def _sweep_tape(name):
    if name == "whale":
        return whale_tape(n_small=120)[0]
    return generate(TAPES[name])


def _sweep_window(name):
    tape = _sweep_tape(name)
    start = 121 if name != "whale" else len(tape) - SWEEP_COUNT
    return tape, WindowSpec(start, SWEEP_COUNT)


@cache
def _reference_rows(name, lag1, lag2, n, m, max_shift):
    # the per-pair references at every shift j = 0..max_shift
    tape, window = _sweep_window(name)
    rows = []
    for j in range(max_shift + 1):
        pair = pair_windows(tape, window, lag1, lag2, shift_j=j)
        rows.append((old_return_autocorr(pair), old_return_volume_corr(pair),
                     old_return_price_corr(pair, n, m)))
    return rows


def _sweep_rows(name, lag1, lag2, n, m, max_shift):
    tape, window = _sweep_window(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # degree 8 is at the default cap
        rows = list(pair_sweep(tape, window, lag1, lag2, max_shift,
                               (CORR_R, CORR_RU, CORR_RP), (n, m)))
    return [((ac.definitional, ac.value_form, ac.price_form),
             (ru.definitional, ru.closed_form, ru.closed_form_prices),
             (rp.definitional, rp.closed_form, rp.degree_n, rp.degree_m))
            for ac, ru, rp in rows]


def _csv_tape(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    sink = io.StringIO()
    write_csv(_sweep_tape(name), sink)
    path.write_text(sink.getvalue(), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("lag1, lag2", SWEEP_LAGS)
@pytest.mark.parametrize("name", ["walk", "whale", "decades"])
class TestPairSweep:
    # blocks of 1 and 7 shifts (the last one partial) and the default
    # block, which holds the whole sweep
    @pytest.mark.parametrize("block", [1, 7, None])
    def test_every_shift_equals_its_pair(self, name, lag1, lag2, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(moments, "BLOCK_ELEMENTS", block * SWEEP_COUNT)
        last = _sweep_window(name)[1].start - lag2
        assert (last + 1) % 7 != 0
        rows = _sweep_rows(name, lag1, lag2, 1, 1, last)
        assert rows == _reference_rows(name, lag1, lag2, 1, 1, last)

    def test_every_degree(self, name, lag1, lag2, monkeypatch):
        monkeypatch.setattr(moments, "BLOCK_ELEMENTS", 4 * SWEEP_COUNT)
        for n in DEGREES:
            for m in DEGREES:
                got = _sweep_rows(name, lag1, lag2, n, m, 9)
                assert got == _reference_rows(name, lag1, lag2, n, m, 9), (n, m)

    def test_sampled_shifts_match_oracle(self, name, lag1, lag2):
        tape, window = _sweep_window(name)
        last = window.start - lag2
        n, m = 3, 2
        rows = list(pair_sweep(tape, window, lag1, lag2, last, (CORR_R, CORR_RU, CORR_RP),
                               (n, m)))
        for j in (0, 1, last // 2, last):
            pair = pair_windows(tape, window, lag1, lag2, shift_j=j)
            lags = LagSpec(lag_l=lag1, window_shift_j=j)
            (ac, ru, rp), at = rows[j], f"{name} j={j}"
            assert_close(ac.definitional, oracle(tape, window, lags, "corr_r", lag2=lag2),
                         1e-10, abs_floor=1e-12 * corr_r_anchor(pair), msg=at)
            assert_close(ru.definitional, oracle(tape, window, lags, "corr_rU", lag2=lag2),
                         1e-10, abs_floor=1e-12 * corr_ru_anchor(pair), msg=at)
            assert_close(rp.definitional,
                         oracle(tape, window, lags, "corr_rp", n=n, m=m, lag2=lag2),
                         1e-10, abs_floor=1e-12 * corr_rp_anchor(pair, n, m), msg=at)

    def test_one_statistic(self, name, lag1, lag2):
        tape, window = _sweep_window(name)
        both = pair_sweep(tape, window, lag1, lag2, 5, (CORR_RP, CORR_R), (2, 3))
        one = pair_sweep(tape, window, lag1, lag2, 5, (CORR_R,), (1, 1))
        assert list(one) == [(ac,) for _, ac in both]

    def test_float_lags_act_as_their_integers(self, name, lag1, lag2):
        # the one-pair estimators accept float lags, so the sweep must too
        tape, window = _sweep_window(name)
        last = window.start - lag2
        stats = (CORR_R, CORR_RU, CORR_RP)
        got = list(pair_sweep(tape, window, float(lag1), float(lag2), last, stats, (2, 1)))
        assert got == list(pair_sweep(tape, window, lag1, lag2, last, stats, (2, 1)))
        pair = pair_windows(tape, window, float(lag1), float(lag2), shift_j=last)
        assert got[-1][0] == return_autocorr(pair)


class TestPairSweepErrors:
    @pytest.mark.parametrize("past", [1, 9])
    def test_first_infeasible_shift_names_its_window(self, past, monkeypatch):
        # every shift is checked before any block is computed: a cross
        # expectation evaluated before the checks raises TypeError
        tape, window = _sweep_window("walk")
        monkeypatch.setattr(moments._Series, "_cross", None)
        with pytest.raises(InsufficientHistory,
                           match=r"^window starting at 1 needs 2 ticks of history$"):
            pair_sweep(tape, window, 1, 2, window.start - 2 + past, (CORR_R,), (1, 1))

    @pytest.mark.parametrize("command", ["acorr", "xcorr"])
    def test_cli_exits_1_and_writes_nothing(self, command, tmp_path, capsys):
        out = tmp_path / "sweep.out"
        _, window = _sweep_window("walk")
        status = main([command, _csv_tape(tmp_path, "walk"), "--window", str(window.count),
                       "--start", str(window.start), "--lag", "3", "--lag2", "2",
                       "--max-shift", str(window.start - 1), "--out", str(out)])
        assert status == 1
        assert capsys.readouterr().err == (
            f"vawar {command}: error: window starting at 1 needs 2 ticks of history\n")
        assert not out.exists()

    def test_last_feasible_shift_from_cli(self, tmp_path, capsys):
        _, window = _sweep_window("walk")
        assert main(["acorr", _csv_tape(tmp_path, "walk"), "--window", str(window.count),
                     "--start", str(window.start), "--lag", "2",
                     "--max-shift", str(window.start - 2)]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["j"] for r in rows] == list(range(window.start - 1))

    def test_bad_arguments(self):
        tape, window = _sweep_window("walk")
        with pytest.raises(MismatchedWindows, match="window2 must not start after window1"):
            pair_sweep(tape, window, 1, 1, -1, (CORR_R,), (1, 1))
        with pytest.raises(ValueError, match="corr_x"):
            pair_sweep(tape, window, 1, 1, 2, ("corr_x",), (1, 1))

    def test_xcorr_order_conditions_warn_once(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(moments, "BLOCK_ELEMENTS", SWEEP_COUNT)  # a block per shift
        _, window = _sweep_window("walk")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["xcorr", _csv_tape(tmp_path, "walk"), "--window", str(window.count),
                         "--start", str(window.start), "--lag", "1", "--max-shift", "6",
                         "--degree-n", "9"]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 14
        assert [w.category for w in caught] == [OrderTooLarge]


def _old_sigmas(moments):
    return tuple(x[1] - x[0] * x[0] for x in moments)


# The window moments against the one-pass formula they replaced
# (helpers.old_window_moments): 40-tick windows over the sweep tapes, the
# whale tape's last ones holding the whale.
@pytest.mark.parametrize("name", ["walk", "whale", "decades"])
class TestMomentsOldPath:
    # blocks of 1 and 7 windows (the last one partial) and the default block
    @pytest.mark.parametrize("block", [1, 7, None])
    def test_moment_reports(self, name, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(moments, "BLOCK_ELEMENTS", block * SWEEP_COUNT)
        tape, lag = _sweep_tape(name), 3
        reports = moment_reports(tape, WindowSpec(lag, SWEEP_COUNT), lag, 8, 3)
        assert len(reports) == (len(tape) - SWEEP_COUNT - lag) // 3 + 1
        assert len(reports) % 7 != 0
        for rep in reports:
            window = resolve(tape, WindowSpec(rep.window_start, SWEEP_COUNT), LagSpec(lag))
            want = old_window_moments(window, lag, 8)
            got = (rep.value_moments, rep.volume_moments, rep.price_moments,
                   rep.adj_value_moments, rep.adj_price_moments, rep.return_moments)
            assert got == want, rep.window_start
            assert (rep.sigma_C2, rep.sigma_U2, rep.sigma_p2, rep.sigma_Ca2, rep.sigma_pa2,
                    rep.sigma_r2) == _old_sigmas(want)

    @pytest.mark.parametrize("order", [1, 2, 8])
    def test_reports_are_python_numbers(self, name, order):
        # the reports, read back from the kernel's float table, equal the
        # reports built from the reference moments: header cells are ints,
        # each family a tuple of order floats, each sigma a float
        tape, lag = _sweep_tape(name), 2
        reports = moment_reports(tape, WindowSpec(lag, SWEEP_COUNT), lag, order, 5)
        assert len(reports) == (len(tape) - SWEEP_COUNT - lag) // 5 + 1
        for rep in reports:
            window = resolve(tape, WindowSpec(rep.window_start, SWEEP_COUNT), LagSpec(lag))
            families = old_window_moments(window, lag, max(order, 2))
            s_c, s_u, s_p, s_ca, s_pa, s_r = _old_sigmas(families)
            want = MomentReport(rep.window_start, SWEEP_COUNT, lag, order,
                                *(f[:order] for f in families), s_c, s_ca, s_u, s_p, s_pa, s_r)
            assert rep == want
            assert moment_report(window, lag, order) == want
            row = rep.csv_row()
            assert [type(x) for x in row[:4]] == [int] * 4
            assert [type(x) for x in row[4:]] == [float] * (6 * order + 6)
            assert [(type(f), len(f)) for f in (
                rep.value_moments, rep.volume_moments, rep.price_moments, rep.adj_value_moments,
                rep.adj_price_moments, rep.return_moments)] == [(tuple, order)] * 6

    def test_single_window_views(self, name):
        for pair in _pairs(name):
            for window in (pair.window1, pair.window2):
                lag = window.lag_l
                c, u, p, ca, pa, r = old_window_moments(window, lag, 8)
                for n in DEGREES:
                    assert price_moment(window, n) == p[n - 1]
                    assert adjusted_moments(window, lag, n) == (ca[n - 1], pa[n - 1])
                    assert return_moment(window, lag, n) == r[n - 1]
                s_c, s_u, s_p, s_ca, s_pa, s_r = _old_sigmas((c, u, p, ca, pa, r))
                assert dispersions(window, lag).astuple() == (s_c, s_ca, s_u, s_p, s_pa)
                vol = return_volatility(window, lag)
                assert vol.via_moments == s_r
                assert vol.via_values == (s_c * ca[0] * ca[0] - s_ca * c[0] * c[0]) / (
                    ca[0] * ca[0] * ca[1])
                assert vol.via_prices == (s_p * pa[0] * pa[0] - s_pa * p[0] * p[0]) / (
                    pa[0] * pa[0] * pa[1])


def _count_crosses(monkeypatch):
    # (block cache, kind, n, m) of each evaluation of a cross expectation;
    # kind "weights" is the price kinds' shared volume weights
    evaluate, evaluated = moments._Series._cross, []

    def counted(self, kind, other, n, m):
        evaluated.append((self, kind, n, m))
        return evaluate(self, kind, other, n, m)

    monkeypatch.setattr(moments._Series, "_cross", counted)
    return evaluated


def test_report_evaluates_each_cross_expectation_once(monkeypatch):
    evaluated = _count_crosses(monkeypatch)
    tape = _sweep_tape("decades")
    correlation_report(pair_windows(tape, WindowSpec(len(tape) - 40, 40), 3, 2, shift_j=7))
    assert sorted(e[1:] for e in evaluated) == sorted(
        [(kind, 1, 1) for kind in KINDS] + [("weights", 1, 1)])


@pytest.mark.parametrize("degrees", [(1, 1), (2, 3)])
@pytest.mark.parametrize("stats", [(CORR_R,), (CORR_RU, CORR_RP)], ids=["acorr", "xcorr"])
def test_sweep_evaluates_each_cross_expectation_once_per_block(stats, degrees, monkeypatch):
    monkeypatch.setattr(moments, "BLOCK_ELEMENTS", 4 * SWEEP_COUNT)  # 4 shifts a block
    evaluated = _count_crosses(monkeypatch)
    tape, window = _sweep_window("walk")
    n, m = degrees
    rows = list(pair_sweep(tape, window, 3, 2, 13, stats, degrees))
    assert len(rows) == 14
    if stats == (CORR_R,):
        want = [(kind, 1, 1) for kind in (
            "value_value", "adjvalue_adjvalue", "price_price", "adjprice_adjprice", "weights")]
    else:
        want = [("value_volume", 1, 1), ("value_value", n, m), ("adjvalue_volume", n, m)]
    blocks = {}
    for block, *key in evaluated:
        blocks.setdefault(id(block), []).append(tuple(key))
    assert len(blocks) == 4
    for keys in blocks.values():
        assert sorted(keys) == sorted(want)


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
