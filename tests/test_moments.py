import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vawar import moments
from vawar.errors import (
    EmptySeries,
    InsufficientHistory,
    OrderExceedsWindow,
    OrderTooLarge,
    WindowOutOfRange,
)
from vawar.moments import (
    MomentReport,
    adjusted_moments,
    adjusted_value_series,
    dispersions,
    freq_moment,
    moment_report,
    moment_reports,
    price_moment,
    return_moment,
    return_series,
    return_volatility,
)
from oracle import oracle
from vawar.synth import GenConfig, HeavyTailVolume, WalkPrice, WhaleVolume, generate
from vawar.tape import LagSpec, TradeTape, WindowSpec, resolve

from helpers import assert_close, random_case

REL = 1e-12


class TestFreqMoment:
    def test_fixture_values(self, window_a):
        assert freq_moment(window_a.values, 1) == pytest.approx(20.0, rel=REL)
        assert freq_moment(window_a.volumes, 2) == pytest.approx(50.0, rel=REL)

    def test_constant_series(self):
        assert freq_moment([7.5] * 9, 1) == pytest.approx(7.5, rel=REL)

    def test_empty(self):
        with pytest.raises(EmptySeries):
            freq_moment([], 2)

    def test_order_warnings(self):
        with pytest.warns(OrderTooLarge):
            freq_moment(list(range(1, 15)), 9)
        with pytest.warns(OrderExceedsWindow):
            freq_moment([1.0, 2.0, 3.0], 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            freq_moment(list(range(1, 15)), 9, order_cap=12)

    def test_overflowing_scale_is_inf(self):
        # (1e200)**2 overflows Python's float ** int, which raises
        assert freq_moment([1e200, 1e200], 2) == math.inf

    def test_scaled_is_inf_only_where_the_scale_overflows(self):
        xs = np.array([1.0, 3.0])
        assert moments._scaled([1e200, 2.0], xs, 2).tolist() == [math.inf, 12.0]
        assert moments._scaled([-1e200, 2.0], xs, 3).tolist() == [-math.inf, 24.0]
        assert moments._scaled([1e100, 2.0], xs, 2).tolist() == [1e100**2, 12.0]
        # an overflow mid-block leaves the other scales as float ** int gives them
        scales = [1.5, -3.0, 1e200, 0.7, -1e120]
        assert moments._scaled(scales, np.array([2.0, 0.5, 1.0, 3.0, 1.0]), 3).tolist() == [
            1.5**3 * 2.0, (-3.0)**3 * 0.5, math.inf, 0.7**3 * 3.0, -math.inf]


class TestPriceMoment:
    def test_fixture(self, window_a):
        assert price_moment(window_a, 1) == pytest.approx(3.0, rel=REL)
        assert price_moment(window_a, 2) == pytest.approx(12.0, rel=REL)

    def test_constant_price_powers(self):
        tape = TradeTape.from_arrays([3.0] * 8, [1, 5, 2, 9, 4, 7, 3, 6])
        window = resolve(tape, WindowSpec(1, 6), LagSpec(1))
        for n in range(1, 5):
            assert price_moment(window, n) == pytest.approx(3.0**n, rel=REL)


class TestAdjusted:
    def test_series(self, window_a):
        assert adjusted_value_series(window_a, 1).tolist() == [10.0, 20.0, 20.0]

    def test_moments(self, window_a):
        ca1, pa1 = adjusted_moments(window_a, 1, 1)
        assert ca1 == pytest.approx(50.0 / 3.0, rel=REL)
        assert pa1 == pytest.approx(2.5, rel=REL)
        ca2, pa2 = adjusted_moments(window_a, 1, 2)
        assert ca2 == pytest.approx(300.0, rel=REL)
        assert pa2 == pytest.approx(6.0, rel=REL)

    def test_constant_price_adjusts_to_volume(self):
        tape = TradeTape.from_arrays([2.5] * 8, [1, 5, 2, 9, 4, 7, 3, 6])
        window = resolve(tape, WindowSpec(2, 5), LagSpec(2))
        series = adjusted_value_series(window, 2)
        np.testing.assert_allclose(series, 2.5 * window.volumes, rtol=REL)
        for n in (1, 2, 3):
            _, pa = adjusted_moments(window, 2, n)
            assert pa == pytest.approx(2.5**n, rel=REL)

    def test_history_required(self, tape_a):
        window = resolve(tape_a, WindowSpec(1, 3), LagSpec(1))
        with pytest.raises(InsufficientHistory):
            adjusted_value_series(window, 2)


class TestReturns:
    def test_forms(self, window_a):
        assert return_series(window_a, 1, "ratio").tolist() == [1.0, 2.0, 0.5]
        assert return_series(window_a, 1, "conventional").tolist() == [0.0, 1.0, -0.5]
        tape = TradeTape.from_arrays([4.0] * 6, [2, 3, 4, 5, 6, 7])
        window = resolve(tape, WindowSpec(2, 4), LagSpec(2))
        assert return_series(window, 2, "log").tolist() == [0.0] * 4

    def test_unknown_form(self, window_a):
        with pytest.raises(ValueError):
            return_series(window_a, 1, "percent")

    def test_moments(self, window_a):
        assert return_moment(window_a, 1, 1) == pytest.approx(1.2, rel=REL)
        assert return_moment(window_a, 1, 2) == pytest.approx(2.0, rel=REL)

    def test_constant_price_all_orders_one(self):
        tape = TradeTape.from_arrays([1.7] * 9, [5, 1, 4, 2, 8, 3, 9, 6, 7])
        window = resolve(tape, WindowSpec(3, 6), LagSpec(3))
        for n in range(1, 5):
            assert return_moment(window, 3, n) == pytest.approx(1.0, rel=REL)

    def test_repeated_trade_powers(self):
        # p_prev for the first l ticks, p afterwards; window sits fully in
        # the second regime with every lagged price in the first.
        p_prev, p, lag = 1.6, 2.0, 4
        prices = [p_prev] * lag + [p] * lag
        tape = TradeTape.from_arrays(prices, [7.0] * (2 * lag))
        window = resolve(tape, WindowSpec(lag, lag), LagSpec(lag))
        for n in range(1, 5):
            assert return_moment(window, lag, n) == pytest.approx(
                (p / p_prev) ** n, rel=REL
            )


class TestDispersionsAndVolatility:
    def test_fixture(self, window_a):
        d = dispersions(window_a, 1)
        assert d.sigma_C2 == pytest.approx(200.0, rel=REL)
        assert d.sigma_Ca2 == pytest.approx(200.0 / 9.0, rel=1e-11)
        assert d.sigma_U2 == pytest.approx(50.0 / 9.0, rel=1e-11)
        assert d.sigma_p2 == pytest.approx(3.0, rel=REL)
        assert d.sigma_pa2 == pytest.approx(-0.25, rel=REL)

    def test_sigma_pa2_negative_not_clamped(self, window_a):
        assert dispersions(window_a, 1).sigma_pa2 < 0

    def test_constant_tape_all_zero(self):
        tape = TradeTape.from_arrays([2.0] * 8, [5.0] * 8)
        window = resolve(tape, WindowSpec(2, 5), LagSpec(2))
        d = dispersions(window, 2)
        assert d.astuple() == (0.0, 0.0, 0.0, 0.0, 0.0)
        vol = return_volatility(window, 2)
        assert vol.value == 0.0
        assert vol.via_values == 0.0
        assert vol.via_prices == 0.0

    def test_fixture_three_routes(self, window_a):
        vol = return_volatility(window_a, 1)
        assert vol.via_moments == pytest.approx(0.56, rel=1e-11)
        assert vol.via_values == pytest.approx(0.56, rel=1e-11)
        assert vol.via_prices == pytest.approx(0.56, rel=1e-11)
        assert vol.value == vol.via_moments

    @pytest.mark.parametrize("seed", range(40))
    def test_three_routes_agree_random(self, seed):
        case = random_case(seed)
        window = resolve(case["tape"], case["window"], case["lags"])
        lag = case["lags"].lag_l
        vol = return_volatility(window, lag)
        # sigma_r^2 is a difference r2 - r1^2; when it cancels to ~0 the
        # routes can only agree to 1e-10 of the differenced magnitudes.
        floor = 1e-10 * max(abs(return_moment(window, lag, 2)),
                            return_moment(window, lag, 1) ** 2)
        assert_close(vol.via_moments, vol.via_values, 1e-10, abs_floor=floor,
                     msg="moment route vs value route")
        assert_close(vol.via_moments, vol.via_prices, 1e-10, abs_floor=floor,
                     msg="moment route vs price route")


def _identity_case(window, lag, n):
    c_n = freq_moment(window.values, n)
    u_n = freq_moment(window.volumes, n)
    p_n = price_moment(window, n)
    ca_n, pa_n = adjusted_moments(window, lag, n)
    r_n = return_moment(window, lag, n)
    assert_close(c_n, p_n * u_n, REL, msg=f"C=pU n={n}")
    assert_close(ca_n, pa_n * u_n, REL, msg=f"Ca=paU n={n}")
    assert_close(r_n, c_n / ca_n, REL, msg=f"r=C/Ca n={n}")
    assert_close(r_n, p_n / pa_n, REL, msg=f"r=p/pa n={n}")
    assert_close(c_n, r_n * ca_n, REL, msg=f"C=r*Ca n={n}")
    # weighted construction: E[p_lag^n U^n] - pa_n * U(t;n) vanishes
    assert_close(ca_n - pa_n * u_n, 0.0, 0.0, abs_floor=REL * ca_n, msg="E-paU")


class TestIdentities:
    @pytest.mark.parametrize("seed", range(60))
    def test_product_identities_random(self, seed):
        case = random_case(seed)
        window = resolve(case["tape"], case["window"], case["lags"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OrderExceedsWindow)
            for n in range(1, 5):
                _identity_case(window, case["lags"].lag_l, n)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_product_identities_hypothesis(self, seed):
        case = random_case(seed)
        window = resolve(case["tape"], case["window"], case["lags"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OrderExceedsWindow)
            _identity_case(window, case["lags"].lag_l, case["n"])


class TestScaleInvariance:
    @pytest.mark.parametrize("seed", range(25))
    def test_price_and_volume_rescaling(self, seed):
        case = random_case(seed)
        tape = case["tape"]
        lag = case["lags"].lag_l
        window = resolve(tape, case["window"], case["lags"])
        s, u = 7.3, 0.0421
        scaled_p = TradeTape.from_arrays(tape.prices * s, tape.volumes)
        scaled_u = TradeTape.from_arrays(tape.prices, tape.volumes * u)
        window_p = resolve(scaled_p, case["window"], case["lags"])
        window_u = resolve(scaled_u, case["window"], case["lags"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OrderExceedsWindow)
            for n in range(1, 5):
                p_n = price_moment(window, n)
                _, pa_n = adjusted_moments(window, lag, n)
                r_n = return_moment(window, lag, n)
                assert_close(price_moment(window_p, n), s**n * p_n, REL,
                             msg=f"p scales s^n n={n}")
                assert_close(adjusted_moments(window_p, lag, n)[1],
                             s**n * pa_n, REL, msg=f"pa scales s^n n={n}")
                assert_close(return_moment(window_p, lag, n), r_n, REL,
                             msg=f"r price-invariant n={n}")
                assert_close(price_moment(window_u, n), p_n, REL,
                             msg=f"p volume-invariant n={n}")
                assert_close(adjusted_moments(window_u, lag, n)[1], pa_n, REL,
                             msg=f"pa volume-invariant n={n}")
                assert_close(return_moment(window_u, lag, n), r_n, REL,
                             msg=f"r volume-invariant n={n}")


class TestMomentReport:
    def test_fixture_report(self, window_a):
        rep = moment_report(window_a, 1, order_max=2)
        assert rep.value_moments == pytest.approx((20.0, 600.0), rel=REL)
        assert rep.volume_moments == pytest.approx((20 / 3, 50.0), rel=REL)
        assert rep.price_moments == pytest.approx((3.0, 12.0), rel=REL)
        assert rep.adj_value_moments == pytest.approx((50 / 3, 300.0), rel=REL)
        assert rep.adj_price_moments == pytest.approx((2.5, 6.0), rel=REL)
        assert rep.return_moments == pytest.approx((1.2, 2.0), rel=REL)
        assert rep.sigma_r2 == pytest.approx(0.56, rel=1e-11)

    def test_serialization_shape(self, window_a):
        rep = moment_report(window_a, 1, order_max=3)
        doc = rep.to_dict()
        for key in ("C_n", "U_n", "p_n", "Ca_n", "pa_n", "r_n"):
            assert len(doc[key]) == 3
        header = MomentReport.csv_header(3)
        row = rep.csv_row()
        assert len(header) == len(row)
        assert header[4] == "C_1"

    def test_report_ratio_invariants(self):
        case = random_case(123)
        window = resolve(case["tape"], case["window"], case["lags"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OrderExceedsWindow)
            rep = moment_report(window, case["lags"].lag_l, order_max=4)
        for n in range(1, 5):
            i = n - 1
            assert_close(
                rep.return_moments[i],
                rep.value_moments[i] / rep.adj_value_moments[i],
                REL, msg=f"report r=C/Ca n={n}",
            )
            assert_close(
                rep.return_moments[i],
                rep.price_moments[i] / rep.adj_price_moments[i],
                REL, msg=f"report r=p/pa n={n}",
            )
        assert_close(
            rep.sigma_r2,
            rep.return_moments[1] - rep.return_moments[0] ** 2,
            REL, msg="sigma_r2 = r2 - r1^2",
        )


# The acceptance suite's oracle tolerance (C06): relative, with sigmas
# floored at 1e-12 of the order-2 moment they are differenced from.
ORACLE_REL = 1e-10

HOSTILE = {
    "whale": GenConfig(ticks=160, seed=5, price=WalkPrice(start=40.0, log_vol=0.05),
                       volume=WhaleVolume(base=2.0, whale_volume=1e9, position=80)),
    "decades": GenConfig(ticks=160, seed=6, price=WalkPrice(start=1.0, log_vol=0.6),
                         volume=HeavyTailVolume(base=5.0, shape=1.5), coupling=0.5),
}

# report field -> oracle statistic; each sigma -> the order-2 moment it anchors on
FAMILIES = (
    ("value_moments", "value_moment"),
    ("volume_moments", "volume_moment"),
    ("price_moments", "price_moment"),
    ("adj_value_moments", "adj_value_moment"),
    ("adj_price_moments", "adj_price_moment"),
    ("return_moments", "return_moment"),
)
SIGMAS = (
    ("sigma_C2", "value_moment"),
    ("sigma_Ca2", "adj_value_moment"),
    ("sigma_U2", "volume_moment"),
    ("sigma_p2", "price_moment"),
    ("sigma_pa2", "adj_price_moment"),
    ("sigma_r2", "return_moment"),
)


def _check_oracle(tape, reports, lag):
    lags = LagSpec(lag_l=lag)
    for rep in reports:
        window = WindowSpec(rep.window_start, rep.window_count)
        at = f"window {rep.window_start}"
        for field, stat in FAMILIES:
            for n, got in enumerate(getattr(rep, field), 1):
                assert_close(got, oracle(tape, window, lags, stat, n=n),
                             ORACLE_REL, msg=f"{at} {stat} n={n}")
        for field, anchor in SIGMAS:
            floor = 1e-12 * abs(oracle(tape, window, lags, anchor, n=2))
            assert_close(getattr(rep, field), oracle(tape, window, lags, field),
                         ORACLE_REL, abs_floor=floor, msg=f"{at} {field}")


def _single_order_report(tape, start, count, lag, order):
    """A window's report assembled from the single-order functions."""
    w = resolve(tape, WindowSpec(start, count), LagSpec(lag))
    orders = range(1, order + 1)
    adj = [adjusted_moments(w, lag, n) for n in orders]
    return MomentReport(
        start, count, lag, order,
        tuple(freq_moment(w.values, n) for n in orders),
        tuple(freq_moment(w.volumes, n) for n in orders),
        tuple(price_moment(w, n) for n in orders),
        tuple(a[0] for a in adj),
        tuple(a[1] for a in adj),
        tuple(return_moment(w, lag, n) for n in orders),
        *dispersions(w, lag).astuple(),
        return_volatility(w, lag).via_moments,
    )


class TestMomentReports:
    def test_decades_tape_spans_decades(self):
        prices = generate(HOSTILE["decades"]).prices
        assert prices.max() / prices.min() > 1e4

    @pytest.mark.parametrize("order", [4, 8])
    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_hostile_tapes_match_oracle(self, name, order):
        tape = generate(HOSTILE[name])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # order 8 is at the default cap
            reports = moment_reports(tape, WindowSpec(3, 40), 3, order, stride=9)
        assert len(reports) == 14
        _check_oracle(tape, reports, 3)

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_order_above_cap_warns_and_matches_oracle(self, name):
        tape = generate(HOSTILE[name])
        with pytest.warns(OrderTooLarge):
            reports = moment_reports(tape, WindowSpec(3, 40), 3, 9, stride=30)
        _check_oracle(tape, reports, 3)

    def test_order_above_window_warns(self, tape_a):
        with pytest.warns(OrderExceedsWindow):
            moment_reports(tape_a, WindowSpec(1, 3), 1, 4)

    # blocks of 1, 4 and 50 windows split 147 windows into whole blocks,
    # 36 blocks and a partial one of 3, and 2 blocks and a partial one of 47
    @pytest.mark.parametrize("block_windows", [1, 4, 50])
    def test_blocks_match_single_order_functions(self, monkeypatch, block_windows):
        tape = generate(HOSTILE["decades"])
        monkeypatch.setattr(moments, "BLOCK_ELEMENTS", 12 * block_windows)
        reports = moment_reports(tape, WindowSpec(2, 12), 2, 5, stride=1)
        assert [r.window_start for r in reports] == list(range(2, 160 - 12 + 1))
        for rep in reports:
            assert rep == _single_order_report(tape, rep.window_start, 12, 2, 5)

    @pytest.mark.parametrize("block_windows, rows", [(1, 10), (4, 12), (7, 14), (50, 50)])
    def test_blocks_are_the_table_whole_kernel_blocks_at_a_time(self, monkeypatch,
                                                               block_windows, rows):
        # each block is the fewest whole kernel blocks that hold BLOCK_ROWS
        tape = generate(HOSTILE["decades"])
        monkeypatch.setattr(moments, "BLOCK_ELEMENTS", 12 * block_windows)
        monkeypatch.setattr(moments, "BLOCK_ROWS", 10)
        blocks = list(moments.moment_blocks(tape, WindowSpec(2, 12), 2, 5, stride=1))
        assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert 0 < len(blocks[-1]) <= rows and len(blocks) > 2
        table = moments.moment_table(tape, WindowSpec(2, 12), 2, 5, stride=1)
        assert np.concatenate(blocks).tobytes() == table.tobytes()

    def test_blocks_check_before_they_return(self, tape_a):
        # nothing is taken from the iterators: the checks run at the call
        with pytest.raises(InsufficientHistory, match="window starting at 0 needs 1 ticks"):
            moments.moment_blocks(tape_a, WindowSpec(0, 3), 1)
        with pytest.warns(OrderExceedsWindow):
            moments.moment_blocks(tape_a, WindowSpec(1, 3), 1, 4)

    def test_default_block_sweep_ends_in_partial_block(self):
        tape = generate(HOSTILE["decades"])
        count = 2
        per_block = moments.BLOCK_ELEMENTS // count
        tape = TradeTape.from_arrays(np.resize(tape.prices, per_block + 40),
                                     np.resize(tape.volumes, per_block + 40))
        reports = moment_reports(tape, WindowSpec(1, count), 1, 2, stride=1)
        assert per_block < len(reports) < 2 * per_block
        for rep in reports[per_block - 2:per_block + 2] + reports[-2:]:
            assert rep == _single_order_report(tape, rep.window_start, count, 1, 2)

    def test_table_is_filled_a_block_at_a_time(self):
        # a 200k-tick sweep holds its table and a few blocks' series and
        # moments, never the moments of every window and a copy of them
        tape = generate(GenConfig.from_json({
            "ticks": 200_000, "seed": 5,
            "price": {"model": "walk", "start": 100.0, "log_vol": 0.025},
            "volume": {"model": "heavy_tail", "base": 50.0, "shape": 2.5}}))
        block = 4 * moments.BLOCK_ELEMENTS * 8  # a block's four float64 tape series
        tracemalloc.start()
        try:
            table = moments.moment_table(tape, WindowSpec(10, 30), 1, 8, stride=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.shape == (len(range(10, len(tape) - 30 + 1, 7)), 4 + 6 * 8 + 6)
        assert peak <= table.nbytes + 10 * block, (peak - table.nbytes) / block

    def test_stride_zero_is_the_window_alone(self):
        tape = generate(HOSTILE["decades"])
        [rep] = moment_reports(tape, WindowSpec(5, 12), 2, 4, stride=0)
        assert rep == _single_order_report(tape, 5, 12, 2, 4)
        assert rep == moment_report(resolve(tape, WindowSpec(5, 12), LagSpec(2)), 2, 4)

    def test_stride_longer_than_window(self):
        tape = generate(HOSTILE["decades"])
        reports = moment_reports(tape, WindowSpec(5, 12), 2, 2, stride=13)
        assert [r.window_start for r in reports] == list(range(5, 149, 13))
        for rep in reports:
            assert rep == _single_order_report(tape, rep.window_start, 12, 2, 2)

    def test_stride_longer_than_tape(self):
        tape = generate(HOSTILE["whale"])
        reports = moment_reports(tape, WindowSpec(5, 12), 2, 2, stride=1000)
        assert [r.window_start for r in reports] == [5]

    def test_negative_stride(self, tape_a):
        with pytest.raises(ValueError, match="stride"):
            moment_reports(tape_a, WindowSpec(1, 3), 1, 2, stride=-1)

    def test_errors_name_the_window(self, tape_a):
        with pytest.raises(InsufficientHistory,
                           match=r"^window starting at 1 needs 2 ticks of history$"):
            moment_reports(tape_a, WindowSpec(1, 3), 2, 2, stride=1)
        with pytest.raises(WindowOutOfRange,
                           match=r"^window \[2, 5\) exceeds tape of 4 ticks$"):
            moment_reports(tape_a, WindowSpec(2, 3), 1, 2, stride=1)
        window = resolve(tape_a, WindowSpec(1, 3), LagSpec(1))
        with pytest.raises(InsufficientHistory,
                           match=r"^window starting at 1 needs 2 ticks of history$"):
            moment_report(window, 2)
