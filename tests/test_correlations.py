import dataclasses
import math
import warnings

import numpy as np
import pytest

from vawar.correlations import (
    PairedWindows,
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
from vawar.errors import InsufficientHistory, MismatchedWindows, OrderExceedsWindow
from vawar.moments import adjusted_moments, freq_moment, return_volatility
from oracle import oracle
from vawar.tape import LagSpec, TradeTape, WindowSpec, resolve

from helpers import (
    assert_close,
    corr_pau2_anchor,
    corr_r_anchor,
    corr_rp_anchor,
    corr_ru_anchor,
    random_case,
    two_lag_anchor,
)

REL = 1e-12


@pytest.fixture
def pair_a(window_a):
    return self_pair(window_a)


class TestPairedWindows:
    def test_fixture_self_pair(self, pair_a):
        assert pair_a.shift_j == 0
        assert pair_a.count == 3

    def test_unequal_sizes_rejected(self, tape_a):
        w1 = resolve(tape_a, WindowSpec(1, 3), LagSpec(1))
        w2 = resolve(tape_a, WindowSpec(1, 2), LagSpec(1))
        with pytest.raises(MismatchedWindows):
            PairedWindows(w1, w2)

    def test_negative_shift_rejected(self, tape_a):
        w1 = resolve(tape_a, WindowSpec(1, 2), LagSpec(1))
        w2 = resolve(tape_a, WindowSpec(2, 2), LagSpec(1))
        with pytest.raises(MismatchedWindows):
            PairedWindows(w1, w2)

    def test_different_tapes_rejected(self, tape_a):
        other = TradeTape.from_arrays([2, 2, 4, 2], [10, 5, 10, 5])
        w1 = resolve(tape_a, WindowSpec(1, 3), LagSpec(1))
        w2 = resolve(other, WindowSpec(1, 3), LagSpec(1))
        with pytest.raises(MismatchedWindows):
            PairedWindows(w1, w2)

    def test_history_needed_for_shifted_window(self, tape_a):
        with pytest.raises(InsufficientHistory):
            pair_windows(tape_a, WindowSpec(1, 3), lag1=1, lag2=1, shift_j=1)


class TestPairedExpectation:
    def test_fixture_self_products(self, pair_a):
        assert paired_expectation("value_value", pair_a) == pytest.approx(
            600.0, rel=REL
        )
        assert paired_expectation("adjvalue_volume", pair_a) == pytest.approx(
            350.0 / 3.0, rel=REL
        )
        assert paired_expectation("price_price", pair_a) == pytest.approx(
            12.0, rel=REL
        )

    def test_unknown_kind(self, pair_a):
        with pytest.raises(ValueError):
            paired_expectation("volume_price", pair_a)

    @pytest.mark.parametrize(
        "kind",
        [
            "value_value",
            "adjvalue_adjvalue",
            "volume_volume",
            "value_volume",
            "adjvalue_volume",
            "price_price",
            "adjprice_adjprice",
        ],
    )
    @pytest.mark.parametrize("seed", [3, 11, 19])
    def test_matches_oracle(self, kind, seed):
        case = random_case(seed)
        pair = pair_windows(
            case["tape"], case["window"], case["lags"].lag_l, case["lag2"],
            case["lags"].window_shift_j,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OrderExceedsWindow)
            got = paired_expectation(kind, pair, degrees=(case["n"], case["m"]))
        want = oracle(
            case["tape"], case["window"], case["lags"], kind,
            n=case["n"], m=case["m"], lag2=case["lag2"],
        )
        assert_close(got, want, 1e-10, msg=kind)


class TestReturnAutocorr:
    def test_self_pair_is_volatility(self, window_a, pair_a):
        ac = return_autocorr(pair_a)
        sigma = return_volatility(window_a, 1).via_moments
        assert ac.definitional == pytest.approx(0.56, rel=1e-11)
        assert_close(ac.definitional, sigma, REL, msg="self pair = sigma_r2")
        assert_close(ac.value_form, sigma, REL, msg="value form = sigma_r2")
        assert_close(ac.price_form, sigma, REL, msg="price form = sigma_r2")

    def test_constant_price_zero(self):
        tape = TradeTape.from_arrays([3.0] * 12, np.arange(1.0, 13.0))
        pair = pair_windows(tape, WindowSpec(4, 6), 2, 1, shift_j=2)
        ac = return_autocorr(pair)
        assert abs(ac.definitional) < 1e-14
        assert abs(ac.value_form) < 1e-14
        assert abs(ac.price_form) < 1e-14

    @pytest.mark.parametrize("seed", range(30))
    def test_forms_agree_and_match_oracle(self, seed):
        case = random_case(seed)
        pair = pair_windows(
            case["tape"], case["window"], case["lags"].lag_l, case["lag2"],
            case["lags"].window_shift_j,
        )
        ac = return_autocorr(pair)
        want = oracle(
            case["tape"], case["window"], case["lags"], "corr_r",
            lag2=case["lag2"],
        )
        # correlations cancel E[r r2] against E[r] E[r2]; scale the floor
        # to the magnitudes the routes manipulate
        floor = 1e-12 * corr_r_anchor(pair)
        assert_close(ac.definitional, want, 1e-10, abs_floor=floor,
                     msg="definitional vs oracle")
        assert_close(ac.value_form, ac.price_form, 1e-10, abs_floor=floor,
                     msg="value vs price form")
        assert_close(ac.definitional, ac.value_form, 1e-10, abs_floor=floor,
                     msg="definitional vs value form")

    def test_64_tick_tape_specific_lags(self):
        rng = np.random.default_rng(424242)
        prices = 30.0 * np.exp(np.cumsum(rng.normal(0, 0.03, 72)))
        volumes = np.exp(rng.normal(3.0, 1.0, 72))
        tape = TradeTape.from_arrays(prices, volumes)
        window = WindowSpec(8, 64)
        pair = pair_windows(tape, window, 1, 2, shift_j=3)
        ac = return_autocorr(pair)
        want = oracle(tape, window, LagSpec(lag_l=1, window_shift_j=3),
                      "corr_r", lag2=2)
        floor = 1e-12 * corr_r_anchor(pair)
        assert_close(ac.value_form, want, 1e-10, abs_floor=floor)
        assert_close(ac.price_form, want, 1e-10, abs_floor=floor)

    def test_zero_when_value_and_adjvalue_correlations_vanish(self):
        # geometric price with inverse-geometric volume keeps both C and
        # C_a constant, so corr_C = corr_Ca = 0 and corr_r must vanish.
        growth, c = 1.02, 25.0
        n = 24
        prices = growth ** np.arange(n)
        volumes = c / prices
        tape = TradeTape.from_arrays(prices, volumes)
        for lag1, lag2, j in [(1, 1, 0), (1, 2, 3), (2, 3, 1)]:
            pair = pair_windows(tape, WindowSpec(8, 12), lag1, lag2, shift_j=j)
            ac = return_autocorr(pair)
            assert abs(ac.definitional) < 1e-12
            assert abs(ac.value_form) < 1e-12
            assert abs(ac.price_form) < 1e-12


class TestOverflowedMoments:
    """Tick 4's lagged price 3e154 overflows window 1's adjusted moments of
    order 2 and up and the cross expectations of its adjusted values:
    every correlation reading one is NaN in every form."""

    @pytest.fixture
    def pair(self):
        prices = 10.0 + np.arange(12.0) % 3
        prices[4] = 3e154
        tape = TradeTape.from_arrays(prices, 2.0 + np.arange(12.0) % 2)
        return pair_windows(tape, WindowSpec(5, 3), 1, 1, 0)

    def test_return_autocorr(self, pair):
        ac = return_autocorr(pair)
        assert [math.isnan(f) for f in (ac.definitional, ac.value_form, ac.price_form)] == [
            True] * 3

    def test_return_price_corr(self, pair):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rp = return_price_corr(pair, 3, 4)
        assert math.isnan(rp.definitional) and math.isnan(rp.closed_form)

    def test_two_lag_autocorr(self, pair):
        res = same_day_two_lag_autocorr(pair.window1, 1, 1)
        assert math.isnan(res.exact) and math.isnan(res.approximation)


class TestTwoLagAutocorr:
    def test_equal_lags_reduce_to_volatility(self, window_a):
        res = same_day_two_lag_autocorr(window_a, 1, 1)
        assert res.exact == pytest.approx(0.56, rel=1e-11)

    def test_constant_tape_zero(self):
        tape = TradeTape.from_arrays([2.0] * 10, [7.0] * 10)
        window = resolve(tape, WindowSpec(3, 6), LagSpec(1))
        res = same_day_two_lag_autocorr(window, 1, 3)
        assert res.exact == pytest.approx(0.0, abs=1e-15)
        assert res.approximation == pytest.approx(0.0, abs=1e-15)
        assert res.residual == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("seed", [0, 5, 9, 21])
    def test_exact_matches_oracle(self, seed):
        case = random_case(seed)
        window = resolve(case["tape"], case["window"], case["lags"])
        lag2 = case["lag2"]
        res = same_day_two_lag_autocorr(window, case["lags"].lag_l, lag2)
        lags0 = LagSpec(lag_l=case["lags"].lag_l, window_shift_j=0)
        want = oracle(case["tape"], case["window"], lags0, "corr_r", lag2=lag2)
        want_approx = oracle(
            case["tape"], case["window"], lags0, "two_lag_approx", lag2=lag2
        )
        floor = 1e-12 * two_lag_anchor(window, case["lags"].lag_l, lag2)
        assert_close(res.exact, want, 1e-10, abs_floor=floor, msg="exact")
        assert_close(res.approximation, want_approx, 1e-10, abs_floor=floor,
                     msg="approx")
        assert_close(res.residual, res.exact - res.approximation, REL,
                     abs_floor=1e-15, msg="residual")


class TestReturnVolumeCorr:
    def test_fixture(self, pair_a):
        ru = return_volume_corr(pair_a)
        assert ru.definitional == pytest.approx(2.0, rel=1e-11)
        assert ru.closed_form == pytest.approx(2.0, rel=1e-11)
        assert ru.closed_form_prices == pytest.approx(2.0, rel=1e-11)

    def test_fixture_intermediates(self, window_a, pair_a):
        # E[r U] = 10 and r(1) U(1) = 8 feed the definitional route
        cu = paired_expectation("value_volume", pair_a)
        ca1 = freq_moment(window_a.lagged_prices() * window_a.volumes, 1)
        assert cu / ca1 == pytest.approx(10.0, rel=REL)

    def test_constant_price_constant_volume_zero(self):
        tape = TradeTape.from_arrays([5.0] * 10, [3.0] * 10)
        pair = pair_windows(tape, WindowSpec(3, 5), 1, 1, shift_j=2)
        ru = return_volume_corr(pair)
        assert abs(ru.definitional) < 1e-13
        assert abs(ru.closed_form) < 1e-13

    def test_constant_price_reduces_to_volume_correlation(self):
        # with r == 1 the C_a weights still reshuffle E[r U2], leaving
        # corr_rU = corr_U(t|t2) / U(t;1); self-paired: sigma_U^2 / U(t;1)
        volumes = np.arange(2.0, 12.0)
        tape = TradeTape.from_arrays([5.0] * 10, volumes)
        pair = pair_windows(tape, WindowSpec(3, 5), 1, 1, shift_j=2)
        u1 = volumes[3:8]
        u2 = volumes[1:6]
        want = (np.mean(u1 * u2) - np.mean(u1) * np.mean(u2)) / np.mean(u1)
        ru = return_volume_corr(pair)
        assert ru.definitional == pytest.approx(want, rel=1e-12)
        window = resolve(tape, WindowSpec(3, 5), LagSpec(1))
        self_ru = return_volume_corr(self_pair(window))
        sigma_u2 = np.mean(u1 * u1) - np.mean(u1) ** 2
        assert self_ru.definitional == pytest.approx(
            sigma_u2 / np.mean(u1), rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_routes_agree_and_match_oracle(self, seed):
        case = random_case(seed)
        pair = pair_windows(
            case["tape"], case["window"], case["lags"].lag_l, case["lag2"],
            case["lags"].window_shift_j,
        )
        ru = return_volume_corr(pair)
        want = oracle(case["tape"], case["window"], case["lags"], "corr_rU",
                      lag2=case["lag2"])
        floor = 1e-12 * corr_ru_anchor(pair)
        assert_close(ru.definitional, want, 1e-10, abs_floor=floor,
                     msg="definitional vs oracle")
        assert_close(ru.definitional, ru.closed_form, 1e-10, abs_floor=floor,
                     msg="defining vs closed form")
        assert_close(ru.closed_form, ru.closed_form_prices, 1e-10,
                     abs_floor=floor, msg="closed-form denominators")


class TestReturnPriceCorr:
    def test_fixture(self, pair_a):
        rp = return_price_corr(pair_a, 1, 1)
        assert rp.definitional == pytest.approx(54.0 / 35.0, rel=1e-11)
        assert rp.closed_form == pytest.approx(54.0 / 35.0, rel=1e-11)

    def test_fixture_intermediates(self, pair_a):
        # E[r p] = 1800/350 and r(1) p(1) = 3.6 feed the defining route
        e_rp = (paired_expectation("value_value", pair_a)
                / paired_expectation("adjvalue_volume", pair_a))
        assert e_rp == pytest.approx(1800.0 / 350.0, rel=1e-12)
        assert e_rp - 1.2 * 3.0 == pytest.approx(54.0 / 35.0, rel=1e-11)

    def test_constant_price_zero(self):
        tape = TradeTape.from_arrays([5.0] * 12, np.arange(2.0, 14.0))
        pair = pair_windows(tape, WindowSpec(4, 6), 2, 1, shift_j=1)
        for n, m in [(1, 1), (2, 1), (1, 3)]:
            rp = return_price_corr(pair, n, m)
            assert abs(rp.definitional) < 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_routes_agree_and_match_oracle(self, seed):
        case = random_case(seed)
        pair = pair_windows(
            case["tape"], case["window"], case["lags"].lag_l, case["lag2"],
            case["lags"].window_shift_j,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OrderExceedsWindow)
            rp = return_price_corr(pair, case["n"], case["m"])
            floor = 1e-12 * corr_rp_anchor(pair, case["n"], case["m"])
        want = oracle(
            case["tape"], case["window"], case["lags"], "corr_rp",
            n=case["n"], m=case["m"], lag2=case["lag2"],
        )
        assert_close(rp.definitional, want, 1e-10, abs_floor=floor,
                     msg="defining route vs oracle")
        assert_close(rp.definitional, rp.closed_form, 1e-10, abs_floor=floor,
                     msg="defining vs closed form")


    @pytest.mark.parametrize("n, m, want", [
        (9, 1, ["OrderTooLarge"]),
        (9, 9, ["OrderTooLarge", "OrderTooLarge"]),
        (1, 40, ["OrderTooLarge", "OrderExceedsWindow"]),
    ])
    def test_each_order_condition_warns_once(self, n, m, want):
        tape = TradeTape.from_arrays(np.exp(np.linspace(0.0, 0.3, 80)), np.arange(1.0, 81.0))
        pair = pair_windows(tape, WindowSpec(40, 30), 1, shift_j=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rp = return_price_corr(pair, n, m)
        assert [w.category.__name__ for w in caught] == want
        # the checked public functions give the same numbers
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            w1, w2 = pair.window1, pair.window2
            cnm = paired_expectation("value_value", pair, degrees=(n, m))
            cau = paired_expectation("adjvalue_volume", pair, degrees=(n, m))
            r_n = freq_moment(w1.values, n) / adjusted_moments(w1, 1, n)[0]
            p_m = freq_moment(w2.values, m) / freq_moment(w2.volumes, m)
        assert rp.definitional == cnm / cau - r_n * p_m


class TestAdjPriceVolumeSq:
    def test_fixture(self, window_a):
        res = adjprice_volume_sq_corr(window_a, 1)
        assert res.direct == pytest.approx(-25.0 / 3.0, rel=1e-11)
        assert res.identity_form == pytest.approx(-25.0 / 3.0, rel=1e-11)

    def test_constant_volume_zero(self):
        tape = TradeTape.from_arrays(np.linspace(2.0, 3.0, 10), [4.0] * 10)
        window = resolve(tape, WindowSpec(2, 6), LagSpec(2))
        res = adjprice_volume_sq_corr(window, 2)
        assert res.direct == pytest.approx(0.0, abs=1e-13)
        assert res.identity_form == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("seed", range(20))
    def test_routes_agree_and_match_oracle(self, seed):
        case = random_case(seed)
        window = resolve(case["tape"], case["window"], case["lags"])
        lag = case["lags"].lag_l
        res = adjprice_volume_sq_corr(window, lag)
        want = oracle(case["tape"], case["window"],
                      LagSpec(lag_l=lag), "corr_paU2")
        floor = 1e-12 * corr_pau2_anchor(window)
        assert_close(res.direct, want, 1e-10, abs_floor=floor,
                     msg="direct vs oracle")
        assert_close(res.direct, res.identity_form, 1e-10, abs_floor=floor,
                     msg="direct vs identity")


class TestCorrelationReport:
    def test_every_corr_is_cross_minus_product(self):
        case = random_case(77)
        tape, window = case["tape"], case["window"]
        lag1, lag2, j = case["lags"].lag_l, case["lag2"], case["lags"].window_shift_j
        pair = pair_windows(tape, window, lag1, lag2, j)
        rep = correlation_report(pair)
        w1, w2 = pair.window1, pair.window2
        from vawar.moments import adjusted_moments, price_moment

        c1, c2 = freq_moment(w1.values, 1), freq_moment(w2.values, 1)
        u1, u2 = freq_moment(w1.volumes, 1), freq_moment(w2.volumes, 1)
        ca1, pa1 = adjusted_moments(w1, lag1, 1)
        ca2, pa2 = adjusted_moments(w2, lag2, 1)
        assert rep.corr_C == pytest.approx(rep.cross_value - c1 * c2, rel=REL)
        assert rep.corr_Ca == pytest.approx(rep.cross_adj_value - ca1 * ca2, rel=REL)
        assert rep.corr_U == pytest.approx(rep.cross_volume - u1 * u2, rel=REL)
        assert rep.corr_p == pytest.approx(
            rep.cross_price - price_moment(w1, 1) * price_moment(w2, 1), rel=REL
        )
        assert rep.corr_pa == pytest.approx(
            rep.cross_adj_price - pa1 * pa2, rel=REL
        )
        assert rep.corr_r == pytest.approx(
            rep.cross_return - (c1 / ca1) * (c2 / ca2), rel=1e-9
        )

    def test_swap_symmetry_at_zero_shift(self, tape_a):
        pair = pair_windows(tape_a, WindowSpec(2, 2), 1, 2, shift_j=0)
        swapped = pair_windows(tape_a, WindowSpec(2, 2), 2, 1, shift_j=0)
        rep, rep_s = correlation_report(pair), correlation_report(swapped)
        assert rep.corr_C == pytest.approx(rep_s.corr_C, rel=REL)
        assert rep.corr_U == pytest.approx(rep_s.corr_U, rel=REL)
        assert rep.cross_value == pytest.approx(rep_s.cross_value, rel=REL)

    def test_normalized_extension(self, pair_a):
        rep = correlation_report(pair_a)
        # self pair: corr_r normalized by sigma_r^2 gives exactly 1
        assert rep.normalized["corr_r"] == pytest.approx(1.0, rel=1e-10)
        # fixture A has sigma_pa2 < 0: normalized corr_pa is undefined
        assert math.isnan(rep.normalized["corr_pa"])

    def test_to_dict_follows_field_order(self, pair_a):
        rep = correlation_report(pair_a)
        rep = dataclasses.replace(rep, normalized=dict(reversed(rep.normalized.items())))
        doc = rep.to_dict()
        assert list(doc) == [f.name for f in dataclasses.fields(rep)]
        assert list(doc["normalized"]) == sorted(rep.normalized)
        assert all(doc[k] == getattr(rep, k) for k in doc if k != "normalized")

    def test_serialization(self, pair_a):
        doc = correlation_report(pair_a).to_dict()
        assert doc["corr_rU"] == pytest.approx(2.0, rel=1e-11)
        assert set(doc["normalized"]) == {
            "corr_C", "corr_Ca", "corr_U", "corr_p", "corr_pa", "corr_r",
        }
