"""The one integer rule (``vawar.tape.integral``): a lag, a shift, a stride,
a moment order and a window coordinate are whole numbers.  An int, a numpy
integer or a float equal to an int is taken as that int; anything else
raises a ValueError subclass that names the argument."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vawar import tape as tape_module
from vawar.charfn import GridSpec, fit_charfn, invert_density
from vawar.cli import main
from vawar.correlations import (
    CORR_R,
    CORR_RP,
    CORR_RU,
    VALUE_VALUE,
    adjprice_volume_sq_corr,
    correlation_report,
    pair_sweep,
    pair_windows,
    paired_expectation,
    return_price_corr,
    same_day_two_lag_autocorr,
    self_pair,
)
from vawar.errors import InvalidConfig, InvalidDensityParameter, WindowOutOfRange
from vawar.moments import (
    adjusted_moments,
    check_order,
    dispersions,
    freq_moment,
    moment_report,
    moment_reports,
    price_moment,
    return_moment,
    return_volatility,
)
from vawar.synth import CyclePrice, GenConfig, WhaleVolume, generate, weighting_contrast, whale_tape
from vawar.tape import LagSpec, TradeTape, WindowSpec, integral, resolve

TICKS = 40
TAPE = TradeTape.from_arrays(
    100.0 * np.exp(0.02 * np.sin(np.arange(TICKS) * 1.3)), 1.0 + np.arange(TICKS) % 7
)


def _window(lag=1):
    return resolve(TAPE, WindowSpec(5, 4), LagSpec(lag))


class TestIntegral:
    @pytest.mark.parametrize("x", [3, 3.0, np.int64(3), np.int32(3), np.uint8(3),
                                   np.float64(3.0), np.float32(3.0)], ids=repr)
    def test_whole_numbers_are_ints(self, x):
        got = integral("n", x, 1)
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize("x", [1.5, math.nan, math.inf, -math.inf, "2", True, None,
                                   np.float64(2.5), np.array(2), [2]], ids=repr)
    def test_anything_else_names_the_argument(self, x):
        with pytest.raises(ValueError, match=r"^n must be an integer, got "):
            integral("n", x, 1)

    def test_out_of_range_keeps_its_message(self):
        for x in (0, 0.0, np.int64(0)):
            with pytest.raises(ValueError) as caught:
                integral("lag_l", x, 1)
            assert caught.type is ValueError and str(caught.value) == "lag_l must be >= 1, got 0"

    def test_error_type(self):
        with pytest.raises(InvalidConfig, match="^lag must be an integer, got 1.5$"):
            integral("lag", 1.5, 1, InvalidConfig)


# Each call passes one count that is not a whole number; the error is a
# ValueError subclass whose message starts with the argument's name.
REJECTED = {
    "return_moment_lag": (lambda: return_moment(_window(), 1.5, 1), ValueError, "lag_l"),
    "pair_windows_lag2": (lambda: pair_windows(TAPE, WindowSpec(5, 4), 2.0, 1.5),
                          ValueError, "lag_l"),
    "two_lag_autocorr": (lambda: same_day_two_lag_autocorr(_window(), 1, 1.7), ValueError,
                         "lag_l"),
    "lagspec_nan": (lambda: LagSpec(float("nan")), ValueError, "lag_l"),
    "lagspec_str": (lambda: LagSpec("2"), ValueError, "lag_l"),
    "order_max": (lambda: moment_reports(TAPE, WindowSpec(5, 4), 1, order_max=2.5),
                  ValueError, "moment order"),
    "window_start": (lambda: WindowSpec(5.5, 4), WindowOutOfRange, "window start"),
    "window_count": (lambda: WindowSpec(5, 4.5), WindowOutOfRange, "window count"),
    "stride": (lambda: moment_reports(TAPE, WindowSpec(5, 4), 1, stride=1.5),
               ValueError, "stride"),
    "shift_j": (lambda: pair_windows(TAPE, WindowSpec(5, 4), 1, 1, 0.5), ValueError, "shift_j"),
    "max_shift": (lambda: pair_sweep(TAPE, WindowSpec(5, 4), 1, 1, 2.5, (CORR_R,), (1, 1)),
                  ValueError, "shift_j"),
    "sweep_lag1": (lambda: pair_sweep(TAPE, WindowSpec(5, 4), 1.5, 1, 2, (CORR_R,), (1, 1)),
                   ValueError, "lag_l"),
    "degree": (lambda: return_price_corr(pair_windows(TAPE, WindowSpec(5, 4), 1), 1, 1.5),
               ValueError, "moment order"),
    "whale_lag": (lambda: whale_tape(lag=1.5), InvalidConfig, "lag"),
    "damping_q": (lambda: fit_charfn([0.001, 0.01], q=2.5), InvalidDensityParameter,
                  "damping q"),
    "grid_points": (lambda: GridSpec(0.0, 1.0, 9.5), InvalidDensityParameter, "grid points"),
    "x_points": (lambda: invert_density(fit_charfn([0.001, 0.01]), x_points=64.5),
                 InvalidDensityParameter, "x_points"),
    "ticks": (lambda: GenConfig(20.7, 7, CyclePrice(1.0, 0.1, 5), WhaleVolume(1.0, 9.0, 3)),
              InvalidConfig, "ticks"),
    "position": (lambda: WhaleVolume(1.0, 9.0, 1.5), InvalidConfig, "position"),
    "period": (lambda: CyclePrice(1.0, 0.1, "5"), InvalidConfig, "period"),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_non_integral_count_is_rejected(name):
    call, error, argument = REJECTED[name]
    with pytest.raises(error, match=f"^{argument} must be an integer, got ") as caught:
        call()
    assert issubclass(caught.type, ValueError)


class TestWholeFloatsAndNumpyInts:
    def test_float_lag_window_report(self):
        got = moment_report(resolve(TAPE, WindowSpec(5, 4), LagSpec(2.0)), 2.0)
        assert got == moment_report(resolve(TAPE, WindowSpec(5, 4), LagSpec(2)), 2)
        assert type(got.lag_l) is int

    def test_numpy_int_lag_and_order(self):
        w = resolve(TAPE, WindowSpec(5, 4), LagSpec(np.int64(2)))
        assert type(w.lag_l) is int
        assert return_moment(w, np.int64(2), np.int64(3)) == return_moment(w, 2, 3)
        [got] = moment_reports(TAPE, WindowSpec(np.int64(5), np.int64(4)), np.int64(2),
                               np.int64(3))
        assert got == moment_reports(TAPE, WindowSpec(5, 4), 2, 3)[0]
        assert [type(x) for x in got.csv_row()[:4]] == [int] * 4

    def test_generator_config_fields(self):
        cfg = GenConfig(20.0, np.int64(7), CyclePrice(1.0, 0.1, 5.0), WhaleVolume(1.0, 9.0, 3.0))
        assert cfg == GenConfig(20, 7, CyclePrice(1.0, 0.1, 5), WhaleVolume(1.0, 9.0, 3))
        assert [type(x) for x in (cfg.ticks, cfg.seed, cfg.price.period,
                                  cfg.volume.position)] == [int] * 4


class TestHistoryCheckedOnce:
    def test_once_per_resolved_window(self, monkeypatch):
        calls = []
        check = tape_module.require_history

        def counted(window, lag_l):
            calls.append(lag_l)
            return check(window, lag_l)

        monkeypatch.setattr(tape_module, "require_history", counted)
        correlation_report(pair_windows(TAPE, WindowSpec(5, 4), 1, 2, 1))
        assert calls == [1, 2]
        window = _window()
        calls.clear()
        assert self_pair(window, 2).window1 is window and calls == [2]
        calls.clear()
        self_pair(window)
        assert calls == [1]
        calls.clear()
        weighting_contrast(TAPE, WindowSpec(5, 4), LagSpec(2))
        assert calls == [2]

    def test_a_lag_other_than_the_windows_own_is_checked(self):
        with pytest.raises(ValueError, match="^lag_l must be >= 1, got 0$"):
            _window().lagged_prices(0)
        assert _window(2).lagged_prices(1).tolist() == _window(1).lagged_prices().tolist()


FORMS = (int, float, np.int64, np.int32, np.float64, np.float32)


@st.composite
def _counts(draw):
    lag1, lag2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    j = draw(st.integers(0, 4))
    count = draw(st.integers(4, 12))
    start = draw(st.integers(max(lag1, lag2) + j, TICKS - count))
    ints = (start, count, lag1, lag2, draw(st.integers(1, 4)), draw(st.integers(1, 4)), j,
            draw(st.integers(0, 5)))
    forms = draw(st.lists(st.sampled_from(FORMS), min_size=len(ints), max_size=len(ints)))
    return ints, tuple(f(x) for f, x in zip(forms, ints))


def _entry_points(start, count, lag1, lag2, n, m, j, stride):
    # what every public entry point returns for these counts
    spec = WindowSpec(start, count)
    w = resolve(TAPE, spec, LagSpec(lag1, j))
    pair = pair_windows(TAPE, spec, lag1, lag2, j)
    stats = (CORR_R, CORR_RU, CORR_RP)
    return [
        spec, LagSpec(lag1, j), w, check_order(n), freq_moment(w.values, n),
        price_moment(w, n), adjusted_moments(w, lag2, n), return_moment(w, lag2, n),
        dispersions(w, lag2), return_volatility(w, lag2), moment_report(w, lag2, n),
        moment_reports(TAPE, spec, lag1, n, stride), pair, self_pair(w, lag2),
        correlation_report(pair), paired_expectation(VALUE_VALUE, pair, (n, m)),
        return_price_corr(pair, n, m), list(pair_sweep(TAPE, spec, lag1, lag2, j, stats, (n, m))),
        same_day_two_lag_autocorr(w, lag1, lag2), adjprice_volume_sq_corr(w, lag2),
    ]


@settings(max_examples=60, deadline=None)
@given(_counts())
def test_every_entry_point_reads_whole_numbers_as_their_ints(counts):
    # repr compares floats exactly, NaN included, and shows a numpy integer
    # that was kept where an int belongs
    ints, others = counts
    assert repr(_entry_points(*others)) == repr(_entry_points(*ints))


def _generated(lag, ticks, seed, period, position, q, points, x_points):
    # what the generator and density entry points return for these counts
    cfg = GenConfig(ticks, seed, CyclePrice(2.0, 0.1, period), WhaleVolume(1.0, 9.0, position))
    whale, window, lags = whale_tape(n_small=5, lag=lag)
    approx = fit_charfn([0.001, 0.01], q=q)
    grid = GridSpec(0.0, 1.0, points)
    dens = invert_density(approx, grid, x_points)
    return [cfg, generate(cfg).values.tolist(), whale.values.tolist(), window, lags, approx,
            grid.grid.tolist(), dens.sidecar_dict(), dens.density.tolist()]


@settings(max_examples=30, deadline=None)
@given(ints=st.tuples(st.integers(1, 3), st.integers(8, 30), st.integers(0, 2**24),
                      st.integers(2, 9), st.integers(0, 7), st.integers(2, 4),
                      st.integers(9, 40), st.sampled_from([64, 128, 256])),
       forms=st.lists(st.sampled_from(FORMS), min_size=8, max_size=8))
def test_generator_and_density_read_whole_numbers_as_their_ints(ints, forms):
    # seeds stay below 2**24, which float32 holds exactly
    others = tuple(f(x) for f, x in zip(forms, ints))
    assert repr(_generated(*others)) == repr(_generated(*ints))


class TestSimulateConfig:
    @pytest.mark.parametrize("field, value", [
        ("position", 1.5), ("position", "3"), ("ticks", 20.7), ("seed", 7.9), ("seed", -1),
    ])
    def test_bad_integer_field_is_one_error_line(self, capsys, tmp_path, field, value):
        doc = {"ticks": 20, "seed": 7,
               "price": {"model": "walk", "start": 100.0, "log_vol": 0.02},
               "volume": {"model": "whale", "base": 1.0, "whale_volume": 100.0, "position": 3}}
        (doc["volume"] if field == "position" else doc)[field] = value
        path = tmp_path / "whale.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith(f"vawar simulate: error: bad generator config: {field} must be ")
