import io
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import vawar.tape
from vawar.cli import main

from vawar.errors import InvalidConfig
from vawar.moments import freq_moment, return_moment
from oracle import UnknownStatistic, oracle, statistics
from vawar.synth import (
    ConstantPrice,
    ConstantVolume,
    CyclePrice,
    GenConfig,
    HeavyTailVolume,
    WalkPrice,
    WhaleVolume,
    generate,
    weighting_contrast,
    whale_tape,
)
from vawar.tape import LagSpec, TradeTape, WindowSpec, resolve, write_csv

from conftest import budget
from helpers import old_generate, random_config


def config(ticks=8, seed=3, price=None, volume=None, **kw):
    return GenConfig(
        ticks=ticks,
        seed=seed,
        price=price or ConstantPrice(level=2.0),
        volume=volume or ConstantVolume(level=10.0),
        **kw,
    )


class TestGenerate:
    def test_constant_models(self):
        tape = generate(config())
        assert np.all(tape.prices == 2.0)
        assert np.all(tape.volumes == 10.0)
        assert np.all(tape.values == 20.0)

    def test_determinism(self):
        cfg = random_config(11, 32)
        t1, t2 = generate(cfg), generate(cfg)
        assert t1.prices.tolist() == t2.prices.tolist()
        assert t1.volumes.tolist() == t2.volumes.tolist()

    def test_zero_volatility_walk_is_constant(self):
        tape = generate(config(price=WalkPrice(start=5.0, log_vol=0.0)))
        assert np.all(tape.prices == 5.0)

    def test_all_outputs_positive(self):
        for seed in range(12):
            tape = generate(random_config(seed, 48))
            assert np.all(tape.prices > 0)
            assert np.all(tape.volumes > 0)
            assert np.all(tape.values > 0)

    def test_whale_volume_position(self):
        tape = generate(config(
            ticks=10, volume=WhaleVolume(base=1.0, whale_volume=1e6, position=4)
        ))
        assert tape.volumes[4] == 1e6
        assert np.all(np.delete(tape.volumes, 4) == 1.0)

    def test_whale_volume_keeps_its_fraction_over_an_integer_base(self):
        tape = generate(GenConfig.from_json({
            "ticks": 5, "seed": 1, "price": {"model": "constant", "level": 2},
            "volume": {"model": "whale", "base": 1, "whale_volume": 100.5, "position": 2}}))
        assert tape.volumes.tolist() == [1.0, 1.0, 100.5, 1.0, 1.0]

    @pytest.mark.parametrize("seed", range(40))
    def test_series_built_in_place_match_their_formulas(self, seed):
        # the in-place steps round as the formula's fresh temporaries did
        cfg = random_config(seed, 300 + 37 * seed)
        tape = generate(cfg)
        prices, volumes = old_generate(cfg)
        assert tape.prices.tobytes() == prices.tobytes()
        assert tape.volumes.tobytes() == volumes.tobytes()
        assert tape.values.tobytes() == (prices * volumes).tobytes()

    def test_coupling_changes_volumes_only(self):
        base = config(ticks=30, price=WalkPrice(start=10.0, log_vol=0.05))
        coupled = config(ticks=30, price=WalkPrice(start=10.0, log_vol=0.05),
                         coupling=0.7)
        t0, t1 = generate(base), generate(coupled)
        assert t0.prices.tolist() == t1.prices.tolist()
        assert t0.volumes.tolist() != t1.volumes.tolist()

    @pytest.mark.parametrize(
        "bad",
        [
            dict(ticks=0),
            dict(price=ConstantPrice(level=0.0)),
            dict(price=WalkPrice(start=1.0, log_vol=-0.1)),
            dict(volume=HeavyTailVolume(base=1.0, shape=0.0)),
            dict(volume=WhaleVolume(base=1.0, whale_volume=1e3, position=99)),
            dict(epsilon=0.0),
        ],
    )
    def test_invalid_configs(self, bad):
        with pytest.raises(InvalidConfig):
            generate(config(**bad))

    @pytest.mark.parametrize("bad, message", [
        (dict(price=ConstantPrice(level="x")), "price level must be a real number, got 'x'"),
        (dict(price=ConstantPrice(level=True)), "price level must be a real number, got True"),
        (dict(price=WalkPrice(start=1.0, log_vol=None)),
         "walk log_vol must be a real number, got None"),
        (dict(price=CyclePrice(base=1.0, log_amplitude=[2], period=5)),
         "cycle log_amplitude must be a real number, got [2]"),
        (dict(volume=HeavyTailVolume(base=1.0, shape=[2])),
         "heavy-tail shape must be a real number, got [2]"),
        (dict(volume=WhaleVolume(base=1.0, whale_volume="9", position=1)),
         "whale volume must be a real number, got '9'"),
        (dict(epsilon=None), "epsilon must be a real number, got None"),
        (dict(coupling="x"), "coupling must be a real number, got 'x'"),
    ])
    def test_non_real_field_is_named(self, bad, message):
        with pytest.raises(InvalidConfig) as caught:
            generate(config(**bad))
        assert str(caught.value) == message

    def test_non_real_level_positional(self):
        with pytest.raises(InvalidConfig):
            generate(GenConfig(5, 1, ConstantPrice("x"), ConstantVolume(1.0)))

    @pytest.mark.parametrize("bad, message", [
        (dict(price=ConstantPrice(level=0.0)), "price level must be a positive real, got 0.0"),
        (dict(price=WalkPrice(start=1.0, log_vol=-0.1)), "walk log_vol must be >= 0, got -0.1"),
        (dict(price=CyclePrice(base=1.0, log_amplitude=np.inf, period=5)),
         "cycle log_amplitude must be finite"),
        (dict(coupling=np.nan), "coupling must be finite"),
        (dict(epsilon=-1), "epsilon must be a positive real, got -1"),
    ])
    def test_real_out_of_range_keeps_its_message(self, bad, message):
        with pytest.raises(InvalidConfig) as caught:
            generate(config(**bad))
        assert str(caught.value) == message

    def test_numpy_reals_are_accepted(self):
        cfg = config(price=WalkPrice(start=np.float32(5.0), log_vol=np.int64(0)),
                     volume=HeavyTailVolume(base=np.int32(3), shape=np.float64(2.0)))
        assert np.all(generate(cfg).prices == 5.0)


@st.composite
def _block_cases(draw):
    # (config, block size): every price and volume model, with and without
    # coupling, at k blocks of ticks and one tick either side, with a whale
    # on a block edge
    rows = draw(st.sampled_from([1, 7, vawar.tape._TICKS]))
    k = draw(st.integers(1, 3 if rows > 7 else 40))
    n = max(1, k * rows + draw(st.sampled_from([-1, 0, 1])))
    price = draw(st.sampled_from([
        ConstantPrice(level=draw(st.floats(0.5, 200.0))),
        WalkPrice(start=draw(st.floats(0.5, 200.0)), log_vol=draw(st.floats(0.0, 0.1))),
        CyclePrice(base=draw(st.floats(0.5, 200.0)), log_amplitude=draw(st.floats(-0.5, 0.5)),
                   period=draw(st.integers(2, 17)))]))
    edge = min(n - 1, max(0, draw(st.integers(0, k)) * rows - draw(st.sampled_from([0, 1]))))
    volume = draw(st.sampled_from([
        ConstantVolume(level=draw(st.floats(0.5, 500.0))),
        HeavyTailVolume(base=draw(st.floats(0.5, 50.0)), shape=draw(st.floats(1.5, 4.0))),
        WhaleVolume(base=draw(st.floats(0.5, 50.0)), whale_volume=draw(st.floats(1e3, 1e9)),
                    position=edge)]))
    coupling = draw(st.sampled_from([0.0, draw(st.floats(-0.6, 0.6))]))
    return GenConfig(ticks=n, seed=draw(st.integers(0, 2**32 - 1)), price=price, volume=volume,
                     coupling=coupling, epsilon=draw(st.sampled_from([1.0, 0.5, 1 / 3]))), rows


# Not shrunk: a failing example names its config and block size, and
# shrinking tapes of up to 12k ticks takes minutes.
@settings(max_examples=budget(40), deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(_block_cases())
def test_tape_made_in_blocks_is_the_formulas_tape(case):
    # simulate writes, and generate holds, the tape of the formulas over the
    # whole tape (helpers.old_generate) whatever the block size
    config, rows = case
    prices, volumes = old_generate(config)
    want = io.StringIO()
    write_csv(TradeTape.from_arrays(prices, volumes, epsilon=config.epsilon), want)
    out = io.StringIO()
    document = io.StringIO(json.dumps(config.to_json_dict()))
    with mock.patch.object(vawar.tape, "_TICKS", rows), mock.patch("sys.stdin", document), \
            mock.patch("sys.stdout", out):
        assert main(["simulate", "--config", "-"]) == 0
        tape = generate(config)
    assert out.getvalue() == want.getvalue()
    assert tape.prices.tobytes() == prices.tobytes()
    assert tape.volumes.tobytes() == volumes.tobytes()


class TestConfigJson:
    def test_round_trip(self):
        cfg = random_config(5, 24)
        doc = cfg.to_json_dict()
        again = GenConfig.from_json(json.dumps(doc))
        assert again == cfg

    def test_round_trip_every_model(self):
        models = [
            (ConstantPrice(2.0), ConstantVolume(3.0)),
            (WalkPrice(1.0, 0.1), HeavyTailVolume(2.0, 1.8)),
            (CyclePrice(5.0, 0.2, 7), WhaleVolume(1.0, 1e5, 3)),
        ]
        for price, volume in models:
            cfg = config(ticks=10, price=price, volume=volume)
            again = GenConfig.from_json(json.dumps(cfg.to_json_dict()))
            assert again == cfg

    def test_bad_documents(self):
        with pytest.raises(InvalidConfig):
            GenConfig.from_json("not json")
        with pytest.raises(InvalidConfig):
            GenConfig.from_json({"ticks": 4})
        with pytest.raises(InvalidConfig):
            GenConfig.from_json(
                {"ticks": 4, "seed": 1,
                 "price": {"model": "teleport"},
                 "volume": {"model": "constant", "level": 1.0}}
            )


class TestOracle:
    def test_fixture_values(self, tape_a):
        window, lags = WindowSpec(1, 3), LagSpec(1)
        assert oracle(tape_a, window, lags, "return_moment", n=1) == pytest.approx(1.2)
        assert oracle(tape_a, window, lags, "vawar") == pytest.approx(1.2)
        assert oracle(tape_a, window, lags, "sigma_r2") == pytest.approx(0.56)
        assert oracle(tape_a, window, lags, "corr_rp") == pytest.approx(54 / 35)
        assert oracle(tape_a, window, lags, "corr_rU") == pytest.approx(2.0)
        assert oracle(tape_a, window, lags, "corr_paU2") == pytest.approx(-25 / 3)
        assert oracle(tape_a, window, lags, "price_moment", n=1) == pytest.approx(3.0)
        assert oracle(tape_a, window, lags, "sigma_pa2") == pytest.approx(-0.25)

    def test_unknown_statistic(self, tape_a):
        with pytest.raises(UnknownStatistic):
            oracle(tape_a, WindowSpec(1, 3), LagSpec(1), "sharpe_ratio")
        with pytest.raises(UnknownStatistic):
            oracle(tape_a, WindowSpec(1, 3), LagSpec(1), "sigma_r2", n=3)

    def test_statistics_listing(self):
        names = statistics()
        assert "return_moment" in names
        assert "corr_r" in names
        assert len(names) > 25


class TestWeightingContrast:
    def test_whale_numbers(self):
        tape, window, lags = whale_tape()
        res = weighting_contrast(tape, window, lags)
        assert res.freq_mean_return == pytest.approx(1001.1 / 1001, rel=1e-12)
        assert res.vawar == pytest.approx(
            (1000 + 1e9) / (1000 + 1e9 / 1.1), rel=1e-12
        )
        assert 1.00009 <= res.freq_mean_return <= 1.00011
        assert 1.0999 <= res.vawar <= 1.1000
        assert res.gap == pytest.approx(res.vawar - res.freq_mean_return)

    def test_constant_tape_gap_zero(self):
        tape = generate(config(ticks=12))
        res = weighting_contrast(tape, WindowSpec(2, 8), LagSpec(2))
        assert res.freq_mean_return == pytest.approx(1.0, rel=1e-14)
        assert res.vawar == pytest.approx(1.0, rel=1e-14)
        assert res.gap == pytest.approx(0.0, abs=1e-14)

    def test_equal_adjusted_values_means_zero_gap(self):
        # geometric price with inverse-geometric volume: every C_a equal
        growth = 1.03
        prices = growth ** np.arange(16)
        volumes = 40.0 / prices
        from vawar.tape import TradeTape

        tape = TradeTape.from_arrays(prices, volumes)
        res = weighting_contrast(tape, WindowSpec(3, 10), LagSpec(2))
        assert res.gap == pytest.approx(0.0, abs=1e-13)

    def test_freq_and_vawar_match_oracle(self):
        tape, window, lags = whale_tape(n_small=50, whale_value=1e7)
        res = weighting_contrast(tape, window, lags)
        assert res.freq_mean_return == pytest.approx(
            oracle(tape, window, lags, "freq_mean_return"), rel=1e-12
        )
        assert res.vawar == pytest.approx(
            oracle(tape, window, lags, "vawar"), rel=1e-12
        )

    def test_overflowed_return(self):
        # the return 1e300 / 1e-300 is +inf and so is the frequency mean;
        # freq_moment itself still rejects the non-finite series
        from vawar.errors import NonFinite
        from vawar.tape import TradeTape

        tape = TradeTape.from_arrays([1e300, 1e-300, 1e300, 1.0], [1.0] * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = weighting_contrast(tape, WindowSpec(1, 2), LagSpec(1))
        assert res.freq_mean_return == math.inf
        assert math.isnan(res.vawar) and math.isnan(res.gap)
        with pytest.raises(NonFinite):
            freq_moment([0.0, math.inf], 1)


class TestWhaleDominance:
    @pytest.mark.parametrize("whale_return", [0.5, 0.9, 1.1, 2.0])
    def test_vawar_tracks_whale_return(self, whale_return):
        tape, window, lags = whale_tape(
            n_small=200, small_value=1.0, whale_value=200.0 * 1e6,
            whale_return=whale_return,
        )
        res = weighting_contrast(tape, window, lags)
        assert abs(res.vawar - whale_return) < 1e-3

    def test_whale_tape_lags(self):
        tape, window, lags = whale_tape(n_small=10, lag=3)
        resolved = resolve(tape, window, lags)
        assert return_moment(resolved, 3, 1) == pytest.approx(
            oracle(tape, window, lags, "vawar"), rel=1e-12
        )

    def test_invalid_whale_tape(self):
        with pytest.raises(InvalidConfig):
            whale_tape(n_small=0)
        with pytest.raises(InvalidConfig):
            whale_tape(whale_return=-1.0)
