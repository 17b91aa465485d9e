import json

import numpy as np
import pytest

from vawar.errors import InvalidConfig
from vawar.moments import return_moment
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
from vawar.tape import LagSpec, WindowSpec, resolve

from helpers import random_config


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
