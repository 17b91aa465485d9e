"""Seeded synthetic trade tapes and the frequency-vs-value-weighting contrast.

Generators are deterministic under (config, seed) and always emit
strictly positive prices and volumes; values are derived as price *
volume.  Configurations round-trip through plain JSON documents, e.g.::

    {"ticks": 64, "seed": 7, "epsilon": 1.0,
     "price": {"model": "walk", "start": 100.0, "log_vol": 0.02},
     "volume": {"model": "heavy_tail", "base": 50.0, "shape": 2.5},
     "coupling": 0.0}

Price models: ``constant`` (level), ``walk`` (multiplicative with
per-step log-volatility), ``cycle`` (deterministic log-sine).  Volume
models: ``constant``, ``heavy_tail`` (Pareto with the given shape), and
``whale`` (constant base with one outsized trade at a fixed position).
A nonzero ``coupling`` multiplies each volume by exp(coupling * z_i)
where z_i is the standardized price shock of the walk (zero for the
deterministic price models).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .moments import freq_moment, return_moment, return_series
from .tape import LagSpec, TradeTape, WindowSpec, resolve


@dataclass(frozen=True)
class ConstantPrice:
    level: float


@dataclass(frozen=True)
class WalkPrice:
    start: float
    log_vol: float


@dataclass(frozen=True)
class CyclePrice:
    base: float
    log_amplitude: float
    period: int


@dataclass(frozen=True)
class ConstantVolume:
    level: float


@dataclass(frozen=True)
class HeavyTailVolume:
    base: float
    shape: float


@dataclass(frozen=True)
class WhaleVolume:
    base: float
    whale_volume: float
    position: int


_PRICE_MODELS = {"constant": ConstantPrice, "walk": WalkPrice, "cycle": CyclePrice}
_VOLUME_MODELS = {
    "constant": ConstantVolume,
    "heavy_tail": HeavyTailVolume,
    "whale": WhaleVolume,
}
_MODEL_NAMES = {cls: name for name, cls in _PRICE_MODELS.items()}
_MODEL_NAMES.update({cls: name for name, cls in _VOLUME_MODELS.items()})


@dataclass(frozen=True)
class GenConfig:
    """Synthetic tape recipe: tick count, seed, price and volume models."""

    ticks: int
    seed: int
    price: object
    volume: object
    coupling: float = 0.0
    epsilon: float = 1.0

    @classmethod
    def from_json(cls, document):
        """Parse a config from a JSON string or an already-decoded dict."""
        if isinstance(document, (str, bytes)):
            try:
                document = json.loads(document)
            except json.JSONDecodeError as exc:
                raise InvalidConfig(f"config is not valid JSON: {exc}") from None
        if not isinstance(document, dict):
            raise InvalidConfig("config document must be a JSON object")
        data = dict(document)
        try:
            price_doc = dict(data.pop("price"))
            volume_doc = dict(data.pop("volume"))
            price_cls = _PRICE_MODELS[price_doc.pop("model")]
            volume_cls = _VOLUME_MODELS[volume_doc.pop("model")]
            return cls(
                ticks=int(data.pop("ticks")),
                seed=int(data.pop("seed")),
                price=price_cls(**price_doc),
                volume=volume_cls(**volume_doc),
                coupling=float(data.pop("coupling", 0.0)),
                epsilon=float(data.pop("epsilon", 1.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidConfig(f"bad generator config: {exc}") from None

    def to_json_dict(self):
        def model_doc(model):
            doc = {"model": _MODEL_NAMES[type(model)]}
            doc.update(vars(model))
            return doc

        return {
            "ticks": self.ticks,
            "seed": self.seed,
            "epsilon": self.epsilon,
            "price": model_doc(self.price),
            "volume": model_doc(self.volume),
            "coupling": self.coupling,
        }


def _check_positive(name, value):
    if not (math.isfinite(value) and value > 0):
        raise InvalidConfig(f"{name} must be a positive real, got {value!r}")


def _validate(config: GenConfig):
    if config.ticks < 1:
        raise InvalidConfig(f"ticks must be >= 1, got {config.ticks}")
    _check_positive("epsilon", config.epsilon)
    if not math.isfinite(config.coupling):
        raise InvalidConfig("coupling must be finite")
    p = config.price
    if isinstance(p, ConstantPrice):
        _check_positive("price level", p.level)
    elif isinstance(p, WalkPrice):
        _check_positive("walk start", p.start)
        if not (math.isfinite(p.log_vol) and p.log_vol >= 0):
            raise InvalidConfig(f"walk log_vol must be >= 0, got {p.log_vol!r}")
    elif isinstance(p, CyclePrice):
        _check_positive("cycle base", p.base)
        if not math.isfinite(p.log_amplitude):
            raise InvalidConfig("cycle log_amplitude must be finite")
        if p.period < 2:
            raise InvalidConfig(f"cycle period must be >= 2, got {p.period}")
    else:
        raise InvalidConfig(f"unknown price model {p!r}")
    v = config.volume
    if isinstance(v, ConstantVolume):
        _check_positive("volume level", v.level)
    elif isinstance(v, HeavyTailVolume):
        _check_positive("volume base", v.base)
        _check_positive("heavy-tail shape", v.shape)
    elif isinstance(v, WhaleVolume):
        _check_positive("volume base", v.base)
        _check_positive("whale volume", v.whale_volume)
        if not 0 <= v.position < config.ticks:
            raise InvalidConfig(
                f"whale position {v.position} outside tape of {config.ticks} ticks"
            )
    else:
        raise InvalidConfig(f"unknown volume model {v!r}")


def generate(config: GenConfig) -> TradeTape:
    """Build a tape from a config; identical (config, seed) gives an
    identical tape."""
    _validate(config)
    rng = np.random.default_rng(config.seed)
    n = config.ticks

    shocks = np.zeros(n)
    p = config.price
    if isinstance(p, ConstantPrice):
        prices = np.full(n, p.level)
    elif isinstance(p, WalkPrice):
        shocks = rng.standard_normal(n)
        shocks[0] = 0.0
        prices = p.start * np.exp(p.log_vol * np.cumsum(shocks))
    else:
        i = np.arange(n)
        prices = p.base * np.exp(
            p.log_amplitude * np.sin(2.0 * math.pi * i / p.period)
        )

    v = config.volume
    if isinstance(v, ConstantVolume):
        volumes = np.full(n, v.level)
    elif isinstance(v, HeavyTailVolume):
        u = rng.random(n)
        volumes = v.base * (1.0 - u) ** (-1.0 / v.shape)
    else:
        volumes = np.full(n, v.base)
        volumes[v.position] = v.whale_volume

    if config.coupling != 0.0:
        volumes = volumes * np.exp(config.coupling * shocks)

    return TradeTape.from_arrays(prices, volumes, epsilon=config.epsilon)


def whale_tape(n_small=1000, small_value=1.0, whale_value=1e9,
               whale_return=1.1, lag=1):
    """Tape where one trade's value dwarfs everything else.

    The window holds ``n_small`` unit-return trades of value
    ``small_value`` followed by a single trade of value ``whale_value``
    whose return is exactly ``whale_return`` (price steps once, at the
    whale tick).  Returns (tape, window, lags) ready for
    :func:`weighting_contrast`.
    """
    if n_small < 1:
        raise InvalidConfig(f"need at least one small trade, got {n_small}")
    _check_positive("small_value", small_value)
    _check_positive("whale_value", whale_value)
    _check_positive("whale_return", whale_return)
    lag = int(lag)
    if lag < 1:
        raise InvalidConfig(f"lag must be >= 1, got {lag}")
    n = lag + n_small + 1
    prices = np.ones(n)
    prices[-1] = whale_return
    volumes = np.empty(n)
    volumes[:lag] = small_value
    volumes[lag:-1] = small_value  # price 1 => value == volume
    volumes[-1] = whale_value / whale_return
    tape = TradeTape.from_arrays(prices, volumes)
    window = WindowSpec(start=lag, count=n_small + 1)
    return tape, window, LagSpec(lag_l=lag)


@dataclass(frozen=True)
class WeightingContrast:
    """Frequency-weighted vs value-weighted average return of one window."""

    freq_mean_return: float
    vawar: float

    @property
    def gap(self):
        return self.vawar - self.freq_mean_return


def weighting_contrast(tape: TradeTape, window: WindowSpec,
                       lags: LagSpec) -> WeightingContrast:
    """Compare the plain mean return with VaWAR on one window.

    The two agree only when all adjusted values in the window are equal;
    a single large trade drags VaWAR toward its own return while barely
    moving the frequency mean.
    """
    resolved = resolve(tape, window, lags)
    returns = return_series(resolved, lags.lag_l)
    return WeightingContrast(
        freq_mean_return=freq_moment(returns, 1),
        vawar=return_moment(resolved, lags.lag_l, 1),
    )
