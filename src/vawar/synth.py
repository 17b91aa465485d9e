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

:func:`tape_blocks` builds a tape ``tape._TICKS`` (4096) ticks at a time,
each series of a block in one array by in-place ufuncs, in the order of
operations of its formula over the whole tape, so each element is the
formula's whatever the block size.  The walk's running sum carries on
from block to block (``cumsum`` adds in sequence), and heavy-tail
uniforms, which follow all the walk's normals in the seed's stream, come
from a second generator moved past those normals.  :func:`generate`
fills the tape's four arrays from the blocks: on a 200k-tick walk tape it
peaks at about 1.05 times the arrays (tracemalloc), the tape's checks
included, where the whole-tape series took 1.25 times and fresh
temporaries for each step 3.4 times.  ``vawar simulate`` holds one block
at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .moments import _quiet, freq_moment, return_moment, return_series
from . import tape as _tape
from .tape import LagSpec, TradeTape, WindowSpec, integral, resolve


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

    def __post_init__(self):
        object.__setattr__(self, "period", integral("period", self.period, 2, InvalidConfig))


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

    def __post_init__(self):
        object.__setattr__(self, "position", integral("position", self.position, 0, InvalidConfig))


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

    def __post_init__(self):
        object.__setattr__(self, "ticks", integral("ticks", self.ticks, 1, InvalidConfig))
        object.__setattr__(self, "seed", integral("seed", self.seed, 0, InvalidConfig))

    @classmethod
    def from_json(cls, document):
        """Parse a config from a JSON string or an already-decoded dict.

        Numbers are taken as given (``generate`` checks them), and a key
        that names no config field is rejected.
        """
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
            config = cls(
                ticks=data.pop("ticks"),
                seed=data.pop("seed"),
                price=price_cls(**price_doc),
                volume=volume_cls(**volume_doc),
                coupling=data.pop("coupling", 0.0),
                epsilon=data.pop("epsilon", 1.0),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidConfig(f"bad generator config: {exc}") from None
        if data:
            raise InvalidConfig(f"unknown generator config keys {sorted(data)}")
        return config

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


def _real(name, value):
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidConfig(f"{name} must be a real number, got {value!r}")
    return value


def _check_positive(name, value):
    if not (math.isfinite(_real(name, value)) and value > 0):
        raise InvalidConfig(f"{name} must be a positive real, got {value!r}")


def _validate(config: GenConfig):
    _check_positive("epsilon", config.epsilon)
    if not math.isfinite(_real("coupling", config.coupling)):
        raise InvalidConfig("coupling must be finite")
    p = config.price
    if isinstance(p, ConstantPrice):
        _check_positive("price level", p.level)
    elif isinstance(p, WalkPrice):
        _check_positive("walk start", p.start)
        if not (math.isfinite(_real("walk log_vol", p.log_vol)) and p.log_vol >= 0):
            raise InvalidConfig(f"walk log_vol must be >= 0, got {p.log_vol!r}")
    elif isinstance(p, CyclePrice):
        _check_positive("cycle base", p.base)
        if not math.isfinite(_real("cycle log_amplitude", p.log_amplitude)):
            raise InvalidConfig("cycle log_amplitude must be finite")
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
        if v.position >= config.ticks:
            raise InvalidConfig(
                f"whale position {v.position} outside tape of {config.ticks} ticks"
            )
    else:
        raise InvalidConfig(f"unknown volume model {v!r}")


def tape_blocks(config: GenConfig):
    """The tape of a config, as (times, prices, volumes, values) arrays of
    ``tape._TICKS`` ticks at a time in tape order: :func:`generate` keeps
    them, and ``vawar simulate`` checks and writes them without holding
    the tape.  The config is checked here, before the first block."""
    _validate(config)
    return _blocks(config)


def _blocks(config):
    # tape_blocks of a checked config
    n, rows = config.ticks, _tape._TICKS
    rng = uniforms = np.random.default_rng(config.seed)
    if isinstance(config.price, WalkPrice) and isinstance(config.volume, HeavyTailVolume):
        # The uniforms come after all n normals of one stream, so a second
        # generator is moved past the normals by drawing them and dropping
        # them: ziggurat takes a varying number of words a draw, so
        # bit_generator.advance cannot.
        uniforms = np.random.default_rng(config.seed)
        for lo in range(0, n, rows):
            uniforms.standard_normal(min(rows, n - lo))
    walk = 0.0  # the walk's running sum at the last tick of the last block
    for lo in range(0, n, rows):
        block, walk = _block(config, lo, min(lo + rows, n), rng, uniforms, walk)
        yield block


@_quiet  # a series that overflows is named by the tape's checks
def _block(config, lo, hi, rng, uniforms, walk):
    """The (times, prices, volumes, values) of ticks lo..hi-1 and the walk's
    running sum at hi-1.  Each series is built in its own array by in-place
    ufuncs, in the order of operations of its formula over the whole tape,
    so each element is the one the formula gives."""
    k = hi - lo
    times = np.arange(lo, hi, dtype=np.float64)  # epsilon * i
    times *= config.epsilon

    shocks = None  # the walk's standardized price shocks
    p = config.price
    if isinstance(p, ConstantPrice):
        prices = np.full(k, p.level, dtype=np.float64)
    elif isinstance(p, WalkPrice):
        shocks = rng.standard_normal(k)
        if lo == 0:
            shocks[0] = 0.0
        # start * exp(log_vol * cumsum(shocks)): cumsum adds in sequence, so
        # the sum carries on from the last block's exactly
        sums = np.empty(k + 1)
        sums[0] = walk
        sums[1:] = shocks
        np.cumsum(sums, out=sums)
        walk = sums[-1]
        prices = sums[1:]
        prices *= p.log_vol
        np.exp(prices, out=prices)
        prices *= p.start
    else:
        prices = np.arange(lo, hi, dtype=np.float64)  # base * exp(amp * sin(2 pi i / period))
        prices *= 2.0 * math.pi
        prices /= p.period
        np.sin(prices, out=prices)
        prices *= p.log_amplitude
        np.exp(prices, out=prices)
        prices *= p.base

    v = config.volume
    if isinstance(v, ConstantVolume):
        volumes = np.full(k, v.level, dtype=np.float64)
    elif isinstance(v, HeavyTailVolume):
        volumes = uniforms.random(k)  # base * (1 - u) ** (-1 / shape)
        np.subtract(1.0, volumes, out=volumes)
        volumes **= -1.0 / v.shape
        volumes *= v.base
    else:
        volumes = np.full(k, v.base, dtype=np.float64)
        if lo <= v.position < hi:
            volumes[v.position - lo] = v.whale_volume

    # exp(coupling * z) of a zero shock is 1, which leaves a volume as it is
    if config.coupling != 0.0 and shocks is not None:
        shocks *= config.coupling
        np.exp(shocks, out=shocks)
        volumes *= shocks
    return (times, prices, volumes, prices * volumes), walk


def generate(config: GenConfig) -> TradeTape:
    """Build a tape from a config; identical (config, seed) gives an
    identical tape.  Its four arrays are filled from :func:`tape_blocks`."""
    blocks = tape_blocks(config)  # the config is checked before the arrays are made
    fields = [np.empty(config.ticks) for _ in range(4)]
    lo = 0
    for block in blocks:
        for field, x in zip(fields, block):
            field[lo:lo + len(x)] = x
        lo += len(block[0])
    return TradeTape._own(*fields, config.epsilon)


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
    lag = integral("lag", lag, 1, InvalidConfig)
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


@_quiet
def weighting_contrast(tape: TradeTape, window: WindowSpec,
                       lags: LagSpec) -> WeightingContrast:
    """Compare the plain mean return with VaWAR on one window.

    The two agree only when all adjusted values in the window are equal;
    a single large trade drags VaWAR toward its own return while barely
    moving the frequency mean.  A return that overflows is +inf (returns
    are ratios of positive prices), and so is the frequency mean.
    """
    resolved = resolve(tape, window, lags)
    returns = return_series(resolved, None)
    return WeightingContrast(
        freq_mean_return=freq_moment(returns, 1) if np.isfinite(returns).all() else math.inf,
        vawar=return_moment(resolved, None, 1),
    )
