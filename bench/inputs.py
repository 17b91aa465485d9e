"""Seeded input tapes, generated by the benchmark's own NumPy code.

The generator follows the models of ``vawar.synth`` (multiplicative walk
prices, Pareto heavy-tail volumes, optional price-volume coupling) draw for
draw, so a ``simulate`` config rendered here must come back from the CLI
byte for byte.  The benchmark never calls ``vawar.synth`` or
``vawar.tape.write_csv`` itself: a change to either cannot change a
workload's inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tape:
    """Columns of one tape, exactly as the CLI will parse them back."""

    times: np.ndarray
    prices: np.ndarray
    volumes: np.ndarray
    values: np.ndarray

    def __len__(self):
        return self.times.shape[0]


def sub_seed(seed, k):
    """Independent 32-bit seed number k derived from the run seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def walk_config(ticks, seed, log_vol, coupling=0.0):
    """A ``simulate`` config: walk prices from 100, heavy-tail volumes."""
    return {
        "ticks": ticks,
        "seed": seed,
        "epsilon": 1.0,
        "price": {"model": "walk", "start": 100.0, "log_vol": log_vol},
        "volume": {"model": "heavy_tail", "base": 50.0, "shape": 2.5},
        "coupling": coupling,
    }


def generate(config) -> Tape:
    """Tape of a walk + heavy_tail config, in the draw order of vawar.synth:
    price shocks first (shock 0 forced to 0), then the volume uniforms."""
    n = config["ticks"]
    price, volume = config["price"], config["volume"]
    if price["model"] != "walk" or volume["model"] != "heavy_tail":
        raise ValueError("only walk prices with heavy_tail volumes are modelled")
    rng = np.random.default_rng(config["seed"])
    shocks = rng.standard_normal(n)
    shocks[0] = 0.0
    prices = price["start"] * np.exp(price["log_vol"] * np.cumsum(shocks))
    u = rng.random(n)
    volumes = volume["base"] * (1.0 - u) ** (-1.0 / volume["shape"])
    if config["coupling"] != 0.0:
        volumes = volumes * np.exp(config["coupling"] * shocks)
    times = 0.0 + config["epsilon"] * np.arange(n, dtype=np.float64)
    return Tape(times, prices, volumes, prices * volumes)


def render_csv(tape: Tape, with_value) -> bytes:
    """CSV in the ingest format with %.17g floats (a lossless round trip)."""
    cols = [tape.times, tape.prices, tape.volumes]
    header = "time,price,volume"
    if with_value:
        cols.append(tape.values)
        header += ",value"
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    cells = np.column_stack(cols).ravel().tolist()
    return (header + "\n" + (row * len(tape)) % tuple(cells)).encode("ascii")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
