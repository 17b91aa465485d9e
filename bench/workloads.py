"""The four workloads: seeded inputs, CLI invocations and their checks.

Each builder takes the run seed and a size table and returns a
:class:`Workload`.  Arguments name files by absolute path inside the run's
work directory, so the same argv serves a subprocess and an in-process
``vawar.cli.main`` call.  The program sees only the generated files.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

#: Sizes of the measured runs (see BENCHMARK.json for why each exists).
FULL = {
    "rolling_sweep": {"ticks": 6000, "window": 390, "start": 390, "order": 4},
    "shift_sweep": {"ticks": 20000, "window": 390, "start": 5000, "max_shift": 4000},
    "tape_io": {"ticks": 200000, "window": 390, "order": 8, "contrast_window": 1001},
    "density": {"ticks": 6000, "window": 390, "start": 390, "orders": (2, 4, 6)},
}

#: Sizes of the smoke test of the benchmark itself.
TINY = {
    "rolling_sweep": {"ticks": 120, "window": 30, "start": 30, "order": 4},
    "shift_sweep": {"ticks": 400, "window": 30, "start": 200, "max_shift": 150},
    "tape_io": {"ticks": 3000, "window": 30, "order": 8, "contrast_window": 101},
    "density": {"ticks": 120, "window": 30, "start": 30, "orders": (2, 4, 6)},
}

#: Number of windows or shifts whose values are checked against the sums.
SAMPLES = 10


@dataclass
class Invocation:
    """One CLI call: ``argv`` for ``vawar.cli.main``, the files it writes,
    its work items, a check returning failure messages, and the number of
    window reports it emits (stats only)."""

    argv: list
    outputs: list
    items: int
    check: Callable[[], list]
    reports: int = 0

    @property
    def command(self):
        return self.argv[0]


@dataclass
class Workload:
    name: str
    item: str
    inputs: dict                       # file name -> bytes
    invocations: list
    info: dict = field(default_factory=dict)
    layer_counts: Callable[[], dict] = dict

    @property
    def items(self):
        return sum(inv.items for inv in self.invocations)


def _sample(seed, n, k=SAMPLES):
    """First, last and k-2 seeded indices out of range(n), sorted."""
    rng = np.random.default_rng([seed, 7])
    picks = {0, n - 1}
    picks.update(rng.choice(n, size=min(n, k) - len(picks), replace=False).tolist())
    return sorted(picks)


def _read(path):
    return Path(path).read_text(encoding="utf-8")


def rolling_sweep(seed, size, work):
    """stats --stride 1 over one tape: one report per tick, JSON out."""
    tape = inputs.generate(inputs.walk_config(size["ticks"], inputs.sub_seed(seed, 0), 0.02))
    n, start, order = size["window"], size["start"], size["order"]
    starts = list(range(start, size["ticks"] - n + 1))
    out = work / "stats.json"

    def check():
        fails = checks.Failures()
        reports = json.loads(_read(out))["reports"]
        fails.equal("window starts", [r["window_start"] for r in reports], starts)
        for k in _sample(seed, len(starts)) if len(reports) == len(starts) else []:
            checks.check_report(fails, reports[k], tape, starts[k], n, 1, order)
        return fails

    argv = ["stats", str(work / "tape.csv"), "--window", str(n), "--start", str(start),
            "--lag", "1", "--order", str(order), "--stride", "1", "--out", str(out)]
    return Workload("rolling_sweep", "window report",
                    {"tape.csv": inputs.render_csv(tape, with_value=False)},
                    [Invocation(argv, [out], len(starts), check, len(starts))])


def shift_sweep(seed, size, work):
    """acorr (CSV) and xcorr (JSON) over shifts j = 0..J of one window."""
    tape = inputs.generate(inputs.walk_config(size["ticks"], inputs.sub_seed(seed, 1), 0.02))
    n, start, shifts = size["window"], size["start"], size["max_shift"]
    path = str(work / "tape.csv")
    common = [path, "--window", str(n), "--start", str(start), "--lag", "1",
              "--max-shift", str(shifts)]
    acorr_out, xcorr_out = work / "acorr.csv", work / "xcorr.json"
    picks = _sample(seed, shifts + 1)

    def check_acorr():
        fails = checks.Failures()
        rows = checks.sweep_csv_rows(_read(acorr_out))
        fails.equal("shifts", [r["j"] for r in rows], list(range(shifts + 1)))
        for j in picks if len(rows) == shifts + 1 else []:
            fails.equal(f"j {j} degrees", [rows[j][k] for k in ("l1", "l2", "n", "m")], [1, 2, 1, 1])
            want, anchor = checks.corr_r(checks.Pair(tape, start, n, j, 1, 2))
            checks.check_sweep_row(fails, rows[j], "corr_r", want, anchor,
                                   ("value_form", "price_form", "definitional"))
        return fails

    def check_xcorr():
        fails = checks.Failures()
        rows = json.loads(_read(xcorr_out))["rows"]
        fails.equal("shifts", [r["j"] for r in rows], [j for j in range(shifts + 1) for _ in (0, 1)])
        for j in picks if len(rows) == 2 * (shifts + 1) else []:
            pair = checks.Pair(tape, start, n, j, 1, 1)
            ru, rp = rows[2 * j], rows[2 * j + 1]
            fails.equal(f"j {j} degrees", [rp[k] for k in ("l1", "l2", "n", "m")], [1, 1, 2, 1])
            checks.check_sweep_row(fails, ru, "corr_rU", *checks.corr_ru(pair),
                                   ("value_form", "price_form", "definitional"))
            checks.check_sweep_row(fails, rp, "corr_rp", *checks.corr_rp(pair, 2, 1),
                                   ("value_form", "definitional"))
        return fails

    return Workload(
        "shift_sweep", "shift",
        {"tape.csv": inputs.render_csv(tape, with_value=False)},
        [Invocation(["acorr"] + common + ["--lag2", "2", "--format", "csv", "--out", str(acorr_out)],
                    [acorr_out], shifts + 1, check_acorr),
         Invocation(["xcorr"] + common + ["--degree-n", "2", "--degree-m", "1", "--out", str(xcorr_out)],
                    [xcorr_out], shifts + 1, check_xcorr)])


def tape_io(seed, size, work):
    """simulate a long tape with a value column, then validate, a daily
    stats sweep at order 8, and one contrast, all reading that file."""
    config = inputs.walk_config(size["ticks"], inputs.sub_seed(seed, 2), 0.025)
    ticks, n, order, cn = size["ticks"], size["window"], size["order"], size["contrast_window"]
    starts = list(range(1, ticks - n + 1, n))
    path = work / "tape.csv"
    validate_out, stats_out, contrast_out = work / "validate.json", work / "stats.csv", work / "contrast.json"

    # The program's only input is the config: the tape is built for the
    # checks alone, when the first of them runs, not in the timed set-up.
    @functools.cache
    def tape():
        return inputs.generate(config)

    def check_simulate():
        fails = checks.Failures()
        expected = inputs.sha256(inputs.render_csv(tape(), with_value=True))
        fails.equal("tape.csv sha256", inputs.sha256(path.read_bytes()), expected)
        return fails

    def check_validate():
        fails = checks.Failures()
        doc = json.loads(_read(validate_out))
        fails.equal("validate", (doc["valid"], doc["ticks"], doc["error"]), (True, ticks, None))
        return fails

    def check_stats():
        fails = checks.Failures()
        reports = checks.stats_csv_reports(_read(stats_out), order)
        fails.equal("window starts", [r["window_start"] for r in reports], starts)
        for k in _sample(seed, len(starts)) if len(reports) == len(starts) else []:
            checks.check_report(fails, reports[k], tape(), starts[k], n, 1, order)
        return fails

    def check_contrast():
        fails = checks.Failures()
        checks.check_contrast(fails, json.loads(_read(contrast_out)), tape(), 1, cn, 1)
        return fails

    window = ["--window", str(n), "--start", "1", "--lag", "1"]
    return Workload(
        "tape_io", "tape row read or written",
        {"config.json": json.dumps(config).encode("ascii")},
        [Invocation(["simulate", "--config", str(work / "config.json"), "--out", str(path)],
                    [path], ticks, check_simulate),
         Invocation(["validate", str(path), "--out", str(validate_out)],
                    [validate_out], ticks, check_validate),
         Invocation(["stats", str(path)] + window + ["--stride", str(n), "--order", str(order),
                                                     "--format", "csv", "--out", str(stats_out)],
                    [stats_out], ticks, check_stats, len(starts)),
         Invocation(["contrast", str(path), "--window", str(cn), "--start", "1", "--lag", "1",
                     "--out", str(contrast_out)],
                    [contrast_out], ticks, check_contrast)])


def density(seed, size, work):
    """density at orders m on two tapes: coupling -1 makes a_2 < 0 (always
    damped), coupling +1 makes a_2 > 0 (m = 2 is the undamped Gaussian)."""
    n, start = size["window"], size["start"]
    tapes = {name: inputs.generate(inputs.walk_config(size["ticks"], inputs.sub_seed(seed, k), 0.02, coupling))
             for k, (name, coupling) in enumerate((("dneg", -1.0), ("dpos", 1.0)), start=3)}
    invocations = []
    sidecars = []
    info = {}
    for name, tape in tapes.items():
        w = checks.Window(tape, start, n, 1)
        a2 = info[f"{name}.a2"] = w.ret(2) - w.ret(1) ** 2
        for order in size["orders"]:
            out = work / f"{name}_m{order}.csv"
            side = Path(f"{out}.json")
            sidecars.append(side)

            def check(tape=tape, order=order, out=out, side=side, name=name, a2=a2):
                fails = checks.Failures()
                # The workload must cover both branches of fit_charfn.
                fails.equal(f"{name} sign of a2 ({a2!r})", a2 > 0, name == "dpos")
                doc = json.loads(_read(side))
                probes = _sample(seed, doc["points"], 5)
                checks.check_density(fails, doc, _read(out), tape, start, n, 1, order, probes)
                return fails

            invocations.append(Invocation(
                ["density", str(work / f"{name}.csv"), "--window", str(n), "--start", str(start),
                 "--lag", "1", "--order", str(order), "--out", str(out)],
                [out, side], 1, check))

    def layer_counts():
        docs = [json.loads(_read(s)) for s in sidecars]
        return {"charfn.invert_density.trig_evals": sum(d["points"] * d["x_points"] // 2 for d in docs)}

    return Workload("density", "density fit",
                    {f"{name}.csv": inputs.render_csv(t, with_value=False) for name, t in tapes.items()},
                    invocations, info, layer_counts)


BUILDERS = {f.__name__: f for f in (rolling_sweep, shift_sweep, tape_io, density)}
