"""In-process tracing of vawar's layers through shims.

:meth:`Tracer.install` replaces every public module-level function of the
layer modules (and ``build_parser``/``main`` of ``vawar.cli``) with a shim
that records a span: name, start, end, parent span and invocation id.  It
also rebinds the names other vawar modules imported from those modules
(``cli`` does ``from .moments import moment_report``), so every call on the
CLI path goes through a shim.  Spans are kept in flat arrays in memory and
aggregated, or saved, when the run ends.  Everything runs in one thread, so
a span's parent is simply the span open below it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "tape", "moments", "correlations", "charfn", "reportio", "synth")
#: A function gets p50/p99 durations where one run makes at least this many calls.
MIN_CALLS_FOR_PERCENTILES = 1000

# Work counted at a shim: counter name, value taken before the call (or
# None), and the amount added from (args, result, before).
_COUNTERS = {
    "tape.ingest": ("rows", None, lambda args, result, before: len(result)),
    "tape.write_csv": ("rows", None, lambda args, result, before: len(args[0])),
    "reportio.dumps_json": ("bytes", None, lambda args, result, before: len(result)),
    "reportio.write_csv_rows": ("bytes", lambda args: args[0].tell(),
                                lambda args, result, before: args[0].tell() - before),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.invocations = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters = Counter()
        self.invocation = -1
        self._stack = []
        self._restore = []

    def reset(self):
        for arr in (self.name_ids, self.parents, self.invocations, self.starts, self.ends):
            del arr[:]
        self.counters.clear()

    def _wrap(self, name, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        counter = _COUNTERS.get(name)
        stack, starts, ends = self._stack, self.starts, self.ends

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = len(starts)
            self.name_ids.append(nid)
            self.parents.append(stack[-1] if stack else -1)
            self.invocations.append(self.invocation)
            ends.append(0.0)
            before = counter[1](args) if counter and counter[1] else None
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if counter:
                self.counters[f"{name}.{counter[0]}"] += counter[2](args, result, before)
            return result

        return shim

    def install(self):
        shims = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"vawar.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    shims[obj] = self._wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "vawar" and not modname.startswith("vawar."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in shims:
                    setattr(mod, attr, shims[obj])
                    self._restore.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in self._restore:
            setattr(mod, attr, obj)
        self._restore.clear()

    def columns(self):
        """Span table as NumPy arrays, with each span's self time."""
        starts = np.array(self.starts, dtype=np.float64)
        dur = np.array(self.ends, dtype=np.float64) - starts
        parents = np.array(self.parents, dtype=np.intc)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
        return {
            "name": np.array(self.name_ids, dtype=np.intc),
            "parent": parents,
            "invocation": np.array(self.invocations, dtype=np.intc),
            "start": starts,
            "duration": dur,
            "self": dur - child,
        }

    def save(self, path):
        """Write the span table and the names it indexes (``.npz``)."""
        np.savez_compressed(path, names=np.array(self.names), **self.columns())


def layer_of(name):
    return name.split(".", 1)[0]


def summarize(tracer, functions):
    """Per-function and per-layer call counts and times of the spans held.

    Returns ``{name: {"calls", "busy_s", "self_s"[, "p50_us", "p99_us"]}}``
    for each traced function that was called, ``{layer: {"calls",
    "self_s"}}``, and per-invocation ``(calls by layer, summed self time)``.
    """
    cols = tracer.columns()
    k = len(tracer.names)
    calls = np.bincount(cols["name"], minlength=k)
    busy = np.bincount(cols["name"], weights=cols["duration"], minlength=k)
    selfs = np.bincount(cols["name"], weights=cols["self"], minlength=k)
    per_fn = {}
    for nid, name in enumerate(tracer.names):
        if not calls[nid]:
            continue
        stats = {"calls": int(calls[nid]), "busy_s": float(busy[nid]), "self_s": float(selfs[nid])}
        if name in functions and calls[nid] >= MIN_CALLS_FOR_PERCENTILES:
            p50, p99 = np.percentile(cols["duration"][cols["name"] == nid] * 1e6, [50, 99])
            stats.update(p50_us=float(p50), p99_us=float(p99))
        per_fn[name] = stats
    per_layer = {}
    for name, stats in per_fn.items():
        agg = per_layer.setdefault(layer_of(name), {"calls": 0, "self_s": 0.0})
        agg["calls"] += stats["calls"]
        agg["self_s"] += stats["self_s"]
    per_inv = {}
    for inv in np.unique(cols["invocation"]).tolist():
        mask = cols["invocation"] == inv
        layer_calls = Counter(layer_of(tracer.names[i]) for i in cols["name"][mask].tolist())
        per_inv[inv] = (layer_calls, float(np.sum(cols["self"][mask])))
    return per_fn, per_layer, per_inv
