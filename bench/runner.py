"""Runs one workload: set-up, the measured loop, output checks, metrics.

Untraced runs (``traced=False``) start every CLI invocation in a fresh
interpreter that runs ``vawar.cli`` as ``__main__``, one at a time: a closed
loop with one client, which is how a user runs the tool.  Traced runs call
``vawar.cli.main`` in-process, alternating an untraced and a traced pass of
the same sequence, and report per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

import numpy as np

import inputs
import tracing
from workloads import BUILDERS, FULL

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CATALOGUE = json.loads((BENCH / "catalogue.json").read_text(encoding="utf-8"))
FUNCTIONS = CATALOGUE["per_layer"]["functions"]

#: OpenBLAS threads in the children and in the traced process.
BLAS_THREADS = "1"
#: Set-ups per run; setup_s is their median.
SETUPS = 7
#: Startup probes after each pass of the sequence.
PROBES = 4
#: Seconds that reference_time() takes when the host gives it full speed.
#: A shared host switches between full and reduced speed many times a
#: second, and the share of reduced speed drifts over minutes (on a 2-vCPU
#: VM, runs of the same code minutes apart differed by 1.8x).  Calibrated
#: times are raw times x REF_NOMINAL_S / (the mean reference time of the
#: run), which cancels that share as far as program and reference slow
#: down alike.
REF_NOMINAL_S = 0.055

_PROBE = ("import time; t = time.perf_counter(); import vawar.cli; "
          "print(time.perf_counter() - t); print(vawar.cli.__file__)")

# Runs the CLI as ``python -m vawar.cli`` would, then reports the peak RSS of
# the process's own memory since exec (VmHWM).  The child's ru_maxrss is no
# use here: Linux carries the parent's peak RSS into it across fork and exec.
_CHILD = """\
import atexit, runpy, sys
def _peak():
    with open("/proc/self/status") as fh:
        kb = next(ln.split()[1] for ln in fh if ln.startswith("VmHWM:"))
    sys.stderr.write("\\nbench-peak-rss-kb " + kb + "\\n")
atexit.register(_peak)
runpy.run_module("vawar.cli", run_name="__main__", alter_sys=True)
"""


def child_env():
    """The environment of every child: the checkout's sources, a fixed
    OpenBLAS thread count, and no VAWAR_THREADS (the default serial path)."""
    env = dict(os.environ)
    env.pop("VAWAR_THREADS", None)
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    env["PYTHONPATH"] = str(SRC)
    return env


ENV_RECORD = {"removed": ["VAWAR_THREADS"],
              "set": {"OPENBLAS_NUM_THREADS": BLAS_THREADS, "PYTHONPATH": "src"}}


def startup_probe(env):
    """(wall of a fresh interpreter importing vawar.cli, the import alone)."""
    t0 = perf_counter()
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                          text=True, check=True)
    wall = perf_counter() - t0
    import_s, path = done.stdout.split("\n")[:2]
    if not Path(path).resolve().is_relative_to(SRC):
        raise RuntimeError(f"vawar.cli imported from {path}, not from {SRC}")
    return wall, float(import_s)


def reference_time():
    """Time a fixed piece of work like the program's own: float arithmetic
    in Python, %.17g formatting, and NumPy transcendental functions."""
    t0 = perf_counter()
    xs = [math.sqrt(i + 0.5) for i in range(50000)]
    ",".join(["%.17g" % x for x in xs])
    grid = np.arange(1.0, 500001.0)
    np.sum(np.cos(grid) * np.log(grid))
    return perf_counter() - t0


def spawn(cli_argv, env, log):
    """Run the CLI in a fresh interpreter to completion; (exit code, wall
    seconds, peak RSS in KiB or None).  The child's stderr goes to ``log``."""
    with open(log, "w+b") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", _CHILD] + cli_argv, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        try:
            proc.wait()
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = perf_counter() - t0
        err.seek(0)
        peaks = [ln.split()[1] for ln in err.read().decode(errors="replace").splitlines()
                 if ln.startswith("bench-peak-rss-kb ")]
    return proc.returncode, wall, int(peaks[-1]) if peaks else None


def sha256_file(path):
    return inputs.sha256(Path(path).read_bytes())


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "vawar").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine():
    """Where the numbers were taken."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "commit": commit, "dirty": dirty, "source_sha256": source_digest(),
            "child_env": ENV_RECORD}


class Ledger:
    """Invocations attempted and failed, with the reasons, and the output
    digests every later pass must reproduce byte for byte."""

    def __init__(self, workload, recorded):
        self.workload = workload
        self.recorded = recorded
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def settle(self, recs, label):
        """Account one pass; the first pass is also checked in full."""
        first = self.reference is None
        digests = {}
        for inv, rec in zip(self.workload.invocations, recs):
            self.attempted += 1
            why = [] if rec["rc"] == 0 else [f"exit code {rec['rc']}"]
            if not why:
                rec["digests"] = {Path(p).name: sha256_file(p) for p in inv.outputs}
                digests.update(rec["digests"])
                if first:
                    try:
                        why += inv.check()
                    except Exception as exc:  # malformed output fails its check
                        why.append(f"check raised {exc!r}")
                for name, digest in rec["digests"].items():
                    want = (self.reference or self.recorded).get(name)
                    if want is not None and want != digest:
                        why.append(f"{name} differs from an earlier run of the same code")
            if why:
                self.failed += 1
                self.reasons.append(f"{label} {inv.command}: " + "; ".join(why[:5]))
        if first:
            self.reference = digests


def _set_up(name, seed, sizes, work, env):
    t0 = perf_counter()
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    workload = BUILDERS[name](seed, sizes[name], work)
    for fname, data in workload.inputs.items():
        (work / fname).write_bytes(data)
    startup_probe(env)
    return workload, perf_counter() - t0


def _pass_subprocess(workload, env, work, corrupt, refs):
    recs = []
    for k, inv in enumerate(workload.invocations):
        rc, wall, rss = spawn(inv.argv, env, work / f"stderr-{k}.log")
        recs.append({"command": inv.command, "rc": rc, "wall_s": wall, "rss_kb": rss})
        refs.append(reference_time())
        if corrupt and rc == 0:
            corrupt(inv)
    return recs


def _pass_in_process(workload, cli, tracer, corrupt):
    recs = []
    for k, inv in enumerate(workload.invocations):
        if tracer:
            tracer.invocation = k
        t0 = perf_counter()
        try:
            rc = cli.main(list(inv.argv))
        except Exception:  # a crash is a failed invocation, not a failed benchmark
            traceback.print_exc()
            rc = -1
        recs.append({"command": inv.command, "rc": rc, "wall_s": perf_counter() - t0})
        if corrupt and rc == 0:
            corrupt(inv)
    return recs


def _wall(recs):
    return sum(r["wall_s"] for r in recs)


def _end_to_end(workload, passes, probes, refs, setups, ledger):
    wall = median([_wall(recs) for recs in passes])
    m = {"items_per_s": workload.items / wall, "wall_s": wall}
    for cmd in dict.fromkeys(inv.command for inv in workload.invocations):
        m[f"{cmd}_s"] = median([sum(r["wall_s"] for r in recs if r["command"] == cmd)
                                for recs in passes])
    m["startup_s"] = median([w for w, _ in probes])
    m["peak_rss_mb"] = max(r["rss_kb"] or 0 for recs in passes for r in recs) / 1024.0
    m["failed_ratio"] = ledger.failed / ledger.attempted
    m["reference_s"] = fmean(refs)
    speed = REF_NOMINAL_S / m["reference_s"]
    m["wall_cal_s"] = wall * speed
    m["items_per_cal_s"] = workload.items / m["wall_cal_s"]
    m["startup_cal_s"] = m["startup_s"] * speed
    m["setup_raw_s"] = median(setups)
    m["setup_s"] = m["setup_raw_s"] * speed
    return {k: m[k] for k in CATALOGUE["end_to_end"] if k in m}


def _layers(workload, tracer, recs):
    per_fn, per_layer, per_inv = tracing.summarize(tracer, FUNCTIONS)
    m = {}
    for name in FUNCTIONS:
        for stat, value in per_fn.get(name, {}).items():
            m[f"{name}.{stat}"] = value
    for layer in tracing.LAYERS:
        if layer in per_layer:
            m[f"{layer}.self_s"] = per_layer[layer]["self_s"]
            m[f"{layer}.calls"] = per_layer[layer]["calls"]
    stats = [k for k, inv in enumerate(workload.invocations) if inv.reports]
    if stats:
        m["moments.public_calls_per_report"] = (
            sum(per_inv[k][0]["moments"] for k in stats)
            / sum(workload.invocations[k].reports for k in stats))
    shifts = sum(inv.items for inv in workload.invocations if inv.command in ("acorr", "xcorr"))
    if shifts:
        m["correlations.paired_expectation_per_shift"] = (
            per_fn.get("correlations.paired_expectation", {}).get("calls", 0) / shifts)
    for fn in ("tape.ingest", "tape.write_csv"):
        if fn in per_fn:
            m[f"{fn}.rows_per_s"] = tracer.counters[f"{fn}.rows"] / per_fn[fn]["busy_s"]
    if "reportio" in per_layer:
        m["reportio.bytes_out"] = (tracer.counters["reportio.dumps_json.bytes"]
                                   + tracer.counters["reportio.write_csv_rows.bytes"])
    m.update(workload.layer_counts())
    m["trace.accounted_ratio"] = min(per_inv[k][1] / rec["wall_s"] for k, rec in enumerate(recs))
    return m


def _per_layer(traced, untraced, probes):
    names = dict.fromkeys(k for m, _ in traced for k in m)
    out = {k: median([m[k] for m, _ in traced]) for k in names}
    out["startup.import_s"] = median([i for _, i in probes])
    out["trace.wall_s"] = median([_wall(recs) for _, recs in traced])
    out["trace.untraced_wall_s"] = median([_wall(recs) for recs in untraced])
    out["trace.overhead_ratio"] = out["trace.wall_s"] / out["trace.untraced_wall_s"]
    return out


def unit_of(name):
    """Unit of any metric, from the catalogue."""
    cat = CATALOGUE["per_layer"]
    if name in CATALOGUE["end_to_end"]:
        return CATALOGUE["end_to_end"][name]["unit"]
    if name in cat["derived"]:
        return cat["derived"][name]["unit"]
    stat = name.rsplit(".", 1)[1]
    return (cat["function_stats"].get(stat) or cat["layer_stats"][stat])["unit"]


def run_workload(name, seed, seconds, traced, sizes=FULL, out=OUT, corrupt=None):
    """Set up, measure for ``seconds``, check; returns the run record.

    ``corrupt(invocation)``, if given, alters an invocation's outputs after
    it ran; the smoke test uses it to show that checks catch a bad output.
    """
    work = out / "work" / name
    env = child_env()
    digest_path = out / "digests" / f"{name}-seed{seed}.json"
    source = source_digest()
    setups = []
    input_digests = None
    for _ in range(SETUPS):
        workload, dt = _set_up(name, seed, sizes, work, env)
        setups.append(dt)
        got = {f: sha256_file(work / f) for f in workload.inputs}
        if input_digests not in (None, got):
            raise RuntimeError("benchmark inputs differ between set-ups of one seed")
        input_digests = got
    recorded = {}
    if digest_path.exists():
        previous = json.loads(digest_path.read_text(encoding="utf-8"))
        if previous["source"] == source and previous["inputs"] == input_digests:
            recorded = previous["outputs"]
    ledger = Ledger(workload, recorded)

    passes, traced_passes, probes, refs = [], [], [], []
    tracer = None
    if traced:
        sys.path.insert(0, str(SRC))
        import vawar.cli as cli
        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"vawar.cli imported from {cli.__file__}, not from {SRC}")
        tracer = tracing.Tracer()
    t0 = perf_counter()
    while not passes or perf_counter() - t0 < seconds:
        if traced:
            recs = _pass_in_process(workload, cli, None, corrupt)
            ledger.settle(recs, f"pass {len(passes)} untraced")
            passes.append(recs)
            tracer.reset()
            tracer.install()
            try:
                recs = _pass_in_process(workload, cli, tracer, corrupt)
            finally:
                tracer.uninstall()
            ledger.settle(recs, f"pass {len(passes)} traced")
            traced_passes.append((_layers(workload, tracer, recs), recs))
        else:
            recs = _pass_subprocess(workload, env, work, corrupt, refs)
            ledger.settle(recs, f"pass {len(passes)}")
            passes.append(recs)
        for _ in range(PROBES):
            probes.append(startup_probe(env))
            refs.append(reference_time())

    if traced:
        metrics = _per_layer(traced_passes, passes, probes)
        (out / "traces").mkdir(parents=True, exist_ok=True)
        tracer.save(out / "traces" / f"{name}-seed{seed}.npz")
    else:
        metrics = _end_to_end(workload, passes, probes, refs, setups, ledger)
    outputs = ledger.reference or {}
    if ledger.failed == 0:
        digest_path.parent.mkdir(parents=True, exist_ok=True)
        digest_path.write_text(json.dumps({"source": source, "inputs": input_digests,
                                           "outputs": outputs}, indent=1), encoding="utf-8")
    shutil.rmtree(work)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "sizes": sizes[name], "item": workload.item, "items": workload.items,
        "machine": machine(), "info": workload.info,
        "correct": ledger.failed == 0, "attempted": ledger.attempted, "failed": ledger.failed,
        "failures": ledger.reasons,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "wait": CATALOGUE["per_layer"]["wait"] if traced else None,
        "setups_s": setups, "passes": passes, "probes_s": probes, "reference_s": refs,
        "input_sha256": input_digests, "output_sha256": outputs,
    }
    (out / "runs").mkdir(parents=True, exist_ok=True)
    (out / "runs" / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return record
