"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 bench/smoke.py

Checks that every workload emits each of its metrics with the catalogue's
unit, traced and untraced; that the traced self times account for the
traced wall; that corrupted or non-deterministic outputs are caught and
counted in failed_ratio; and that the benchmark refuses to run, without
printing a result, in a directory that holds no vawar sources.
Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import runner  # noqa: E402
from workloads import TINY  # noqa: E402

OUT = runner.OUT / "smoke"
E2E = runner.CATALOGUE["end_to_end"]
COMMAND_METRICS = {f"{c}_s" for c in ("validate", "stats", "acorr", "xcorr", "density",
                                      "simulate", "contrast")}
LISTED = json.loads((runner.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Per-layer metrics named for each workload, beyond those every workload emits.
NAMED = {
    "rolling_sweep": ["moments.moment_report.busy_s", "moments.moment_report.self_s",
                      "moments.return_moment.calls", "moments.return_moment.busy_s",
                      "moments.public_calls_per_report"],
    "shift_sweep": [f"correlations.{fn}.{stat}"
                    for fn in ("pair_windows", "return_autocorr", "return_volume_corr",
                               "return_price_corr")
                    for stat in ("calls", "busy_s", "self_s")]
                   + ["correlations.paired_expectation_per_shift", "reportio.write_csv_rows.busy_s"],
    "tape_io": ["tape.write_csv.busy_s", "tape.write_csv.rows_per_s", "synth.generate.busy_s",
                "synth.weighting_contrast.busy_s", "reportio.write_csv_rows.busy_s",
                "moments.public_calls_per_report"],
    "density": ["charfn.fit_charfn.busy_s", "charfn.invert_density.busy_s",
                "charfn.write_density_csv.busy_s", "charfn.invert_density.trig_evals"],
}


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def run(name, traced, corrupt=None):
    return runner.run_workload(name, 5, 0, traced, sizes=TINY, out=OUT, corrupt=corrupt)


def check_units(rec, names):
    missing = [n for n in names if n not in rec["metrics"]]
    expect(not missing, f"{rec['workload']} trace={rec['trace']} emits {len(names)} metrics"
           + (f" (missing {missing})" if missing else ""))
    wrong = [n for n, m in rec["metrics"].items() if m["unit"] != runner.unit_of(n)]
    expect(not wrong, f"{rec['workload']} trace={rec['trace']} units match the catalogue")


def main():
    if OUT.exists():
        shutil.rmtree(OUT)
    for name in TINY:
        rec = run(name, False)
        expect(rec["correct"] and rec["metrics"]["failed_ratio"]["value"] == 0,
               f"{name} untraced run is correct: {rec['failures'][:2]}")
        ran = {f"{p['command']}_s" for p in rec["passes"][0]}
        check_units(rec, [n for n in E2E if n in ran or n not in COMMAND_METRICS])

        rec = run(name, True)
        expect(rec["correct"], f"{name} traced run is correct: {rec['failures'][:2]}")
        layers = [m["name"] for m in LISTED["per_layer"]]
        check_units(rec, layers + NAMED[name] + ["trace.accounted_ratio"])
        ratio = rec["metrics"]["trace.accounted_ratio"]["value"]
        expect(abs(ratio - 1.0) < 0.01, f"{name} self times account for the traced wall ({ratio:.5f})")
        for key, m in rec["metrics"].items():
            if key.endswith(".calls") and key.rsplit(".", 1)[0] in runner.FUNCTIONS:
                has = f"{key[:-6]}.p50_us" in rec["metrics"]
                expect(has == (m["value"] >= 1000), f"{key[:-6]} percentiles iff >= 1000 calls")

    def perturb_vawar(inv):
        path = inv.outputs[0]
        doc = json.loads(path.read_text(encoding="utf-8"))
        for report in doc["reports"]:
            report["r_n"][0] *= 1.0 + 1e-9
        path.write_text(json.dumps(doc), encoding="utf-8")

    rec = run("rolling_sweep", False, perturb_vawar)
    expect(rec["metrics"]["failed_ratio"]["value"] > 0 and not rec["correct"],
           f"a VaWAR perturbed by 1e-9 is caught: {rec['failures'][:1]}")

    calls = []

    def drift(inv):
        calls.append(inv)
        if len(calls) > 2:  # second pass of shift_sweep's two invocations
            with open(inv.outputs[0], "a", encoding="utf-8") as fh:
                fh.write("\n")

    rec = run("shift_sweep", True, drift)
    expect(rec["failed"] == 2 and all("differs" in r for r in rec["failures"]),
           f"outputs that change between passes are caught: {rec['failures'][:1]}")

    bare = OUT / "bare"
    (bare / "bench").mkdir(parents=True)
    shutil.copy(runner.ROOT / "BENCHMARK.json", bare)
    for path in runner.BENCH.glob("*.*"):
        if path.is_file():
            shutil.copy(path, bare / "bench")
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "rolling_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(done.returncode != 0 and "correct" not in done.stdout,
           f"refuses to run without vawar sources (exit {done.returncode})")
    shutil.rmtree(OUT)
    print("smoke: all expectations met")


if __name__ == "__main__":
    main()
