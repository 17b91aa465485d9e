"""Benchmark of the vawar CLI on seeded tapes.

    python3 bench/run.py --workload rolling_sweep --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 1 --trace 0

Run from the root of a checkout: the program under test is ``src/vawar``
next to this directory.  With ``--trace 0`` every CLI invocation is a fresh
subprocess and the end-to-end metrics are reported; with ``--trace 1`` the
same sequence runs in-process with shims around each layer's public
functions and the per-layer metrics are reported.  Every output is checked
against literal defining sums and must be byte-identical across passes.

Every metric is printed as ``workload metric value unit``; the last line is
one JSON object with the metrics that BENCHMARK.json lists.  Records of each
run (machine, child environment, input and output digests, every pass) go
to ``bench/out/``.  The exit code is 1 when any invocation failed or any
output check failed, 2 when the checkout holds no vawar sources.

``bench/smoke.py`` tests the benchmark itself at tiny sizes;
``bench/summarize.py`` gives medians and spreads of the run records.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("rolling_sweep", "shift_sweep", "tape_io", "density")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vawar" / "cli.py").is_file():
        print(f"bench: {ROOT / 'src' / 'vawar'} is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # Before NumPy loads in this process; the traced run calls vawar in
    # process, so it must take the same serial path as the children.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ.pop("VAWAR_THREADS", None)
    # On SIGTERM unwind normally, so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import runner

    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [m["name"] for m in listed["per_layer" if args.trace else "end_to_end"]]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [runner.run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names]

    for rec in records:
        for reason in rec["failures"]:
            print(f"bench: {rec['workload']} FAILED {reason}", file=sys.stderr)
        for metric, m in rec["metrics"].items():
            print(f"{rec['workload']:<14} {metric:<44} {m['value']:>16.8g} {m['unit']}")
        if rec["wait"]:
            print(f"{rec['workload']:<14} wait: {rec['wait']}")
    if len(records) == 1:
        metrics = {k: records[0]["metrics"][k] for k in listed}
    else:
        metrics = {f"{rec['workload']}.{k}": m for rec in records for k, m in rec["metrics"].items()}
    failed = sum(rec["failed"] for rec in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(rec["attempted"] for rec in records),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
