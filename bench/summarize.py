"""Summarize run records over seeds: per workload and metric, the median,
the quartiles and the spread (distance between the quartiles / median).

    python3 bench/summarize.py bench/out/runs > summary.json

Quartiles are those of ``statistics.quantiles(values, n=4)``.  A table goes
to standard error, the JSON document to standard output.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def summarize(records):
    values = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            values.setdefault(rec["workload"], {}).setdefault(name, (m["unit"], []))[1].append(m["value"])
    out = {}
    for workload, metrics in values.items():
        for name, (unit, vs) in metrics.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            out.setdefault(workload, {})[name] = {
                "unit": unit, "n": len(vs), "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else None}
    return out


def main(argv):
    records = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted(Path(argv[1] if len(argv) > 1 else "bench/out/runs").glob("*.json"))]
    if not records:
        print("summarize: no run records", file=sys.stderr)
        return 1
    summary = summarize(records)
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            spread = "" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload:<14} {name:<44} n={s['n']:<3} median {s['median']:<14.6g} "
                  f"spread {spread} {s['unit']}", file=sys.stderr)
    print(json.dumps({
        "machine": records[0]["machine"],
        "seconds": sorted({r["seconds"] for r in records}),
        "seeds": sorted({r["seed"] for r in records}),
        "all_correct": all(r["correct"] for r in records),
        "workloads": summary,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
