"""The benchmark's traced path, at tiny sizes.

``bench/runner.py`` runs each workload's invocations through
``vawar.cli.main`` in this process, an untraced pass and then a pass with
shims on the layer modules' public functions (``bench/tracing.py``).  Every
invocation must succeed, both passes must write the same bytes, and every
per-layer metric that ``BENCHMARK.json`` lists must be reported: a CLI that
kept the callables it imported from an earlier call would bypass the shims.
The runner measures the sources of this checkout, so the test skips when
``vawar`` is imported from elsewhere (an installed package).  No bytecode
is cached under ``bench/``.
"""

import json
import sys
from pathlib import Path

import pytest

import vawar

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

sys.path.insert(0, str(BENCH))
_saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import runner  # noqa: E402  (bench/runner.py, with tracing and workloads)
    from workloads import TINY  # noqa: E402
finally:
    sys.dont_write_bytecode = _saved

LISTED = [m["name"] for m in
          json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]


@pytest.mark.skipif(not Path(vawar.__file__).resolve().is_relative_to(ROOT / "src"),
                    reason="vawar is not imported from this checkout's src")
@pytest.mark.parametrize("name", sorted(runner.BUILDERS))
def test_traced_run_succeeds_and_reports_every_listed_metric(tmp_path, monkeypatch, name):
    monkeypatch.setattr(sys, "path", sys.path[:])  # the runner puts src first
    record = runner.run_workload(name, 5, 0, True, sizes=TINY, out=tmp_path)
    assert record["failed"] == 0, record["failures"]
    assert [k for k in LISTED if k not in record["metrics"]] == []
