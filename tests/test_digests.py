"""Byte identity of the benchmark's outputs.

Seed 101 of each workload of ``bench/workloads.py`` is regenerated in
process at the measured (``FULL``) sizes; its CLI invocations then run
through ``vawar.cli.main`` in one child process per workload, with the
benchmark's child environment (``OPENBLAS_NUM_THREADS=1``: the density
inversion's matrix products round differently with more BLAS threads).
The sha256 of every input and output must be the one recorded in
``bench/digests.json``.  The test only reads ``bench/``: the workloads
write into a temporary directory, and no bytecode is cached there.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vawar

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 101

sys.path.insert(0, str(BENCH))
_saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import workloads  # noqa: E402  (bench/workloads.py, with checks and inputs)
finally:
    sys.dont_write_bytecode = _saved

DIGESTS = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))["workloads"]

# Runs each argv of the JSON list on stdin; exits with the first failure.
_CHILD = """\
import json, sys
from vawar.cli import main
for argv in json.load(sys.stdin):
    status = main(argv)
    if status:
        sys.exit(status)
"""


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_outputs_match_recorded_digests(tmp_path, name):
    want = DIGESTS[name][str(SEED)]
    workload = workloads.BUILDERS[name](SEED, workloads.FULL[name], tmp_path)
    assert {f: _sha256(data) for f, data in workload.inputs.items()} == want["inputs"]
    for fname, data in workload.inputs.items():
        (tmp_path / fname).write_bytes(data)

    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(Path(vawar.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    argvs = [list(invocation.argv) for invocation in workload.invocations]
    child = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(argvs),
                           capture_output=True, text=True, env=env, timeout=300)
    assert child.returncode == 0, child.stderr

    outputs = [Path(p) for invocation in workload.invocations for p in invocation.outputs]
    assert {p.name: _sha256(p.read_bytes()) for p in outputs} == want["outputs"]
