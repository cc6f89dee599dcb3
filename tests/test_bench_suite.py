"""The benchmark's own tests and its correctness gates run as part of
this suite.

The benchmark's tests patch and call names at the import sites the
benchmark tracer wraps (``cones.rref``, ``polyhedra.rref`` and the traced
functions), so a library change that breaks one of those sites fails here
too.  They run in a subprocess because ``perfbench/tests`` has its own
``conftest`` module, which cannot share a pytest session with the one in
``tests/``.

One short pass of each workload checks what the benchmark checks on every
run: the stored corpus bytes, and the ``is_increasing_inductive`` oracle
for every eta-sweep verdict.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "perfbench/tests"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", ["corpus", "eta-sweep"])
def test_benchmark_workload_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
