"""The benchmark's own tests run as part of this suite.

They patch and call names at the import sites the benchmark tracer wraps
(``cones.rref``, ``polyhedra.rref`` and the traced functions), so a
library change that breaks one of those sites fails here too.  They run in
a subprocess because ``perfbench/tests`` has its own ``conftest`` module,
which cannot share a pytest session with the one in ``tests/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "perfbench/tests"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
