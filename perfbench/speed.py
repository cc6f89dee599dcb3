"""Machine-speed gauge: scales measured times to one fixed machine speed.

On a shared machine the speed of one core drifts by tens of percent over
minutes, and the whole run slows with it.  The gauge times a fixed
reference loop (exact rational elimination with the standard library's
``Fraction``, independent of the library under test) at intervals during a
run.  A time measured between two samples is multiplied by
``REF_SECONDS / (mean of the two reference times)``: it then reads as on a
machine where the loop takes ``REF_SECONDS``.  Work that slows with the
machine, as this pure-Python workload does, keeps a steady scaled time.
"""

from __future__ import annotations

import bisect
import random
import time
from fractions import Fraction

REF_SECONDS = 0.025
INTERVAL_S = 1.0  # least time between two samples taken when due


def reference_loop() -> None:
    """Reduced row echelon forms of three fixed 12 x 14 rational matrices."""
    rng = random.Random(7)
    for _ in range(3):
        _rref([[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(14)]
               for _ in range(12)])


def _rref(m: list) -> None:
    n, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, n) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pivot = m[r][c]
        m[r] = [x / pivot for x in m[r]]
        for i in range(n):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1


class Gauge:
    """Reference-loop samples of one run, in time order."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        reference_loop()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def sample_if_due(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor for a time measured over [start, end]: from the last sample
        ended by ``start`` and the first begun at or after ``end``."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.starts, end)
        picked = [i for i in (before, after) if 0 <= i < len(self.starts)]
        if not picked:
            raise ValueError("no reference sample around the interval")
        ref = sum(self.ends[i] - self.starts[i] for i in picked) / len(picked)
        return REF_SECONDS / ref
