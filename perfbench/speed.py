"""Machine speed, sampled through a run, to put timings in reference seconds.

On a shared machine the same code runs up to twice as slow in some spells
than in others, and a spell can outlast a whole run. The benchmark times a
fixed interpreter-bound reference loop between operations (at most every
``EVERY_S``, and around every longer operation). A wall time is scaled by
``NOMINAL_S`` over the mean of the loop times just before and just after
it, which gives reference seconds: seconds on a machine where the loop
takes ``NOMINAL_S``. The loop is part of the benchmark, not of dcqe, so a
change to dcqe moves reference seconds as it moves wall time.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Least time between two samples of the reference loop.
EVERY_S = 0.2

#: Reference-loop time that defines one reference second's speed.
NOMINAL_S = 0.0025


def reference_loop() -> float:
    """Seconds taken by a fixed interpreter-bound integer loop."""
    start = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    return time.perf_counter() - start


class Speed:
    """Reference-loop samples over one run, by the time each one ended."""

    def __init__(self):
        self.ends: list[float] = []
        self.loop_s: list[float] = []

    def sample(self, force: bool = False) -> None:
        if force or not self.ends or time.perf_counter() - self.ends[-1] >= EVERY_S:
            self.loop_s.append(reference_loop())
            self.ends.append(time.perf_counter())

    def scale(self, start: float, end: float) -> float:
        """Factor turning wall seconds spent in [start, end] into reference seconds."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_right(self.ends, end)
        near = [self.loop_s[i] for i in (before, after) if 0 <= i < len(self.loop_s)]
        return NOMINAL_S / statistics.fmean(near)
