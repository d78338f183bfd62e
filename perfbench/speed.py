"""Machine speed measured between ops, so that every time is put at one reference speed.

The 2-vCPU VM that defined the benchmark shares its host, and its speed
drifts: a fixed loop took from 6.4 to 11.3 ms within one minute, and process
CPU time drifted with wall time, so the guest cannot subtract it.  Two
measured intervals of the same work, taken a minute apart, can differ by
three quarters; the ratio of glidekit's time to a fixed pure-Python loop run
beside it stayed within about 5%.

So the harness runs a fixed calibration slice (no glidekit code) every
``INTERVAL_S`` of measured time, outside every measured interval.  A measured
interval is multiplied by ``REFERENCE_S`` over the median slice time of the
marks around it: every time the benchmark reports is what the interval would
have taken on a machine where one slice takes ``REFERENCE_S``.  A change to
glidekit moves these times as it moves raw times; a change in the host's
speed moves the slices as much as the work and cancels.
"""

from __future__ import annotations

import gc
import statistics
import time
from bisect import bisect_right
from fractions import Fraction

# one slice's time on the reference machine; a constant, so scaled times of
# two commits compare directly
REFERENCE_S = 0.0015
INTERVAL_S = 0.1
# marks on each side of an interval whose slice times set its factor
WINDOW = 3

clock = time.perf_counter
# built once: small tuples go back to a free list, not through the
# collector's counts, so tuples made inside the slice would shift them
_KEYS = [(i % 37, i % 11, i % 5) for i in range(1100)]


def calibration_slice() -> int:
    """A fixed mix of what glidekit's inner loops do: a small-int loop, tuple
    keys in dicts, Fraction sums and big-integer products.

    Their shares of the slice's time (about 3 : 2 : 1 : 2) are the mix whose
    drift best followed the drift of an op of each workload in a two-minute
    probe on the VM that defined the benchmark.
    """
    acc = 0
    for i in range(8000):
        acc += i * i % 7
    table: dict = {}
    for i, key in enumerate(_KEYS):
        table[key] = table.get(key, 0) + i
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, i + 1)
    big = 3**300
    for i in range(800):
        acc += big * (i % 50 + 1) ** 20
    return len(table) + total.denominator + acc % 7


class Speed:
    """Calibration marks along one measured phase."""

    def __init__(self) -> None:
        self.times: list[float] = []  # clock at the end of each mark
        self.slices: list[float] = []  # slice time of each mark

    def mark(self, slices: int = 1) -> float:
        """Run ``slices`` calibration slices; record the median; return the clock after."""
        taken = []
        # with the collector off, the slice frees all it allocated and leaves
        # the collector's counts, and so the points where it runs inside the
        # measured work, as they were
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(slices):
                t0 = clock()
                calibration_slice()
                taken.append(clock() - t0)
        finally:
            if collecting:
                gc.enable()
        self.slices.append(statistics.median(taken))
        self.times.append(clock())
        return self.times[-1]

    def due(self, now: float) -> bool:
        return not self.times or now - self.times[-1] >= INTERVAL_S

    def segment(self, t: float) -> int:
        """Index of the last mark at or before clock value ``t``."""
        return max(0, bisect_right(self.times, t) - 1)

    def factor(self, segment: int) -> float:
        """REFERENCE_S over the median slice time of the marks around a segment."""
        lo = max(0, segment - WINDOW + 1)
        around = self.slices[lo : segment + WINDOW + 1]
        return REFERENCE_S / statistics.median(around)

    def factors(self) -> list[float]:
        return [self.factor(s) for s in range(len(self.slices))]


def scaled_interval(measure, slices: int = 5) -> tuple[float, object]:
    """Run ``measure()`` between two marks; return (scaled seconds, its result)."""
    speed = Speed()
    speed.mark(slices)
    t0 = clock()
    result = measure()
    elapsed = clock() - t0
    speed.mark(slices)
    return elapsed * REFERENCE_S / statistics.median(speed.slices), result
