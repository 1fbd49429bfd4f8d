"""Host-speed calibration: scale measured times to a reference host speed.

The benchmark runs on shared machines whose speed drifts by up to 40% for
minutes at a time, with the process on the CPU all along (neighbours on
the same core, frequency changes).  Such a drift moves every run of a
workload together, so no number of cycles or median within one run takes
it out of the spread between runs.

So the benchmark times one fixed unit of exact rational arithmetic, the
same kind of work the program does (``Fraction`` sums over Fibonacci
ratios with ~100-bit terms), at every operation boundary and, from a
timer signal, every ``PERIOD`` seconds while an operation runs.  Each
operation's latency, less the time its in-operation samples took, is
scaled by ``REFERENCE_S`` over the median of the samples taken during it
and the ``WINDOW`` boundary samples on each side.  The unit never calls
into fibspaces, so a change to the program cannot move it; it only tells
how fast the host was while each operation ran.

On a 2-CPU x86 VM under CPython 3.11, repeating one verify-paper cycle
with the same inputs six times gave cycle times with a coefficient of
variation of 0.038 raw, 0.052 scaled by boundary samples alone and 0.020
scaled with the in-operation samples; twelve transform cycles gave 0.145
raw and 0.038 scaled.  The raw, unscaled figures are printed in the run
descriptor beside the scaled metrics.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Median seconds of one unit on a 2-CPU x86 VM under CPython 3.11.7 at
# its usual speed; scaled times read as times on that host.
REFERENCE_S = 0.0017
# Seconds between samples while an operation runs (each costs REFERENCE_S,
# about 3% of the time, which is taken out of the operation's latency).
PERIOD = 0.05
# Boundary samples each side of an operation that join its samples.
WINDOW = 3


def _unit() -> Fraction:
    total, a, b = Fraction(0), 1, 1
    for k in range(1, 160):
        a, b = b, a + b
        total += Fraction(a, b + k)
    return total


def sample() -> float:
    """Seconds one calibration unit takes now."""
    start = perf_counter()
    _unit()
    return perf_counter() - start


class Calibrator:
    """Takes calibration samples: on request with ``sample()``, and, as a
    context manager, from SIGALRM every PERIOD seconds into ``ticks`` as
    (start, seconds) pairs."""

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []
        self._busy = False
        self._previous = None

    def sample(self) -> float:
        """Seconds one unit takes now; a tick that falls inside is skipped."""
        self._busy = True
        try:
            return sample()
        finally:
            self._busy = False

    def _tick(self, signum, frame):
        if not self._busy:
            start = perf_counter()
            self.ticks.append((start, self.sample()))

    def during(self, start: float, end: float) -> list[float]:
        """Seconds of each tick taken between `start` and `end`."""
        return [seconds for at, seconds in self.ticks if start <= at < end]

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def scales(bounds: list[float], during: list[list[float]]) -> list[float]:
    """Scale factor for each of the len(bounds) - 1 operations, where
    bounds[i] was sampled just before operation i, bounds[i + 1] just after
    it and during[i] while it ran: REFERENCE_S over the median of during[i]
    and the WINDOW boundary samples on each side."""
    return [
        REFERENCE_S / statistics.median(bounds[max(0, i + 1 - WINDOW):i + 1 + WINDOW] + inside)
        for i, inside in enumerate(during)
    ]
