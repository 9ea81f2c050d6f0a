"""The machine's speed, sampled while the benchmark measures.

The shared machine the benchmark was tuned on runs identical code at speeds
up to 1.8 times apart from one minute to the next, for every process alike,
with CPU time equal to wall time.  While a `Meter` is active, a timer signal
runs a fixed piece of pure Python work every EVERY seconds, with the garbage
collector off so that the program's heap is never walked inside a sample.
The speed at any moment is the running median of the WINDOW samples either
side; a timing is multiplied by REF over that speed, averaged over the
timed interval, giving seconds at a fixed reference speed.  The machine can
change speed in the middle of a long operation, so each 0.1 s of it is
scaled by its own speed.  The samples' own time is taken out of whatever
they interrupted.  The measured seconds are reported beside the scaled ones.
README.md gives the checks: a slowdown injected into the package shows in
the scaled seconds, and a larger heap leaves the samples alone.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction
from typing import List, Tuple

REF = 0.0045    # seconds sample() takes at the reference speed
EVERY = 0.1     # seconds between samples
WINDOW = 2      # samples either side in the running median

# A sparse product of two 18-term polynomials over Fraction: the kind of work
# the package's kernel does, written here so that the package's code never
# runs inside a sample.
_POLY = {(i, j, k): Fraction(i + 1, j + 2)
         for i in range(3) for j in range(3) for k in range(2)}


def sample() -> float:
    """Seconds a fixed piece of pure Python work takes right now."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(3):
            out: dict = {}
            for e1, c1 in _POLY.items():
                for e2, c2 in _POLY.items():
                    e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                    out[e] = out.get(e, 0) + c1 * c2
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class Meter:
    """Speed samples every EVERY seconds between __enter__ and __exit__."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []   # (when, seconds)
        self.spent = 0.0                               # seconds sampling

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.samples.append((t0, sample()))
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Meter":
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY, EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def curve(self) -> Tuple[List[float], List[float]]:
        """Cell edges and the speed in each cell.  Cell i holds the moments
        nearer sample i than any other; its speed is the median of samples
        i - WINDOW to i + WINDOW."""
        times = [t for t, _ in self.samples]
        values = [s for _, s in self.samples]
        edges = [(a + b) / 2 for a, b in zip(times, times[1:])]
        speeds = [statistics.median(values[max(0, i - WINDOW):i + WINDOW + 1])
                  for i in range(len(values))]
        return edges, speeds

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per measured second between t0 and t1.  Call it
        once the samples after t1 have been taken, e.g. after __exit__."""
        edges, speeds = self.curve()
        first = bisect.bisect_right(edges, t0)
        last = bisect.bisect_right(edges, t1)
        if first == last:
            return REF / speeds[first]
        ref = ((edges[first] - t0) / speeds[first]
               + (t1 - edges[last - 1]) / speeds[last])
        for i in range(first + 1, last):
            ref += (edges[i] - edges[i - 1]) / speeds[i]
        return REF * ref / (t1 - t0)
