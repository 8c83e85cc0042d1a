"""The speed of the host, sampled while the benchmark runs.

The shared host runs all code up to 1.7 times slower at times, in phases
from under a second to minutes long (README.md, "Host speed").  While a
``HostSpeed.sampling()`` context is open, a SIGALRM handler times a fixed
piece of pure-Python work every PERIOD seconds of wall time, in the
benchmark's own thread, between two bytecodes of whatever runs.
``timed`` measures a call less the handler's time in it, and ``scaled``
turns that into the time at the reference speed, from the samples taken
during the call and just around it.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.1
# samples this close to a call count for it, so even a short call has some
WINDOW = 1.5 * PERIOD
# A fixed scale: about the seconds of one reference_work() on the 2-core
# Intel Xeon host that set the bounds (Python 3.11.7), so that scaled
# times read close to seconds there.
REF_SAMPLE_S = 0.0022
clock = time.perf_counter


def reference_work():
    """Fixed pure-Python work of the kinds linres does: small exponent
    tuples as dict keys, integer counts and exact rationals."""
    acc = Fraction(0)
    seen: dict[tuple[int, int, int], int] = {}
    for i in range(600):
        key = (i % 5, i % 7, i % 11)
        seen[key] = seen.get(key, 0) + i
        acc += Fraction(i % 13, 1 + i % 4)
    return acc, len(seen)


class HostSpeed:
    def __init__(self) -> None:
        self.at: list[float] = []  # start of each sample, increasing
        self.samples: list[float] = []  # its seconds
        self.stolen = 0.0  # seconds spent in the handler

    def _tick(self, signum, frame) -> None:
        t0 = clock()
        # the collector stays off so that the heap linres holds does not count
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            reference_work()
            self.at.append(t0)
            self.samples.append(clock() - t0)
        finally:
            if was_enabled:
                gc.enable()
            self.stolen += clock() - t0

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn):
        """(fn(), (start, end, seconds)): the call's seconds leave out the
        time spent in the handler meanwhile."""
        s0 = self.stolen
        t0 = clock()
        result = fn()
        t1 = clock()
        return result, (t0, t1, t1 - t0 - (self.stolen - s0))

    def scaled(self, interval: tuple[float, float, float]) -> float:
        """The seconds of a ``timed`` interval at the reference speed.

        Work done in a stretch of time is its length times the mean rate,
        so the rate (1 / sample) of the samples within WINDOW of the
        interval is averaged; all samples count if none is that close.
        """
        start, end, seconds = interval
        lo = bisect.bisect_left(self.at, start - WINDOW)
        hi = bisect.bisect_right(self.at, end + WINDOW)
        near = self.samples[lo:hi] or self.samples
        return seconds * REF_SAMPLE_S * statistics.fmean(1 / s for s in near)
