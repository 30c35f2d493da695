"""Reference seconds: raw seconds rescaled by a calibration probe timed between them.

On a shared host the CPU speed one process gets is not steady.  On a shared
2-core VM a fixed 1.8 ms slice of pure-Python work read 1.0 ms in bursts of
about 300 ms, and one suite of ``cantorproj check``, repeated, took between
55 and 117 ms.  So the clock takes speed readings, each the median of
``PROBES`` runs of the probe below: at the edges of every timed stretch,
and, while it ticks, every ``TICK_S`` seconds from a timer signal.  The raw
seconds between two readings count ``REFERENCE_S`` over the mean of the
two readings; the time the readings take counts for nothing.
``REFERENCE_S`` is about what the probe takes on that VM, so reference
seconds read close to raw seconds there.

The probe is benchmark code, so a change to the package moves raw and
reference times alike.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from time import perf_counter

REFERENCE_S = 0.0025
PROBES = 3
TICK_S = 0.1
# A reading taken this recently is reused: back-to-back stretches share the
# reading between them.
REUSE_S = 0.001


def probe() -> float:
    """Time one fixed slice of pure-Python work: small frozensets and tuples
    built and hashed into a dict, then looked up.

    Of the probes tried, this one tracked the package's own work best as the
    host's speed changed: over 200 repeats of one suite, the log of the
    suite's time rose by 0.9 per unit rise in the log of this probe's time,
    against 0.7 for a loop of string formatting.
    """
    start = perf_counter()
    table = {}
    for i in range(3000):
        table[frozenset((i, i >> 1, i >> 2))] = (i, str(i))
    sum(key in table for key in table)
    return perf_counter() - start


class Clock:
    """Reference seconds elapsed, as of the last speed reading."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.elapsed = 0.0
        # Raw seconds spent taking readings.
        self.cost = 0.0
        self._last_end = float("-inf")
        self._reading = False

    def mark(self) -> float:
        """Take a speed reading; return the reference seconds up to it."""
        self._reading = True
        try:
            start = perf_counter()
            if start - self._last_end > REUSE_S:
                value = statistics.median(probe() for _ in range(PROBES))
                if self.readings:
                    raw = start - self._last_end
                    self.elapsed += raw * 2 * REFERENCE_S / (self.readings[-1] + value)
                self.readings.append(value)
                self._last_end = perf_counter()
                self.cost += self._last_end - start
            return self.elapsed
        finally:
            self._reading = False

    @contextlib.contextmanager
    def ticking(self):
        """Take a reading every ``TICK_S`` seconds, so long stretches are
        rescaled piece by piece."""

        def tick(signum, frame):
            if not self._reading:
                self.mark()

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """Factor from the median speed of all readings to the reference."""
        return REFERENCE_S / statistics.median(self.readings)
