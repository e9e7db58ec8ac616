"""Scaling host seconds to a reference CPU speed.

The benchmark's host shares physical cores with other machines, and its
speed drifts by tens of percent from one second to the next (a fixed
pure-Python loop took 0.28–0.49 s on consecutive runs).  Timing a unit
of work against the clock alone would measure that drift.

:class:`SpeedSampler` runs a tiny fixed job, :class:`_Probe`, from a
``SIGALRM`` timer every ``PERIOD_S`` while the benchmark works, so the
host's speed is sampled *during* each timed unit.  Probe time is kept
out of every measurement (:meth:`SpeedSampler.clock` excludes it), and
the seconds of a unit, or of one op inside it, are scaled by
``PROBE_REF_S / median(probe seconds during that span)``: the seconds it would take on a machine where one
probe takes ``PROBE_REF_S``.  The probe never touches the library, so a
change to the library cannot move it, and scaled seconds compare across
commits like host seconds.  Keep the probe and its constants unchanged.

The handler runs between bytecodes of the main thread; the library
reads no clock, so sampling cannot change simulated results (the
benchmark's digests check that).
"""

from __future__ import annotations

import heapq
import signal
from bisect import bisect_left, bisect_right
from array import array
import statistics
from time import perf_counter
from typing import List

__all__ = ["PERIOD_S", "PROBE_N", "PROBE_REF_S", "SpeedSampler"]

#: seconds between speed samples
PERIOD_S = 0.1
#: size of one probe (~2.5 ms on the machine the benchmark was written on)
PROBE_N = 1000
#: seconds of one probe on the reference machine
PROBE_REF_S = 0.0025
#: a span with fewer samples near it borrows the nearest ones
MIN_SAMPLES = 3


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


class _Probe:
    """A fixed job shaped like the simulator's hot loop, in two halves:
    small-object churn (heap of tuples, slotted objects, dicts, lists,
    generator resumes), which tracks the allocation-heavy workloads, and
    random reads over a 16 MiB array, which tracks how much cache the
    host's neighbours leave us."""

    SPAN = 1 << 21  # 8-byte cells

    def __init__(self) -> None:
        self.cells = array("q", range(self.SPAN))

    def __call__(self, n: int = PROBE_N) -> float:
        """Host seconds of one probe."""
        start = perf_counter()

        def echo():
            total = 0
            while True:
                total += yield total

        gen = echo()
        next(gen)
        heap: list = []
        table: dict = {}
        for i in range(n):
            heapq.heappush(heap, (i * 7919 % 1009, i, _Item(i, str(i & 255))))
            if len(heap) > 64:
                item = heapq.heappop(heap)[2]
                table[item.key & 1023] = [item.value, gen.send(item.key)]
        cells, span, total = self.cells, self.SPAN, 0
        for i in range(2 * n):
            total += cells[(i * 1048583) % span]
        return perf_counter() - start


class SpeedSampler:
    """Samples host speed on a timer while active (a context manager)."""

    def __init__(self) -> None:
        #: probe seconds, and the :meth:`clock` reading when each was taken
        self.samples: List[float] = []
        self.times: List[float] = []
        self._probe = _Probe()
        self._busy = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.times.append(start - self._busy)
        self.samples.append(self._probe())
        self._busy += perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def clock(self) -> float:
        """Host seconds, minus the time spent in probes."""
        busy = self._busy
        return perf_counter() - busy

    def factor(self, start: float, end: float) -> float:
        """Scale for the seconds from ``start`` to ``end`` (:meth:`clock`
        readings): from the samples taken within ``PERIOD_S`` of that
        span, or the ``MIN_SAMPLES`` nearest to it when fewer."""
        if len(self.samples) < MIN_SAMPLES:  # only in the first moments
            extra = [self._probe() for _ in range(MIN_SAMPLES - len(self.samples))]
            return PROBE_REF_S / statistics.median(self.samples + extra)
        lo = bisect_left(self.times, start - PERIOD_S)
        hi = bisect_right(self.times, end + PERIOD_S)
        if hi - lo < MIN_SAMPLES:
            middle = bisect_left(self.times, (start + end) / 2)
            lo = min(max(middle - MIN_SAMPLES // 2, 0), len(self.samples) - MIN_SAMPLES)
            hi = lo + MIN_SAMPLES
        return PROBE_REF_S / statistics.median(self.samples[lo:hi])
