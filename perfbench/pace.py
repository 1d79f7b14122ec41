"""A host-paced clock: wall time corrected for how fast the host runs.

The benchmark shares a host whose speed swings: a fixed loop takes 4 ms in
one second and 7 ms the next, for seconds or minutes at a time, because
other tenants share the cores.  Two runs of the same code then differ by
more than any useful regression bound, and no amount of repetition inside
one run removes a slow minute.

This clock samples the host's speed while the workload runs.  A wall-clock
timer interrupts the process every ``PERIOD_S`` seconds and times a fixed
probe: interpreter work that allocates and stores small objects, the kind
of work the program does, sharing no code with it.  The probe's speed
relative to ``REFERENCE_S`` is the host's pace at that moment;
``paced(a, b)`` integrates the pace over a wall interval, so a second spent
at half speed counts as half a second.  Paced seconds read like wall
seconds on the reference host (a 2-core Xeon in its fast state).  Time spent
in probes is left out of every interval.

Over 2-second windows on that host, the probe's median tracked the median
of a fixed slice of the program (mining one design) with correlation 0.99;
their ratio varied by 3.5% (coefficient of variation) while each alone
varied by 23%.  A bare arithmetic loop tracked it less well (8.5%).

Only the measured interval is corrected; the work done in it is the
program's, so a change to the program moves paced times as it moves wall
times.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from typing import List

#: Seconds between probes.
PERIOD_S = 0.02
#: Probe loop iterations, and the probe's duration on the reference host.
PROBE_ITERATIONS = 2000
REFERENCE_S = 300e-6
#: Probes whose median paces the gap between two probes: the three before
#: it and the three after.  One probe hit by an interrupt moves it little.
WINDOW = 6


def _probe() -> int:
    """Fixed work; the collector is held off so that it cannot land here."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        acc = 0
        table = {}
        for i in range(PROBE_ITERATIONS):
            item = [i, i + 1]
            table[i & 63] = item
            acc = (acc * 31 + item[1]) & 0xFFFF
        return acc
    finally:
        if enabled:
            gc.enable()


class PaceClock:
    """Samples the host's pace on ``SIGALRM`` while started."""

    def __init__(self) -> None:
        #: Wall-clock start and end of every probe.
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._built = 0  # probes the cumulative table below covers

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def _build(self) -> None:
        """Each gap's pace and the paced time at each probe's end.

        Gap ``i`` runs from the end of probe ``i - 1`` to the start of probe
        ``i`` (gap 0 from the beginning of time, the last gap to its end);
        its pace is the median pace of the probes around it.
        """
        count = len(self.ends)  # a probe may land while this runs
        if not count:
            raise RuntimeError("the pace clock took no samples")
        self._starts, self._ends = self.starts[:count], self.ends[:count]
        paces = [REFERENCE_S / (end - start) for start, end in zip(self._starts, self._ends)]
        half = WINDOW // 2
        self._gap_pace = [
            statistics.median(paces[max(0, i - half): i + half]) for i in range(count + 1)
        ]
        self._at_end = [0.0]
        for i in range(1, count):
            gap = self._starts[i] - self._ends[i - 1]
            self._at_end.append(self._at_end[-1] + gap * self._gap_pace[i])
        self._built = count

    def _at(self, when: float) -> float:
        """Paced seconds from the first probe's end to wall time ``when``."""
        i = bisect.bisect_right(self._ends, when)  # probes ended by ``when``
        if i == 0:  # before the first probe ended
            return min(when - self._starts[0], 0.0) * self._gap_pace[0]
        # In gap i after probe i - 1, or inside probe i, which adds nothing.
        stop = min(when, self._starts[i]) if i < self._built else when
        return self._at_end[i - 1] + (stop - self._ends[i - 1]) * self._gap_pace[i]

    def paced(self, start: float, end: float) -> float:
        """Paced seconds between two ``time.perf_counter()`` readings."""
        if self._built != len(self.ends):
            self._build()
        return self._at(end) - self._at(start)
