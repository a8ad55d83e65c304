"""Service time in seconds of a machine that runs at one speed and is the
benchmark's alone.

The benchmark's machine is neither.  It is two hardware threads of a shared
host.  Whenever anything runs on the other one — a neighbour, the driver —
pure-Python code here takes 1.7 times as long, for seconds at a time and for
anything between a tenth and most of a run; and whenever two other processes
are busy in this machine, the serving thread waits for a processor for half
of the time (README.md, "The clock").  No statistic over the wall-clock
times of a 30 s run sees through either: a median of passes lands in
whichever mode held the majority.

So the clock measures the machine while it measures the program.  From each
stretch of timed work it takes off the time the kernel says the thread sat
runnable without a processor (``/proc/thread-self/schedstat``; time spent
blocked — sleeping, waiting for a lock or for the disk — stays in).  And
before and after each stretch it times a *probe*, a fixed loop of
interpreter work that is no part of the program under test, and counts the
stretch as ``seconds * REFERENCE_PROBE_S / probe seconds``: the time the
work would have taken had the probe run at its reference speed throughout.
A change to the program moves that number exactly as it moves wall time; a
busy neighbour moves it by a few percent instead of seventy.  The
uncorrected wall time is kept beside it and reported with every run.
"""

from __future__ import annotations

import os
import time

#: What one probe takes on the machine the bounds were set on when nothing
#: else runs there.  A constant, not a per-run minimum, so that a run spent
#: entirely beside a busy neighbour is corrected like any other.
REFERENCE_PROBE_S = 205e-6

#: Timed work is corrected in segments that end with a probe once they are
#: this long: a request of the executing workloads is a segment of its own,
#: 9 us whole-answer hits share one probe among two hundred.
SEGMENT_S = 2e-3

#: A probe older than this is not taken for the machine's speed at the start
#: of the next segment; a fresh one is.
STALE_S = 0.5e-3


def probe() -> float:
    """Seconds the fixed loop takes now: dictionary, integer and attribute
    traffic of the kind the tuple pipeline and the caches are made of.
    Taken on the thread's CPU clock: a probe the scheduler interrupts would
    otherwise read as a slow machine."""
    started = time.thread_time()
    counts: dict[int, int] = {}
    total = 0
    for i in range(1500):
        key = (i * 7919) % 503
        counts[key] = counts.get(key, 0) + i
        total += key
    return time.thread_time() - started


def _open_schedstat() -> int | None:
    try:
        return os.open("/proc/thread-self/schedstat", os.O_RDONLY)
    except OSError:  # a kernel without scheduler statistics: nothing taken off
        return None


class SpeedClock:
    """Sums stretches of timed work, corrected for the machine's speed.

    ``started = clock.start()`` ... ``seconds = clock.stop(started)`` times
    one stretch and returns its wall seconds; ``clock.seconds`` and
    ``clock.wall`` are the corrected and the uncorrected sums of the closed
    segments.  ``close()`` ends the open segment; call it before untimed
    work of any length and before reading the sums.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.wall = 0.0
        self._schedstat = _open_schedstat()  # of the thread that serves
        self._open = 0.0
        self._segment_start = 0.0
        self._waited_at_start = 0.0
        self._probe = probe()
        self._probe_end = time.perf_counter()

    def _waited(self) -> float:
        """Seconds this thread has sat runnable without a processor."""
        if self._schedstat is None:
            return 0.0
        return int(os.pread(self._schedstat, 64, 0).split()[1]) * 1e-9

    def _take_probe(self) -> None:
        self._probe = probe()
        self._probe_end = time.perf_counter()

    def start(self) -> float:
        if not self._open:
            if time.perf_counter() - self._probe_end > STALE_S:
                self._take_probe()
            self._waited_at_start = self._waited()
            self._segment_start = time.perf_counter()
            return self._segment_start
        return time.perf_counter()

    def stop(self, started: float) -> float:
        ended = time.perf_counter()
        seconds = ended - started
        self._open += seconds
        if ended - self._probe_end >= SEGMENT_S:
            self.close()
        return seconds

    def close(self) -> None:
        if not self._open:
            return
        # The wait is known for the segment as a whole, untimed work between
        # its stretches included; the stretches take their share of it.
        elapsed = time.perf_counter() - self._segment_start
        waited = min(self._waited() - self._waited_at_start, elapsed)
        running = self._open * (1.0 - waited / elapsed)
        before = self._probe
        self._take_probe()
        self.seconds += running * REFERENCE_PROBE_S * 2.0 / (before + self._probe)
        self.wall += self._open
        self._open = 0.0
