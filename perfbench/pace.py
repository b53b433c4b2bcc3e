"""Host speed, read from a fixed reference loop that uses none of the program.

On a shared host the same code runs up to twice as fast in one spell as in
the next, for seconds to minutes at a time, with CPU time equal to wall
time. The benchmark therefore runs a short pure-Python loop (dict and tuple
work, like the program's) as a mark every REF_EVERY_S seconds of CPU time,
from a SIGPROF handler, so that marks fall inside long requests too. A
stretch of a request between two marks, divided by the mean loop time of
those two marks, measures the program's work; the host's spells change it
far less than the raw time. The marks' own time is left out. Scaled by
NOMINAL_LOOP_S it reads as seconds at a fixed host speed. The loop uses
nothing of the program, so a change to the program moves only the
numerator.
"""

from __future__ import annotations

import bisect
import signal
import time

REF_EVERY_S = 0.1  # CPU seconds between marks
REF_REPEATS = 3  # a mark is the mean of this many loops
# Paced times are in seconds at the host speed where the reference loop
# takes this long: about its time in a fast spell on a 2-core x86 box,
# Python 3.11.
NOMINAL_LOOP_S = 0.003


def reference_loop() -> int:
    seen: dict = {}
    total = 0
    for i in range(6000):
        key = (i % 7, i % 11, i % 13)
        seen[key] = seen.get(key, 0) + 1
        total += max(key) * len(seen)
    return total


class Pace:
    """Reference-loop marks over a run: (start, end, seconds per loop)."""

    def __init__(self):
        self.marks: list[tuple[float, float, float]] = []
        self._marking = False

    def start(self) -> None:
        """Mark now, and from now on every REF_EVERY_S of CPU time."""
        signal.signal(signal.SIGPROF, lambda _signum, _frame: self.mark())
        self.mark()
        signal.setitimer(signal.ITIMER_PROF, REF_EVERY_S, REF_EVERY_S)

    def stop(self) -> None:
        """Stop the timer, with a last mark that closes every span."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.mark()

    def mark(self) -> None:
        if self._marking:  # a tick that lands inside a mark is dropped
            return
        self._marking = True
        try:
            t0 = time.perf_counter()
            for _ in range(REF_REPEATS):
                reference_loop()
            t1 = time.perf_counter()
            self.marks.append((t0, t1, (t1 - t0) / REF_REPEATS))
        finally:
            self._marking = False

    def paced(self, start: float, end: float) -> float:
        """Seconds from `start` to `end`, less the marks inside, each stretch
        between marks scaled to the nominal host speed by the mean loop time
        of the marks on either side of it."""
        marks = self.marks
        k = bisect.bisect_left(marks, start, key=lambda m: m[0])
        total, t = 0.0, start
        while True:
            inside = k < len(marks) and marks[k][0] < end
            around = [marks[j][2] for j in (k - 1, k) if 0 <= j < len(marks)]
            total += ((marks[k][0] if inside else end) - t) * len(around) / sum(around)
            if not inside:
                return total * NOMINAL_LOOP_S
            t = marks[k][1]
            k += 1
