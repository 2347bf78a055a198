"""Host probe: a fixed micro-loop that measures the host's speed while a call runs.

On a shared host the CPU speed drifts: the reference machine, a 2-vCPU VM,
runs about 1.5x slower in bursts of 0.2-1 s, and in phases of minutes it is
slower still, while steal time stays near zero.  CPU time does not leave
the slowdown out, because it happens below the guest.  So while a timed call
runs, a profiling timer interrupts it every INTERVAL_S of CPU time to time
this loop once, and the loop also runs right before and right after the
call.  The call's CPU time, less the loop's, scaled by REF_S over the mean
reading, is what the call would have taken on the reference machine when
quiet.  The loop is small numpy eigenproblems driven from Python, like the
program's ascent, and calls no tamecert code, so no change to the program
can move it.  REF_S and the loop must stay fixed for as long as figures are
compared: changing either rescales every time the benchmark reports.

The clock is the thread's CPU time: while a profiling timer is armed, the
process CPU clock reads stale on this kernel.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

CLOCK = time.thread_time
# a typical reading on the reference machine when quiet (see README.md)
REF_S = 0.0006
STEPS = 20
INTERVAL_S = 0.05


class HostProbe:
    def __init__(self) -> None:
        g = np.random.default_rng(0).standard_normal((6, 8, 8))
        self.grams = g + g.transpose(0, 2, 1)
        self.readings: list[float] = []
        self.spent = 0.0
        self.reading()  # numpy's lazy set-up

    def reading(self) -> float:
        """CPU seconds of one run of the loop."""
        t0 = CLOCK()
        grams = self.grams
        c = np.ones(len(grams)) / np.sqrt(len(grams))
        for t in range(STEPS):
            _, vecs = np.linalg.eigh(np.einsum("i,ijk->jk", c, grams))
            u = vecs[:, 0]
            c = c + np.einsum("j,ijk,k->i", u, grams, u) / (10.0 * np.sqrt(t + 1.0))
            c = c / np.linalg.norm(c)
        return CLOCK() - t0

    def _on_timer(self, signum, frame) -> None:
        seconds = self.reading()
        self.readings.append(seconds)
        self.spent += seconds

    @contextmanager
    def during(self):
        """Read before the block, every INTERVAL_S of CPU time in it, and after it.

        ``spent`` is then the CPU time the readings took inside the block.
        """
        self.readings = [self.reading()]
        self.spent = 0.0
        previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)
        self.readings.append(self.reading())

    def factor(self) -> float:
        """What scales a time measured in the last block to the quiet reference machine."""
        return REF_S / statistics.mean(self.readings)
