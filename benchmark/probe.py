"""A same-core, same-time measure of the machine's speed.

A shared 2-core machine can change speed by itself, by up to 1.8x
within minutes, with wall time equal to CPU time: the change is in the
hardware the process runs on, not in scheduling.  While a pass
runs, `SpeedProbe` interrupts it every INTERVAL_S seconds (SIGALRM) and
times a fixed pure-Python loop in the signal handler.  The loop runs on
the pass's own core at the same moment, so its duration tracks how fast
the machine is running the pass.  run.py divides times by the probe's
slowdown (mean loop time / NOMINAL_S) to report them at a fixed nominal
machine speed.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.05
LOOP = 4000
# loop duration on the 2-core Xeon (2.0 GHz) the bounds were set on
NOMINAL_S = 0.00035


def _loop():
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return s


class SpeedProbe:
    """Context manager that samples the probe loop during a block."""

    def __init__(self):
        self.times = []
        self.durations = []

    def sample(self, *_):
        # CPU time of the loop, so a probe that waits for a core (verify's
        # pool keeps both busy) measures the core's speed, not the wait
        self.times.append(time.perf_counter())
        c = time.thread_time()
        _loop()
        self.durations.append(time.thread_time() - c)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, start=None, end=None, at_least=5):
        """Mean probe duration over [start, end] (widened to hold at least
        `at_least` samples) divided by NOMINAL_S."""
        if not self.durations:
            return 1.0
        lo = 0 if start is None else bisect_left(self.times, start)
        hi = len(self.times) if end is None else bisect_right(self.times, end)
        while hi - lo < at_least and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        window = self.durations[lo:hi]
        return sum(window) / len(window) / NOMINAL_S
