"""How fast the host runs this process, sampled while the calls run.

Other tenants of a shared host slow every instruction of this process, in
spells that last from seconds to minutes, and CPU time slows with wall
time.  ``Sampler`` arms a timer signal every ``PERIOD_S`` seconds of wall
time; its handler times ``reference``, a fixed pure-Python job, at that
moment, inside whichever copwin call is running.  The mean of the samples
taken during a call, over ``REFERENCE_S``, is how much slower than nominal
the host ran that call (``slowdown``).  Dividing a call's time by it gives
the call's time at nominal host speed.

The handler's own time is counted in ``spent``, so the caller can take it
out of the times it measures.  Only the main thread runs signal handlers;
the benchmark is single-threaded.
"""
from __future__ import annotations

import signal
import statistics
import time
from typing import List, Optional

PERIOD_S = 0.05
# ``reference``'s mean time on the baseline machine at its usual load
# (2-vCPU Intel Xeon, CPython 3.11.7): the unit the scaled times are in.
REFERENCE_S = 3.0e-4
# fewer samples than this in a window say too little about the host
MIN_SAMPLES = 3

_DATA = list(range(1024))


def reference() -> int:
    """A fixed job of the kind copwin's Python code does: dict, int and bit work."""
    seen = {}
    acc = 0
    for x in _DATA:
        y = (x * 2654435761) & 1023
        seen[y] = seen.get(y, 0) + 1
        acc ^= y << (x & 7)
    return acc


class Sampler:
    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: List[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def slowdown(self, since: int = 0, until: Optional[int] = None) -> Optional[float]:
        """Mean reference time of samples ``since:until`` over REFERENCE_S, or None."""
        window = self.samples[since:until]
        if len(window) < MIN_SAMPLES:
            return None
        return statistics.fmean(window) / REFERENCE_S
