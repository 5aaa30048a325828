"""Machine-speed normalisation of timings on a shared host.

On a host shared with other tenants the same Python code runs up to twice
as slow for stretches of seconds, and CPU time slows down with wall time,
so neither separates a slower program from a busier machine.
A `SpeedProbe` therefore runs a small fixed reference kernel of exact
`Fraction` arithmetic (the same kind of work liftfix does) every
`INTERVAL_S` seconds from a SIGALRM handler, in this process and with no
extra thread.  A measured interval is then rescaled to a machine on which
the kernel takes `REF_NOMINAL_S`:

    scaled = raw * REF_NOMINAL_S / mean(kernel times within WINDOW_S of the interval)

The mean, not the median: the slowdown over an interval is the average of
the slowdowns within it.  The kernel does not touch liftfix, so a faster liftfix shows fully in the
scaled times, while a slowdown of the whole machine cancels out.  Time the
handler spends inside a measured interval is subtracted from it.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from fractions import Fraction as F

REF_NOMINAL_S = 0.001  # about the kernel's time on an idle Intel Xeon KVM vCPU, CPython 3.11
INTERVAL_S = 0.1
WINDOW_S = 0.3

_rng = random.Random(1605)
_ROWS = [tuple(F(_rng.randint(-60, 60), _rng.randint(1, 48)) for _ in range(3)) for _ in range(12)]
_PTS = [tuple(F(_rng.randint(-60, 60), _rng.randint(1, 48)) for _ in range(3)) for _ in range(12)]


def reference_kernel() -> F:
    """Row-by-point products and a running max, as in a gauge evaluation."""
    best = F(0)
    for x in _PTS:
        for a in _ROWS:
            v = a[0] * x[0] + a[1] * x[1] + a[2] * x[2]
            if v > best:
                best = v
    return best


class SpeedProbe:
    """Context manager sampling machine speed while it is active."""

    def __init__(self):
        self.times = []  # sample start times, ascending
        self.durations = []  # kernel durations, same order
        self.busy = 0.0  # total seconds spent in the handler
        self._previous = None

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def _on_alarm(self, signum, frame):
        self._sample()

    def _sample(self):
        start = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - start
        self.times.append(start)
        self.durations.append(elapsed)
        self.busy += elapsed

    def scale(self, start: float, end: float) -> float:
        """Factor that rescales the interval [start, end] to the nominal machine."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.durations[lo:hi]
        if not near:  # no sample in the window: take the closest one
            i = bisect.bisect_left(self.times, start)
            closest = min((j for j in (i - 1, i) if 0 <= j < len(self.times)),
                          key=lambda j: abs(self.times[j] - start))
            near = [self.durations[closest]]
        return REF_NOMINAL_S / statistics.fmean(near)
