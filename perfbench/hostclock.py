"""A clock that runs at the host's current speed.

On a shared host the same code runs up to twice as slow for stretches of
0.1 s to minutes, as other tenants load the physical cores and caches.
``HostClock`` measures the host's speed with a short probe every
``PERIOD`` seconds (a SIGALRM handler, so it needs no thread) and advances
by the wall time since the previous probe scaled by ``NOMINAL_PROBE_S``
over the probe's current duration.  Timed with it, a piece of work reads
about the same whether the host was fast or slow while it ran; work the
program stops doing still shows in full, because the probe is the
benchmark's own code and never changes with the program.

The probe is the kind of code nishape is made of: element access, slicing
and arithmetic on 6x6 numpy arrays mixed with Python scalar arithmetic.  A
probe made only of Python arithmetic slows less than nishape does when the
host is loaded, and so corrects too little.
"""

import signal
import statistics
import time

import numpy as np

PERIOD = 0.02
# The probe's duration when the host is at its fastest, on the 2-core VM the
# benchmark was written on; it sets the scale of the clock only.
NOMINAL_PROBE_S = 1.6e-4
# The speed is the median of this many most recent probes, so that one probe
# hit by an interrupt does not swing the clock.
WINDOW = 3

_M = np.linspace(0.5, 2.0, 36).reshape(6, 6)


def probe():
    A = _M.copy()
    s = 0.0
    for k in range(48):
        col = A[:, k % 6].copy()
        A[:, (k + 1) % 6] = 0.5 * col - 0.25 * A[:, (k + 2) % 6]
        s += float(A[k % 6, 0]) * 0.5 + (k * k) % 7
    return s


def time_probe():
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


class HostClock:
    """Context manager; ``now()`` reads the host-speed clock while it is
    entered.  Probe time itself is left out of the clock."""

    def __init__(self, period=PERIOD, nominal=NOMINAL_PROBE_S):
        self.period = period
        self.nominal = nominal
        self.probes = []          # every probe duration, in wall seconds
        self.ticks = 0

    def __enter__(self):
        for _ in range(20):       # warm the probe's code paths
            probe()
        self.recent = [time_probe() for _ in range(WINDOW)]
        self.ratio = self.nominal / statistics.median(self.recent)
        self.base = 0.0
        self.last = time.perf_counter()
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        p = time_probe()
        self.base += (t0 - self.last) * self.ratio
        self.last = time.perf_counter()
        self.probes.append(p)
        self.recent = self.recent[1:] + [p]
        self.ratio = self.nominal / statistics.median(self.recent)
        self.ticks += 1

    def now(self):
        while True:               # retry if a tick changed the state midway
            ticks = self.ticks
            value = self.base + (time.perf_counter() - self.last) * self.ratio
            if ticks == self.ticks:
                return value

    def note(self):
        probes = self.probes or self.recent
        return (f"times are host-speed seconds: probe median "
                f"{1e3 * statistics.median(probes):.4g} ms over {len(probes)} "
                f"probes, nominal {1e3 * self.nominal:.4g} ms")
