"""The host's speed, measured during the ops with a fixed pure-Python kernel.

The benchmark runs on shared machines whose speed drifts by a third or more
within seconds, and by a tenth within a tenth of a second: other tenants
take the cores' caches and cycles, and every instruction of ours slows down
in step.  Wall times taken minutes apart then differ more than any change in
the program would make them differ.

So while a run measures, an interval timer interrupts it every ``EVERY_S``
seconds, inside the ops as well as between them, and times a short fixed
kernel.  Each op's time, less the sampling inside it, is scaled by
``REFERENCE_S`` over the median kernel time during the op and ``AROUND``
samples on either side.  The result reads as seconds on a host that runs the
kernel in ``REFERENCE_S``: a change in the program moves it, a change in the
host's speed mostly does not.  The kernel shares no code with floerdisk.  It
does what the program's hot loops do: Fraction arithmetic, modular powers,
small objects with operator methods, dict and string work.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

EVERY_S = 0.02
REFERENCE_S = 0.001
AROUND = 2


class _Mod:
    __slots__ = ("v", "n")

    def __init__(self, v, n):
        self.v, self.n = v % n, n

    def __mul__(self, other):
        return _Mod(self.v * other.v, self.n)

    def __add__(self, other):
        return _Mod(self.v + other.v, self.n)


def kernel():
    total = Fraction(0)
    for i in range(1, 30):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    table = {}
    for i in range(400):
        table[(i * 7919) % 1009] = i
    powers = 0
    for k, v in table.items():
        powers += pow(k, v, 47)
    acc = _Mod(1, 45)
    for i in range(1, 300):
        acc = acc * _Mod(i, 45) + _Mod(1, 45)
    return total, powers, acc.v, sorted(str(k) for k in table)[:3]


class Speedometer:
    """Kernel samples in run order: when each started and how long it took.

    Use as a context manager to sample on the interval timer; ``sample``
    takes samples by hand, for instance around a set-up sample.
    """

    def __init__(self):
        self.starts, self.samples = [], []
        self._previous = None
        self._busy = False

    def sample(self, count=1):
        self._busy = True
        for _ in range(count):
            start = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - start)
            self.starts.append(start)
        self._busy = False

    def _on_alarm(self, signum, frame):
        if not self._busy:      # a late tick during a sample is dropped
            self.sample()

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def window(self, begin: float, end: float) -> tuple[int, int]:
        """Indices of the samples that started between begin and end."""
        return (bisect.bisect_left(self.starts, begin),
                bisect.bisect_right(self.starts, end))

    def own_time(self, elapsed: float, window) -> float:
        """elapsed, less the sampling inside window."""
        return elapsed - sum(self.samples[window[0]:window[1]])

    def scale(self, window) -> float:
        """REFERENCE_S over the median kernel time in and around window."""
        low, high = window
        around = self.samples[max(0, low - AROUND):high + AROUND]
        return REFERENCE_S / statistics.median(around)

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3
