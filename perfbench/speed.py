"""Host-speed probe, so timings taken minutes apart can be compared.

On a shared host the speed of one core drifts by ±15–25% over tens of
seconds, and CPU time drifts with wall time. A 30 s run cannot average
that out. So the benchmark times a fixed ~2 ms pure-Python kernel:

- every 100 ms from a timer signal while in-process ops run, so the probes
  also land inside long ops;
- after every op, for ops run as child processes.

The kernel lives in this file and never calls contragen, so a change to the
program cannot move it. An op's time is its wall time minus the probes that
ran inside it, scaled by ``REFERENCE_MS / m``. Here ``m`` is the mean
kernel time of the probes inside the op, or of the nearest NEAREST probes
when fewer ran inside it. The mean, not the median: an op's wall time
integrates every slowdown, the rare long stalls included. Over 5 minutes of
n=64 ``generate`` calls, scaling by the mean cut the ops' coefficient of
variation from 0.18 (unscaled) to 0.07, against 0.09 with the median. The result is "ms at reference host speed". On a
host where the kernel takes REFERENCE_MS, it equals wall time. run.py prints
the unscaled wall figures next to the scaled ones.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
from array import array
from time import perf_counter

# Kernel time, in ms, that defines reference speed: about its median on the
# 2-core host the benchmark was written on.
REFERENCE_MS = 2.2
# Timer period for probes during in-process ops (about 2% of the time).
INTERVAL_S = 0.1


class _Node:
    __slots__ = ("key", "value", "links")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.links = []


def kernel() -> int:
    """About 2 ms of the interpreter work contragen does: small objects,
    tuples, dict and set lookups, calls, string building."""
    table = {}
    acc = 0
    for i in range(2000):
        key = (i % 97, -(i % 89), f"s{i % 61}")
        node = table.get(key)
        if node is None:
            node = table[key] = _Node(key, str(i))
        node.links.append(i)
        acc += len(node.value) + (hash(key) & 7)
    seen = {n.key for n in table.values() if n.links[0] % 3}
    return acc + len(seen) + len(",".join(n.value for n in table.values()))


class SpeedProbe:
    """Kernel timings on a time line, and op times scaled by them."""

    NEAREST = 9

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self._running = False

    def sample(self, *_signal_args) -> None:
        if self._running:  # a timer tick during a probe
            return
        self._running = True
        # Collections the kernel would trigger are deferred to the program
        # itself, so none of its GC work is subtracted as probe time.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            kernel()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
            self._running = False
        self.start.append(t0)
        self.end.append(t1)

    @contextlib.contextmanager
    def during(self):
        """Probe every INTERVAL_S while the block runs."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def mean_ms(self) -> float:
        return statistics.fmean(e - s for s, e in zip(self.start, self.end)) * 1000.0

    def _inside(self, start: float, end: float) -> range:
        return range(bisect.bisect_left(self.start, start), bisect.bisect_right(self.end, end))

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_MS over the mean kernel time of the probes inside the
        interval, or of the NEAREST probes to its midpoint if fewer ran inside."""
        inside = self._inside(start, end)
        a, b = inside.start, inside.stop
        if b - a < self.NEAREST:
            mid = (start + end) / 2
            a = b = bisect.bisect_left(self.start, mid)
            while b - a < self.NEAREST and (a > 0 or b < len(self.start)):
                if a > 0 and (b >= len(self.start) or mid - self.start[a - 1] <= self.start[b] - mid):
                    a -= 1
                else:
                    b += 1
        kernel_s = statistics.fmean(self.end[k] - self.start[k] for k in range(a, b))
        return REFERENCE_MS / 1000.0 / kernel_s

    def scaled(self, start: float, end: float) -> float:
        """Seconds the interval spent outside probes, at reference speed."""
        probed = sum(self.end[k] - self.start[k] for k in self._inside(start, end))
        return (end - start - probed) * self.factor(start, end)
