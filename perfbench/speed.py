"""Host-speed calibration.

The benchmark's host is shared, and its speed drifts between phases that
last from one second to minutes; in a slow phase the same pure-Python work
takes up to 1.4-2x as long (README.md, "Noise").  While a timed section
runs, a ``Sampler`` therefore runs a short probe every TICK_S seconds from
a SIGALRM handler: a fixed pure-Python loop whose own cost never changes
with the library.  Each timed item is reported in reference seconds,

    (measured latency - time spent in probes) * REFERENCE_PROBE_S
        / (mean of the probes taken from MARGIN_S before the item to
           MARGIN_S after it, outliers left out)

that is, the time the item would have taken on a host where the probe
takes REFERENCE_PROBE_S.  The probes run inside long items as well as
around short ones, so a phase change in the middle of an item is seen.
A faster or slower library cannot fake this: the probe runs the same
bytecode on every commit.

The probe mixes three loops, because no single one tracks every workload:
integer arithmetic, tuple and dict building, and small-object method
calls (the time shares are about 1:3:1).  Over 150-240 s recordings of
the census, classes and certify rounds, the spread of 20 s medians fell
from 0.10-0.16 (raw, coefficient of variation) to 0.02-0.03.
"""

from __future__ import annotations

import bisect
import gc
import os
import signal
import statistics
import time

# The probe's time on the sizing host (2-vCPU Intel Xeon microVM, Python
# 3.11.7) in its fast phase; it only fixes the scale of the reported seconds.
REFERENCE_PROBE_S = 2.5e-4
TICK_S = 0.02
MARGIN_S = 0.1
OUTLIER = 2.0


def _int_loop():
    acc = 0
    for i in range(750):
        acc = (acc * 31 + i) % 1000003
    return acc


def _tuple_loop():
    table = {}
    for i in range(150):
        key = (i, i + 1, i * 3)
        table[key] = tuple(a + b for a, b in zip(key, (1, 2, 3)))
    return len(table)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def step(self, other):
        return _Pair(self.a + other.b, self.b ^ other.a)


def _object_loop():
    x, y = _Pair(1, 2), _Pair(3, 4)
    for _ in range(125):
        x = x.step(y)
    return x.a


def probe() -> float:
    """One pass of the probe, in seconds, with the garbage collector off
    so that a collection of the library's objects is not charged to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _int_loop()
        _tuple_loop()
        _object_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _typical(values) -> float:
    """Mean of the probes, leaving out those preempted or interrupted
    (more than OUTLIER times the median)."""
    cut = OUTLIER * statistics.median(values)
    return statistics.fmean(v for v in values if v <= cut)


class Sampler:
    """Probes every TICK_S seconds while active (``with sampler:``).

    Items are timed with ``time.perf_counter`` by the caller and converted
    after the section, when the probes on both sides of each are known.
    Only the main thread of a process can use it (SIGALRM)."""

    def __init__(self):
        self.starts, self.ends, self.probes = [], [], []
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        value = probe()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.probes.append(value)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(signal.SIGALRM, None)
        return False

    def convert(self, start: float, end: float):
        """(measured seconds less the probes inside, reference seconds) of
        an item timed from ``start`` to ``end`` inside the section."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        spent = sum(self.ends[k] - self.starts[k] for k in range(lo, hi))
        measured = end - start - spent
        first = min(bisect.bisect_left(self.starts, start - MARGIN_S),
                    len(self.probes) - 1)
        last = max(bisect.bisect_right(self.starts, end + MARGIN_S), first + 1)
        near = _typical(self.probes[first:last])
        return measured, reference_seconds(measured, near)

    def summary(self) -> dict:
        """Time spent in probes and the typical probe over the section."""
        return {"probe_spent_s": sum(e - s for s, e in zip(self.starts, self.ends)),
                "probe_s": _typical(self.probes)}


def reference_seconds(measured: float, probe_s: float) -> float:
    return measured * REFERENCE_PROBE_S / probe_s


def pin_to_one_cpu():
    """Keep this process and the processes it starts on one CPU, so that
    the probes run where the timed work runs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
