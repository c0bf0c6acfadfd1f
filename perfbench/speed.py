"""Machine-speed sampling, so that reported times measure the code, not the host.

On a shared host the same single-threaded work can run up to 2x slower for
seconds to most of an hour at a time, when neighbours load the physical core
under the virtual CPU.  Interpreted code slows alike whatever it does, so the
benchmark samples the slowdown with a fixed kernel (``kernel``: a Python loop
over a dict and strings, then small numpy products, the mix the ``illposed``
solvers spend their time in).  ``SpeedSampler`` runs the kernel from a SIGALRM
handler every ``PERIOD_S`` while the workload runs, and records when each
sample ran and how long its timed run took.

A time taken over ``[a, b]`` is scaled to reference seconds:

    reference = (raw - sampler time inside [a, b]) * speed
    speed = trimmed mean of REF_KERNEL_S / kernel time, over the samples
            taken in [a - WINDOW_S, b + WINDOW_S]

Samples come at a fixed period, so over a long interval their mean weights
each speed by the time spent at it.  The window gives a short interval ten
samples; the host keeps one speed for seconds at least.  A handler cannot run
inside one long native call (a LAPACK SVD), so such an interval is scaled by
the samples around it.  ``REF_KERNEL_S`` is the kernel's time on an idle core
of a 2.1 GHz Xeon VM (the machine the benchmark was written on), so there, in
its fast stretches, a reference second is a wall second.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PERIOD_S = 0.05
WINDOW_S = 0.25  # speed is averaged this far either side of an interval
REF_KERNEL_S = 0.56e-3

_A = np.arange(12.0).reshape(3, 4)
_V = np.ones(4)


def kernel() -> float:
    """A fixed piece of interpreter and small-numpy work, 0.5-1 ms."""
    acc = 0.0
    table: dict = {}
    for i in range(600):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + i
        acc += len(str(i)) * (i & 7)
    acc += sum(v for _, v in sorted(table.items(), key=lambda kv: kv[1]))
    for _ in range(150):
        acc += float((_A @ _V).sum())
    return acc


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def _trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    cut = len(values) // 10
    kept = values[cut:len(values) - cut]
    return sum(kept) / len(kept)


class SpeedSampler:
    """Samples the kernel every PERIOD_S from a SIGALRM handler between start and stop."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []
        self._running = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._running:  # a signal that arrives inside the handler is dropped
            return
        self._running = True
        start = time.perf_counter()
        kernel()  # warms the caches the workload took over; the second run is timed
        self.kernel_s.append(time_kernel())
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self._running = False

    def start(self) -> None:
        """Take a few samples up front, then sample every PERIOD_S."""
        for _ in range(3):
            self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        self._sample(None, None)

    def __enter__(self) -> "SpeedSampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def overhead(self, a: float, b: float) -> float:
        """Seconds the sampler itself ran inside [a, b]."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.starts, b)
        return sum(min(end, b) - start for start, end in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def speed(self, a: float, b: float) -> float:
        """Reference seconds per second over [a, b], from the samples within WINDOW_S of it."""
        lo = bisect.bisect_left(self.starts, a - WINDOW_S)
        hi = bisect.bisect_right(self.starts, b + WINDOW_S)
        if hi - lo < 2:  # widen to the nearest samples on both sides
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        return _trimmed_mean([REF_KERNEL_S / k for k in self.kernel_s[lo:hi]])

    def reference(self, a: float, b: float) -> float:
        """The interval [a, b] less the sampler's own time, in reference seconds."""
        return (b - a - self.overhead(a, b)) * self.speed(a, b)
