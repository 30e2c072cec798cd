"""Host-speed correction of wall-clock timings.

On a shared machine the speed of a core changes by up to 2x, within seconds
and over minutes, while CPU time keeps following wall time: the process is
slowed, not descheduled.  Raw wall times of one program then spread more
between runs than the changes the benchmark has to resolve.

`Meter` runs a fixed calibration kernel from a SIGALRM handler every
PERIOD_S seconds of wall time, so it runs on the same thread and core as the
work it interrupts, and records how long each run of the kernel took.  The
kernel is 25 products of 2x2 complex matrices, whose cost is numpy's
per-call overhead, as in most of the package's work; of 2x2, 8x8 and 28x28
products, a Python loop, a 28x28 eig and a batched product, it followed the
workloads' own slowdowns best.  A timed
interval is then reported in reference seconds:

    (wall time - kernel time inside the interval) * NOMINAL_S / kernel time

where the kernel time is the 10 %-trimmed mean over the samples inside the
interval, widened to the MIN_SAMPLES samples nearest to it when the interval
holds fewer.  A reference second is the time the host takes when the kernel
runs in NOMINAL_S; the kernel is the benchmark's own code, so a change to
the package moves reference seconds just as it moves wall seconds.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PERIOD_S = 0.01
NOMINAL_S = 5e-5
MIN_SAMPLES = 20
TRIM = 0.1


_A = np.array([[0.25, 0.125], [0.0625, 0.25]]) + 0.25j * np.eye(2)


def kernel() -> None:
    x = _A
    for _ in range(25):
        x = _A @ x + _A


class Meter:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_seconds(self, t0: float, t1: float) -> float:
        """The interval [t0, t1) of perf_counter time, in reference seconds."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        busy = sum(self.durations[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            if lo > 0 and (hi == len(self.starts) or t0 - self.starts[lo - 1] <= self.starts[hi] - t1):
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            raise RuntimeError("no calibration samples were taken")
        window = sorted(self.durations[lo:hi])
        cut = int(len(window) * TRIM)
        kept = window[cut : len(window) - cut]
        return (t1 - t0 - busy) * NOMINAL_S / (sum(kept) / len(kept))
