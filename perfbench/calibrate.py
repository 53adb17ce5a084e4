"""Speed of the benchmark's CPU, sampled while the workload runs.

On a shared host the speed of one virtual CPU drifts: the same command can
take 40 % longer a minute later because of other tenants, and the two
virtual CPUs of a 2-core machine drift independently of each other.  Wall
time alone then measures the host, not the program.

The benchmark therefore pins itself and every workload process to one CPU
and runs a ``Calibrator`` thread on that same CPU.  Every ``INTERVAL_S`` it
times a fixed kernel (``KERNEL_SOLVES`` tridiagonal ``solve_banded`` calls
on 465 unknowns, the size and call pattern of the PDE march) by its own
thread CPU time.  The kernel is benchmark code, so a change to the program
never moves it.  The kernel takes about 1.5 % of the CPU while a workload
runs.

A time measured over an interval is converted to reference speed with
``to_reference``: multiplied by ``speed ** exponent``, where ``speed`` is
``REFERENCE_KERNEL_S`` over the median kernel time in that interval.  The
exponent is how strongly a workload's time follows the kernel's: not every
workload slows down as much as the kernel when the host is busy (see
``SPEED_EXPONENT`` in ``run.py``).
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np
from scipy.linalg import solve_banded

INTERVAL_S = 0.2
KERNEL_SOLVES = 80
# Kernel CPU time at the reference speed: about the median on an Intel Xeon
# (2 shared cores, Python 3.11, numpy 2.x, scipy 1.x).
REFERENCE_KERNEL_S = 0.0032
MIN_SAMPLES = 3


def pin_cpu():
    """Pin the calling process (and what it starts later) to one CPU; return it."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Calibrator:
    """Background thread sampling the kernel's CPU time; use as a context manager."""

    def __init__(self):
        rng = np.random.default_rng(0)
        n = 465
        self._ab = np.vstack([np.full(n, -1.0), 4.0 + rng.random(n), np.full(n, -1.0)])
        self._rhs = rng.standard_normal(n)
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="calibrator", daemon=True)

    def kernel(self):
        for _ in range(KERNEL_SOLVES):
            x = solve_banded((1, 1), self._ab, self._rhs)
        return x

    def _loop(self):
        while not self._stop.wait(INTERVAL_S):
            mid = time.monotonic()
            start = time.thread_time()
            self.kernel()
            self.kernel_s.append(time.thread_time() - start)
            self.times.append(mid)

    def __enter__(self):
        self.kernel()               # warm up scipy's wrappers before sampling
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def kernel_time(self, t0, t1):
        """Median kernel time over [t0, t1], or over the nearest samples when few."""
        times, kernel_s = list(self.times), list(self.kernel_s)
        inside = [k for t, k in zip(times, kernel_s) if t0 <= t <= t1]
        if len(inside) < MIN_SAMPLES:
            mid = 0.5 * (t0 + t1)
            nearest = sorted(range(len(times)), key=lambda i: abs(times[i] - mid))
            inside = [kernel_s[i] for i in nearest[:MIN_SAMPLES]]
        return statistics.median(inside) if inside else None

    def speed(self, t0, t1):
        """Speed over [t0, t1] relative to the reference (1 = reference), or None."""
        k = self.kernel_time(t0, t1)
        return REFERENCE_KERNEL_S / k if k else None

    def to_reference(self, seconds, t0, t1, exponent=1.0):
        """``seconds`` measured over [t0, t1], converted to reference speed."""
        speed = self.speed(t0, t1)
        if seconds is None or speed is None:
            return None
        return seconds * speed ** exponent
