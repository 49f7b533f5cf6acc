"""The reference kernel that the benchmark's timings are scaled by.

A CPU of the shared host runs this benchmark at one of two speeds, about
1.8x apart, and flips between them within seconds or stays in one for
minutes; every timing of the program moves with it.  The kernel below is a
fixed piece of work with the program's instruction mix (interpreter loop,
small numpy calls, Philox generators with Poisson draws, small LAPACK
solves) that imports nothing from the package, so no change to the package
moves it.  The benchmark times it in the gap between every two operations
and reports each timing multiplied by ``KERNEL_S`` / (the kernel's mean
time in the gaps next to it): the time it would take on a host where the
kernel takes ``KERNEL_S``.  A change to the program moves a scaled timing
exactly as it moves the raw one; a change in the host's speed cancels, as
far as the kernel slows down as much as the program.

An operation is scaled by the two gaps on each side of it (``NEIGHBOURS``
= 1 more than the adjacent one), because a CPU's speed changes within a
second.  Measured on the development host:

- one 60-second mc-separation run, cut into 3-second slices: the median op
  time of a slice varied by 9.8% (coefficient of variation) unscaled, 2.9%
  scaled by the adjacent gaps only, and 3.6% and 5.6% scaled by the
  kernel's mean over +-1 s and +-2 s;
- eight 108-op cli-session runs: the interquartile range of the runs' 90th
  percentiles was 8.8% of their median unscaled, 8.8% scaled by the adjacent
  gaps and 4.2% by two gaps on each side (a single short kernel run is often
  faster or slower than the host's speed over a 300-ms operation); six runs
  of each Monte Carlo workload moved by less than a point either way.
"""

from __future__ import annotations

import statistics
import time

# The kernel's median time on the 2-CPU x86-64 host the benchmark was
# written on (Python 3.11, numpy 2.4), in its more common, slower state.
KERNEL_S = 3.0e-3
# An op is scaled by the kernel in the gap on each side of it and in this
# many more gaps on each side.
NEIGHBOURS = 1


def make_kernel():
    """Return the kernel: a function of no arguments.  numpy is imported
    here, after the caller has pinned its thread count."""
    import numpy as np

    grid = np.arange(200.0)
    matrix = np.eye(5) * 3.0 + 0.1
    rhs = np.ones(5)

    def kernel():
        acc = 0
        for k in range(5000):
            acc += k * k
        for _ in range(60):
            np.exp(-grid * 0.01).sum()
        for k in range(40):
            np.random.Generator(np.random.Philox(key=k)).poisson(20.0)
        for _ in range(100):
            np.linalg.solve(matrix, rhs)
        return acc

    return kernel


class Reference:
    """Times the kernel and scales raw timings by it."""

    def __init__(self):
        self.kernel = make_kernel()
        self.samples = []

    def measure(self) -> float:
        """Run the kernel once; record and return its wall time in seconds."""
        t0 = time.perf_counter()
        self.kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    @staticmethod
    def scale(raw_s: float, kernel_s) -> float:
        """raw_s as on a host where the kernel takes KERNEL_S, given the
        kernel's times measured around it."""
        return raw_s * KERNEL_S / statistics.fmean(kernel_s)

    @classmethod
    def scale_ops(cls, op_s, gaps):
        """Scale op times: op i ran between gaps[i] and gaps[i + 1], each a
        list of the kernel's times in that gap."""
        gap_s = [statistics.fmean(g) for g in gaps]
        return [cls.scale(raw, gap_s[max(0, i - NEIGHBOURS):i + 2 + NEIGHBOURS])
                for i, raw in enumerate(op_s)]
