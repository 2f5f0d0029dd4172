"""Host-speed reference: fixed pieces of work timed between operations.

The shared 2-vCPU host these figures were taken on runs the same
instructions up to about 1.8 times more slowly while other tenants load its
cores.  The slow stretches last tens of milliseconds, and their share of the
time drifts over minutes, so a whole run can fall in a slow phase.  CPU time
rises with wall time, so reading CPU time instead does not help, and no
statistic over one run's operations removes a phase that covers the run.

So a run also times a reference kernel: fixed code of the benchmark's own,
which no change to the program alters, run between operations for a fixed
share of the time.  Kernel and operations see the same mix of fast and slow
stretches.  Code of different kinds slows by different amounts, so each
workload gets a kernel that resembles its hot path: mostly an interpreted
per-frame loop for the simulations, table passes for the knapsack.  Set-up
is mostly importing modules in a fresh interpreter, so its reference is a
fixed set of standard-library imports, timed the same way around each
set-up.  Host times are reported in reference seconds: host seconds times a
reference's fixed time over its time in the run, i.e. seconds on a host as
fast as the one the fixed times were taken on.
"""
from __future__ import annotations

import math
import statistics
from time import perf_counter
from typing import Callable

import numpy as np

# Kernel time per second of measured work, run in slices between operations.
KERNEL_SHARE = 0.25


def frame_kernel() -> int:
    """Per-frame work like trace synthesis: for each of 2,000 frames, scalar
    and 8-vector normal draws, a clamp and a tuple of floats.  Returns a count
    so the work is used."""
    rng = np.random.default_rng(12345)
    base = np.linspace(0.0, 1.0, 8)
    frames = []
    for i in range(2000):
        t = (i + 1) * 0.5
        x = min(1.0, max(1e-3, 0.3 * math.sin(t) + rng.normal(0.0, 0.01)))
        v = base + x + rng.normal(0.0, 0.03, size=8)
        frames.append((t, math.sqrt(x), tuple(float(y) for y in v)))
    return len(frames)


def _table_passes(cap: int, n: int) -> float:
    """``n`` knapsack-like passes over tables of ``cap + 1`` float64: copy the
    last table and take a shifted maximum into the copy, keeping every table."""
    tables = [np.zeros(cap + 1)]
    for i in range(n):
        cur = tables[-1].copy()
        w = 1 + (997 * i) % (cap // 2)
        np.maximum(cur[w:], tables[-1][:cap + 1 - w] + 1.0, out=cur[w:])
        tables.append(cur)
    return float(tables[-1][-1])


def table_kernel() -> float:
    """Knapsack-like work: table passes past the core's caches (5 MiB tables,
    as at the largest capacity) and within them (64 KiB tables, as at one
    GPU), in fresh memory each time.  Returns a value so the work is used."""
    return _table_passes(655_360, 4) + _table_passes(8_192, 200)


def sim_kernel() -> float:
    """The simulations' kernel: about two thirds per-frame loop and one third
    table passes by time.  Over two sets of ten to twelve runs across changes
    of phase, this mix followed both simulations more closely than either
    kernel alone, as their detectors and samplers add array work to trace
    synthesis.  Returns a value so the work is used."""
    return frame_kernel() + frame_kernel() + frame_kernel() + table_kernel()


# Each kernel's mean time on the host the figures in perfbench/README.md were
# taken on (2 vCPUs of an Intel Xeon, shared), so reference seconds read
# close to that host's seconds.  Fixed: changing one rescales host times.
REFERENCE_S = {table_kernel: 0.022, sim_kernel: 0.080}

# Standard-library modules with Python and native parts, imported as the
# set-up's reference, and their mean import time on that host.
REFERENCE_IMPORTS = ("asyncio, csv, decimal, email.mime.multipart, http.client, json, "
                     "logging.handlers, sqlite3, ssl, statistics, tarfile, unittest, "
                     "xml.etree.ElementTree, zipfile")
REFERENCE_IMPORT_S = 0.078


class HostSpeed:
    """Interleaves runs of one kernel with measured work and turns host
    seconds into reference seconds.  The kernels hold up to 26 MiB, so a run
    reads its peak memory before the kernel first runs."""

    def __init__(self, kernel: Callable[[], object]):
        self.kernel = kernel
        self.measured_s = 0.0
        self.kernel_s = []

    def pace(self, elapsed: float, run_kernel: bool = True) -> None:
        """Count ``elapsed`` seconds of measured work, then, with
        ``run_kernel``, run the kernel until it has had its share of all the
        time counted so far."""
        self.measured_s += elapsed
        while run_kernel and (not self.kernel_s
                              or sum(self.kernel_s) < KERNEL_SHARE * self.measured_s):
            start = perf_counter()
            self.kernel()
            self.kernel_s.append(perf_counter() - start)

    @property
    def factor(self) -> float:
        """Reference seconds per host second over the run so far."""
        return REFERENCE_S[self.kernel] / statistics.fmean(self.kernel_s)
