"""Host-speed calibration: a fixed kernel timed between the benchmark's segments.

The reference host is a small VM whose speed wanders by 10-50 % for tens of
seconds at a time (CPU time inflates with wall time, so it is not
descheduling the guest can see).  A raw timing therefore measures the host's
mood as much as the commit.  ``sample()`` times a fixed piece of work that
belongs to the benchmark, not to the simulator — the same mix the simulator
is made of: a Python loop and small-array numpy calls — and every timed
segment is scaled by ``REFERENCE_S / (mean of the samples on either side)``.
Reported seconds are thus *seconds at reference speed*; the raw numbers are
kept as ``harness.wall_raw_s`` and ``harness.host_slowdown``.

Measured on the reference host (300 s, one 95 ms point per segment, 10 s
windows): raw medians spread 10.8 % (range 29 %) between windows, normalised
medians 3.2 % (range 10 %).
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: Typical duration of one kernel on the reference host, so that scaled and
#: raw seconds are about equal there.  A constant: changing it rescales every
#: time metric of every later run.
REFERENCE_S = 0.0047

_SMALL = np.arange(64)
_LARGE = np.arange(2048)


def _shuffle(values: np.ndarray, repeats: int) -> None:
    """Gather, arithmetic, compare, compress: the engine's per-cycle idiom."""
    index = values[::-1].copy()
    current = values
    for _ in range(repeats):
        current = (current[index] + 1) & 1023
        np.flatnonzero(current > 3)


def kernel() -> float:
    """Seconds one fixed work unit took (about a third each: Python, small, large arrays)."""
    started = time.perf_counter()
    total = 0
    for value in range(20000):
        total += value * value
    _shuffle(_SMALL, 400)
    _shuffle(_LARGE, 130)
    return time.perf_counter() - started


def sample(kernels: int = 3) -> float:
    """Median of a few kernels (~12 ms): one disturbed kernel does not move it."""
    return statistics.median(kernel() for _ in range(kernels))


def sample_every_cpu() -> float:
    """Mean of a longer sample on each CPU this process may use.

    For passes whose work runs in other processes, which can be sampled only
    before and after.
    """
    allowed = os.sched_getaffinity(0)
    try:
        samples = []
        for cpu in allowed:
            os.sched_setaffinity(0, {cpu})
            samples.append(sample(kernels=9))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(samples)
