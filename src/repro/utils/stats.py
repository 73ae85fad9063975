"""Lightweight statistics helpers used by measurement and evaluation code."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence


class OnlineStats:
    """Streaming mean/variance/min/max accumulator (Welford's algorithm).

    Used to accumulate per-request latencies and per-cycle throughput samples
    without storing every sample.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Add one sample."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Sequence[float]) -> None:
        """Add many samples: :meth:`add` per sample, in order, bit for bit.

        Welford's running mean depends on the order of its inputs, so a
        replay of recorded samples must go through this loop (or
        :meth:`add`), never through a reordered or pairwise sum.
        """
        count, mean, m2 = self.count, self._mean, self._m2
        for value in values:
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
        if count > self.count:
            self.count, self._mean, self._m2 = count, mean, m2
            self.minimum = min(self.minimum, min(values))
            self.maximum = max(self.maximum, max(values))

    def merge(self, other: "OnlineStats") -> None:
        """Merge another accumulator into this one (Chan's parallel variant)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self._mean = (self._mean * self.count + other._mean * other.count) / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def mean(self) -> float:
        """Mean of the samples seen so far (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance of the samples seen so far."""
        return self._m2 / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"OnlineStats(count={self.count}, mean={self.mean:.3f}, "
            f"std={self.stddev:.3f}, min={self.minimum}, max={self.maximum})"
        )


@dataclass
class Histogram:
    """Integer-valued histogram, used for latency distributions."""

    counts: dict[int, int] = field(default_factory=dict)

    def add(self, value: int, weight: int = 1) -> None:
        """Add ``weight`` samples of ``value``."""
        self.counts[value] = self.counts.get(value, 0) + weight

    def extend(self, values: Iterable[int]) -> None:
        """Add many samples of weight one."""
        for value, count in Counter(values).items():
            self.add(value, count)

    @property
    def total(self) -> int:
        """Number of samples (the sum of all weights)."""
        return sum(self.counts.values())

    def mean(self) -> float:
        """Weighted mean of the samples; 0.0 when there are none."""
        total = self.total
        if total == 0:
            return 0.0
        return sum(value * count for value, count in self.counts.items()) / total

    def percentile(self, fraction: float) -> int:
        """Return the smallest value at or below which ``fraction`` of samples fall."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        total = self.total
        if total == 0:
            return 0
        threshold = fraction * total
        running = 0
        for value in sorted(self.counts):
            running += self.counts[value]
            if running >= threshold:
                return value
        return max(self.counts)

    def items(self):
        """``(value, count)`` pairs in ascending value order."""
        return sorted(self.counts.items())


def summarize(values) -> dict[str, float]:
    """Return a {count, mean, std, min, max} summary of an iterable of numbers."""
    stats = OnlineStats()
    for value in values:
        stats.add(float(value))
    return {
        "count": stats.count,
        "mean": stats.mean,
        "std": stats.stddev,
        "min": stats.minimum if stats.count else 0.0,
        "max": stats.maximum if stats.count else 0.0,
    }


def geometric_mean(values) -> float:
    """Geometric mean of strictly positive values (0.0 for an empty iterable)."""
    total = 0.0
    count = 0
    for value in values:
        if value <= 0:
            raise ValueError("geometric mean requires strictly positive values")
        total += math.log(value)
        count += 1
    if count == 0:
        return 0.0
    return math.exp(total / count)
