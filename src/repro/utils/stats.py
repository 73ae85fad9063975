"""Streaming statistics of the traffic driver's latency replay."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence


class OnlineStats:
    """Streaming count/mean/min/max accumulator (Welford's running mean).

    Accumulates per-request latencies without storing every sample.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Add one sample."""
        self.count += 1
        self._mean += (value - self._mean) / self.count
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
        count, mean = self.count, self._mean
        for value in values:
            count += 1
            mean += (value - mean) / count
        if count > self.count:
            self.count, self._mean = count, mean
            self.minimum = min(self.minimum, min(values))
            self.maximum = max(self.maximum, max(values))

    @property
    def mean(self) -> float:
        """Mean of the samples seen so far (0.0 when empty)."""
        return self._mean if self.count else 0.0


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
