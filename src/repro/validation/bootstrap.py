"""Bootstrap confidence intervals for per-seed metric samples.

The statistical half of the validation layer: every golden metric is the
*mean over seeds* of a per-seed sample (one independent run per seed, see
:func:`repro.validation.golden.measure_case`), and the percentile
bootstrap attaches a confidence interval to that mean without any
distributional assumption on the underlying latency/throughput values.

Everything here is deterministic: the resampling RNG is seeded, so the
same per-seed samples always produce the same interval (goldens and
reports stay byte-stable across runs and machines).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BootstrapSummary:
    """Mean, spread and bootstrap confidence interval of one sample.

    Parameters
    ----------
    mean, std : float
        Sample mean and population standard deviation.
    ci_low, ci_high : float
        Percentile-bootstrap confidence bounds of the mean.
    confidence : float
        Confidence level of the interval (e.g. ``0.95``).
    count : int
        Sample size (number of seeds).
    """

    mean: float
    std: float
    ci_low: float
    ci_high: float
    confidence: float
    count: int

    @property
    def half_width(self) -> float:
        """Half the confidence-interval width (0.0 for a point interval)."""
        return (self.ci_high - self.ci_low) / 2.0

    def to_dict(self) -> dict:
        """JSON-serialisable form (keys match the golden-file schema)."""
        return {
            "mean": self.mean,
            "std": self.std,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "confidence": self.confidence,
            "count": self.count,
        }


def bootstrap_mean(
    samples,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> BootstrapSummary:
    """Percentile-bootstrap confidence interval of a sample mean.

    Parameters
    ----------
    samples : iterable of float
        The per-seed metric values (at least one).
    confidence : float
        Two-sided confidence level in (0, 1).
    resamples : int
        Number of bootstrap resamples (vectorized, so thousands are cheap).
    seed : int
        Seed of the resampling RNG — fixed by default so goldens are
        reproducible.

    Examples
    --------
    >>> summary = bootstrap_mean([1.0, 2.0, 3.0, 4.0])
    >>> summary.ci_low <= summary.mean <= summary.ci_high
    True
    >>> bootstrap_mean([5.0]).half_width
    0.0
    """
    values = np.asarray(list(samples), dtype=np.float64)
    if values.size == 0:
        raise ValueError("bootstrap_mean needs at least one sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if resamples < 1:
        raise ValueError(f"resamples must be positive, got {resamples}")
    mean = float(values.mean())
    std = float(values.std())
    if values.size == 1:
        # A single seed has no resampling variability; the interval is a
        # point (and the validator will rely on the relative bands alone).
        return BootstrapSummary(mean, 0.0, mean, mean, confidence, 1)
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, values.size, size=(resamples, values.size))
    means = values[indices].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    ci_low, ci_high = np.quantile(means, [alpha, 1.0 - alpha])
    return BootstrapSummary(
        mean, std, float(ci_low), float(ci_high), confidence, int(values.size)
    )
