"""Statistical reduction for simulation outputs.

Replicated runs produce per-seed samples; these helpers compute means
with Student-t confidence intervals (scipy) and render compact ASCII
tables/series for the benchmark harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import stats as scipy_stats


@dataclass(frozen=True)
class Estimate:
    """A mean with its confidence half-width."""

    mean: float
    half_width: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        if math.isnan(self.mean):
            return "nan"
        if self.half_width == 0.0 or math.isnan(self.half_width):
            return f"{self.mean:.4g}"
        return f"{self.mean:.4g} ±{self.half_width:.2g}"


def mean_confidence(samples: Sequence[float], confidence: float = 0.95) -> Estimate:
    """Student-t confidence interval for the mean of ``samples``."""
    values = np.asarray([s for s in samples if not math.isnan(s)], dtype=float)
    n = len(values)
    if n == 0:
        return Estimate(float("nan"), float("nan"), 0)
    mean = float(np.mean(values))
    if n == 1:
        return Estimate(mean, 0.0, 1)
    sem = float(np.std(values, ddof=1)) / math.sqrt(n)
    if sem == 0.0:
        return Estimate(mean, 0.0, n)
    t_crit = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    return Estimate(mean, t_crit * sem, n)


def ratio(numerator: float, denominator: float) -> float:
    """A safe ratio, nan when the denominator vanishes."""
    if denominator == 0:
        return float("nan")
    return numerator / denominator
