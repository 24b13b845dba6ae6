"""Statistical reduction for simulation outputs.

Replicated runs produce per-seed samples; these helpers compute means
with Student-t confidence intervals; :func:`t_ppf` is the
self-contained Student-t quantile they use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np


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


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified
    Lentz); converges fast for ``x < (a + 1) / (a + b + 2)``."""
    tiny = 1e-300
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0) or tiny)
    h = d
    for m in range(1, 1000):
        for term in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 / (1.0 + term * d or tiny)
            c = 1.0 + term / c or tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _t_upper_tail(t: float, df: float) -> float:
    """``P(T > t)`` for ``t >= 0``: half the regularised incomplete beta
    ``I_x(df/2, 1/2)`` at ``x = df / (df + t**2)``."""
    a, b, x = 0.5 * df, 0.5, df / (df + t * t)
    if x <= 0.0 or x >= 1.0:
        return 0.5 * (x >= 1.0)
    front = 0.5 * math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 0.5 - front * _beta_fraction(b, a, 1.0 - x) / b


@lru_cache(maxsize=None)
def t_ppf(p: float, df: float) -> float:
    """Quantile of Student's t with ``df`` degrees of freedom at ``p``,
    by bisection on the upper tail; a run asks for a handful of
    ``(p, df)`` pairs, so answers are memoised."""
    if not 0.0 < p < 1.0 or not df > 0:
        raise ValueError(f"t_ppf needs 0 < p < 1 and df > 0, got {p!r}, {df!r}")
    if p < 0.5:
        return -t_ppf(1.0 - p, df)
    tail, low, high = 1.0 - p, 0.0, 1.0
    while _t_upper_tail(high, df) > tail:
        low, high = high, 2.0 * high
    while low < (mid := 0.5 * (low + high)) < high:
        if _t_upper_tail(mid, df) > tail:
            low = mid
        else:
            high = mid
    return mid


def mean_confidence(samples: Sequence[float], confidence: float = 0.95) -> Estimate:
    """Student-t confidence interval for the mean of ``samples``."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
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
    t_crit = t_ppf(0.5 + confidence / 2.0, n - 1)
    return Estimate(mean, t_crit * sem, n)


def ratio(numerator: float, denominator: float) -> float:
    """A safe ratio, nan when the denominator vanishes."""
    if denominator == 0:
        return float("nan")
    return numerator / denominator
