"""Statistics and result rendering."""

from repro.metrics.stats import Estimate, mean_confidence, ratio
from repro.metrics.tables import (
    diff_counts,
    format_ascii_plot,
    format_series,
    format_table,
)

__all__ = [
    "Estimate",
    "diff_counts",
    "format_ascii_plot",
    "format_series",
    "format_table",
    "mean_confidence",
    "ratio",
]
