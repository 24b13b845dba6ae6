"""Replication machinery: run scenarios across seeds, aggregate.

A *scenario* is any callable ``f(seed) -> dict[str, float]``.  Every
multi-run entry point — :func:`replicate`, :func:`replicate_grid`,
:func:`sweep`, and the scenario, stack-comparison, sweep and campaign
layers above them — hands its ``(scenario, seeds)`` cells to
:func:`replicate_cells`, which flattens the whole grid into ONE
:class:`~repro.experiments.exec.ExecutionBackend` batch (so a parallel
backend can use every core even when the seed lists are short) and
reduces each cell's results to mean ± confidence-interval
:class:`Estimate` values.  Results come back in job order, so the
aggregated output is identical for every backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Optional, Sequence

from repro.experiments.exec import ExecutionBackend, SerialBackend
from repro.metrics.stats import Estimate, mean_confidence

Scenario = Callable[[int], dict[str, float]]


@dataclass
class Replication:
    """Aggregated results of one scenario across seeds."""

    metrics: dict[str, Estimate]
    samples: dict[str, list[float]] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Estimate:
        return self.metrics[name]

    def mean(self, name: str) -> float:
        return self.metrics[name].mean


def aggregate(
    results: Iterable[dict[str, float]], confidence: float = 0.95
) -> Replication:
    """Reduce per-seed metric dicts (in seed order) to a Replication."""
    samples: dict[str, list[float]] = {}
    for result in results:
        for name, value in result.items():
            samples.setdefault(name, []).append(float(value))
    metrics = {
        name: mean_confidence(values, confidence)
        for name, values in samples.items()
    }
    return Replication(metrics=metrics, samples=samples)


def replicate_cells(
    cells: Iterable[tuple[Scenario, Iterable[int]]],
    confidence: float = 0.95,
    backend: Optional[ExecutionBackend] = None,
) -> list[Replication]:
    """Replicate every ``(scenario, seeds)`` cell as ONE backend batch.

    The batch function every multi-run entry point shares: one job per
    (cell, seed) — row-major, seeds fastest — goes through a single
    :meth:`ExecutionBackend.run` call (``backend=None`` runs serially
    in-process), so a pool's work-stealing queue balances cells
    against each other, not just the (often short) seed lists.
    Results are chunked back per cell in order, so the output equals
    replicating the cells one at a time, on any backend.
    """
    if backend is None:
        backend = SerialBackend()
    grid = [(scenario, [int(seed) for seed in seeds]) for scenario, seeds in cells]
    results = iter(backend.run(
        [partial(scenario, seed) for scenario, seeds in grid for seed in seeds]
    ))
    return [
        aggregate(islice(results, len(seeds)), confidence)
        for _scenario, seeds in grid
    ]


def replicate(
    scenario: Scenario,
    seeds: Iterable[int],
    confidence: float = 0.95,
    backend: Optional[ExecutionBackend] = None,
) -> Replication:
    """Run ``scenario`` once per seed and aggregate each metric."""
    return replicate_cells([(scenario, seeds)], confidence, backend)[0]


def replicate_grid(
    scenarios: Sequence[Scenario],
    seeds: Iterable[int],
    confidence: float = 0.95,
    backend: Optional[ExecutionBackend] = None,
) -> list[Replication]:
    """Replicate several scenarios over the same seeds as ONE batch."""
    seeds = list(seeds)
    return replicate_cells(
        [(scenario, seeds) for scenario in scenarios], confidence, backend
    )


@dataclass
class ExperimentResult:
    """One reproduced figure/table: data plus its rendered text."""

    experiment_id: str
    title: str
    x_label: str
    x_values: Sequence[object]
    series: dict[str, list[float]]
    text: str
    notes: str = ""
    #: Per-x-value aggregates (confidence intervals included), parallel
    #: to ``x_values``.  Populated by :func:`sweep`.
    replications: list[Replication] = field(default_factory=list)
    #: Confidence level the replications' intervals were computed at;
    #: renderers derive their CI column labels from this so label and
    #: data cannot disagree.
    confidence: float = 0.95

    def series_mean(self, name: str) -> float:
        values = self.series[name]
        return sum(values) / len(values) if values else float("nan")


def build_sweep_result(
    experiment_id: str,
    title: str,
    x_label: str,
    x_values: Sequence[object],
    replications: list[Replication],
    metric_names: Sequence[str],
    notes: str = "",
    confidence: float = 0.95,
) -> ExperimentResult:
    """Assemble an :class:`ExperimentResult` from per-point replications.

    Pure (deterministic) rendering: extracts each metric's per-point
    means into series and formats the text table.  Shared by
    :func:`sweep` and by callers that batch several sweeps' grids
    through one backend run (``repro.scenarios.grid.sweep_scenarios``).
    """
    from repro.metrics.tables import format_series

    series: dict[str, list[float]] = {name: [] for name in metric_names}
    for replication in replications:
        for name in metric_names:
            estimate = replication.metrics.get(name)
            series[name].append(estimate.mean if estimate else float("nan"))
    text = format_series(x_label, x_values, series, title=title)
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        x_label=x_label,
        x_values=list(x_values),
        series=series,
        text=text,
        notes=notes,
        replications=replications,
        confidence=confidence,
    )


def sweep(
    experiment_id: str,
    title: str,
    x_label: str,
    x_values: Sequence[object],
    make_scenario: Callable[[object], Scenario],
    seeds: Iterable[int],
    metric_names: Sequence[str],
    notes: str = "",
    confidence: float = 0.95,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """Run a parameter sweep: one replication per x value.

    The full (x value, seed) grid is submitted to ``backend`` as one
    batch — row-major, seeds fastest — then aggregated per x value at
    the caller's ``confidence`` level.
    """
    scenarios = [make_scenario(x) for x in x_values]
    replications = replicate_grid(scenarios, seeds, confidence, backend)
    return build_sweep_result(
        experiment_id,
        title,
        x_label,
        x_values,
        replications,
        metric_names,
        notes=notes,
        confidence=confidence,
    )
