"""Replication machinery: run scenarios across seeds, aggregate.

A *scenario* is any callable ``f(seed) -> dict[str, float]``.  Every
multi-run entry point — :func:`sweep`, and the scenario grid
(:func:`repro.scenarios.grid.run_grid`) and campaign store above it —
hands its ``(scenario, seeds)`` cells to
:func:`replicate_cells`, which flattens the whole grid into ONE
:class:`~repro.experiments.exec.ExecutionBackend` batch (so a parallel
backend can use every core even when the seed lists are short) and
reduces each cell's results to mean ± confidence-interval
:class:`Estimate` values.  Results come back in job order, so the
aggregated output is identical for every backend.

:func:`sweep` is how a reproduced figure or table is defined — a
``scenario(x, seed)`` function over an axis of numbers or labels — and
:func:`build_sweep_result`, its rendering half, is the one place an
:class:`ExperimentResult` is assembled; :func:`save_experiment_figure`
draws one.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from repro.experiments.exec import ExecutionBackend, SerialBackend
from repro.metrics.stats import Estimate, mean_confidence
from repro.metrics.tables import format_ascii_plot, format_series

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


def build_sweep_result(
    experiment_id: str,
    title: str,
    x_label: str,
    x_values: Sequence[object],
    replications: list[Replication],
    columns: Union[Sequence[str], Mapping[str, str]],
    notes: str = "",
    confidence: float = 0.95,
) -> ExperimentResult:
    """Assemble an :class:`ExperimentResult` from per-point replications.

    Pure (deterministic) rendering, and the only place a result is
    built: extracts each metric's per-point means into ``series``
    (keyed by metric name, ``nan`` where a point lacks the metric) and
    formats the text table.  ``columns`` lists the metrics to show, in
    order; as a mapping it is ``metric -> column header`` for tables
    whose printed header differs from the metric's name.  Shared by
    :func:`sweep` and by :func:`repro.scenarios.grid.sweep_curves`,
    which regroups several sweeps' grids after one backend run.
    """
    headers = (
        dict(columns)
        if isinstance(columns, Mapping)
        else {name: name for name in columns}
    )
    series: dict[str, list[float]] = {name: [] for name in headers}
    for replication in replications:
        for name in headers:
            estimate = replication.metrics.get(name)
            series[name].append(estimate.mean if estimate else float("nan"))
    text = format_series(
        x_label,
        x_values,
        {headers[name]: values for name, values in series.items()},
        title=title,
    )
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
    scenario: Callable[..., dict[str, float]],
    seeds: Iterable[int],
    columns: Union[Sequence[str], Mapping[str, str]],
    notes: str = "",
    confidence: float = 0.95,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """Run ``scenario(x, seed)`` over an axis: one replication per x value.

    ``x_values`` may be numbers (a figure's axis) or labels (the rows
    of a case or scheme table).  The full (x value, seed) grid is
    submitted to ``backend`` as one batch — row-major, seeds fastest —
    then aggregated per x value at the caller's ``confidence`` level
    and rendered by :func:`build_sweep_result`.
    """
    seeds = list(seeds)  # once: a generator would seed only the first x
    replications = replicate_cells(
        [(partial(scenario, x), seeds) for x in x_values], confidence, backend
    )
    return build_sweep_result(
        experiment_id,
        title,
        x_label,
        x_values,
        replications,
        columns,
        notes=notes,
        confidence=confidence,
    )


def _have_matplotlib() -> bool:
    try:
        import matplotlib  # noqa: F401
    except ImportError:
        return False
    return True


def save_experiment_figure(
    result: ExperimentResult,
    directory: Union[str, pathlib.Path],
    stem: Optional[str] = None,
) -> pathlib.Path:
    """Write ``result`` as a figure file and return the written path.

    One line is drawn per entry of ``result.series`` against
    ``result.x_values``.  When matplotlib is importable the figure is a
    PNG rendered on the ``Agg`` backend; otherwise (matplotlib is an
    optional dependency) the same data is written as a deterministic
    ASCII chart with a ``.txt`` suffix via
    :func:`repro.metrics.tables.format_ascii_plot`.

    Parameters
    ----------
    result:
        Any :class:`~repro.experiments.runner.ExperimentResult` — the
        sweep engine and every reproduced experiment produce one.
    directory:
        Output directory, created if missing.
    stem:
        File name without suffix; defaults to a sanitized
        ``result.experiment_id``.

    Determinism: the rendering is a pure function of the result data,
    so figures produced from serial and ``--jobs N`` runs of the same
    sweep are identical (byte-identical in the ASCII fallback, which is
    what CI diffs).
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if stem is None:
        stem = result.experiment_id.replace("/", "_").lower()

    numeric_x = all(isinstance(x, (int, float)) for x in result.x_values)
    if _have_matplotlib():
        # Object-oriented API on an explicit Agg canvas: no pyplot, no
        # matplotlib.use(), so a host application's interactive backend
        # and figure registry are left untouched.
        from matplotlib.backends.backend_agg import FigureCanvasAgg
        from matplotlib.figure import Figure

        xs = result.x_values if numeric_x else range(len(result.x_values))
        figure = Figure(figsize=(7.0, 4.5))
        FigureCanvasAgg(figure)
        axes = figure.add_subplot()
        for name, values in result.series.items():
            axes.plot(xs, values, marker="o", label=name)
        if not numeric_x:
            axes.set_xticks(list(xs))
            axes.set_xticklabels([str(x) for x in result.x_values])
        axes.set_xlabel(result.x_label)
        axes.set_title(result.title)
        axes.grid(True, alpha=0.3)
        axes.legend()
        path = directory / f"{stem}.png"
        # Fixed metadata: default PNG metadata embeds the matplotlib
        # version, which would break output-parity diffs across hosts.
        figure.savefig(path, dpi=120, metadata={"Software": "repro"})
        return path

    path = directory / f"{stem}.figure.txt"
    path.write_text(
        format_ascii_plot(
            result.x_label, result.x_values, result.series, title=result.title
        )
        + "\n"
    )
    return path
