"""The run grid: every multi-run entry point's one path to the backend.

The paper's claims are testable only as a grid — scenario × protocol
stack × sweep axis point × seed — and every way of running one
(``repro scenario run``, ``--stack all`` comparisons, ``repro scenario
sweep``, campaigns) goes through the same three steps:

1. :func:`expand_grid` expands scenarios / sweeps / stacks / seeds /
   ``smoke`` into :class:`GridCell` values — one per (scenario, stack)
   or (sweep, stack, axis point), each carrying the derived spec that
   runs and its seed list.  A campaign makes exactly these cells its
   work items, so a live run and a campaign can never disagree about
   the grid.
2. :func:`run_grid` dispatches the cells' whole (cell, seed) grid as
   ONE :meth:`ExecutionBackend.run
   <repro.experiments.exec.ExecutionBackend.run>` batch through
   :func:`repro.experiments.runner.replicate_cells` — ``--jobs N``
   overlaps scenarios, stacks, axis points and seeds alike — and
   returns one :class:`~repro.experiments.runner.Replication` per cell.
3. The cells regroup into what the caller renders:
   :func:`stack_comparisons` (one side-by-side table per scenario) or
   :func:`sweep_curves` (one
   :class:`~repro.experiments.runner.ExperimentResult` curve per
   (sweep, stack)).  Neither runs anything.

One scenario's replication is ``run_grid(expand_grid([name]))[0]``.
:func:`compare_scenario_stacks` is the three steps in one call because
the ``stacks-campus`` benchmark workload is defined as that call.

Determinism: expansion is a pure function of its arguments and the
registered catalog/sweep/stack definitions, every run derives all
randomness from its seed, and results aggregate in job order — so
tables and figures are byte-identical between serial and ``--jobs N``
execution and across repeats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, Optional, Sequence, Union

from repro.experiments.exec import ExecutionBackend
from repro.experiments.runner import (
    ExperimentResult,
    Replication,
    build_sweep_result,
    replicate_cells,
)
from repro.scenarios.builder import run_scenario_spec
from repro.scenarios.catalog import _resolve as _resolve_scenario
from repro.scenarios.catalog import get_scenario
from repro.scenarios.compare import StackComparison
from repro.scenarios.spec import ScenarioSpec, _integer
from repro.scenarios.sweep import ScenarioSweep
from repro.scenarios.sweep import _resolve as _resolve_sweep
from repro.stacks.registry import DEFAULT_STACK, get_stack, stack_names


@dataclass(frozen=True)
class GridCell:
    """One cell of a run grid: what runs, under which stack, on which
    seeds — the unit every multi-run entry point speaks."""

    #: The entry's base spec (smoke-shrunk if asked, on its own stack).
    scenario: ScenarioSpec
    #: The protocol stack this cell runs under.
    stack: str
    #: The spec that runs: ``scenario`` rebound onto ``stack`` and, for
    #: a sweep cell, with the axis field set to ``value``.
    spec: ScenarioSpec
    seeds: tuple[int, ...]
    #: The (smoke-shrunk if asked) sweep and this cell's axis value;
    #: both ``None`` for a plain scenario cell.
    sweep: Optional[ScenarioSweep] = None
    value: Optional[float] = None


def expand_grid(
    scenarios: Iterable[Union[str, ScenarioSpec]] = (),
    sweeps: Iterable[Union[str, ScenarioSweep]] = (),
    stacks: Optional[Sequence[str]] = None,
    seeds: Optional[Iterable[int]] = None,
    smoke: bool = False,
) -> list[GridCell]:
    """Expand run knobs into the grid's cells, in execution order.

    Scenario entries first — scenario-major, then stack — followed by
    sweep entries — sweep-major, then stack, then axis point.  Entries
    are registered names or instances.  ``stacks=None`` keeps each
    base spec's own stack; explicit names are validated against the
    registry before anything is derived.  ``seeds=None`` uses each
    spec's (or sweep's) own default seed list; an explicit list must
    hold at least one seed, every one a non-negative integer.  ``smoke`` shrinks
    every base spec with :meth:`ScenarioSpec.smoke` and every sweep
    with :meth:`ScenarioSweep.smoke`.  Every derived spec is
    re-validated end to end.  Deterministic: a pure function of the
    knobs and the registered definitions.
    """
    if stacks is not None:
        stacks = list(stacks)
        if not stacks:
            raise ValueError("stacks must not be empty")
        for stack in stacks:
            get_stack(stack)  # eager: unknown stack fails before any run
    shared = None
    if seeds is not None:
        shared = tuple(seeds)
        # A negative seed would fail only at the run's first stream.
        if not shared or not all(_integer(seed) and seed >= 0 for seed in shared):
            raise ValueError(
                "seeds must be a non-empty list of non-negative integers, "
                f"got {list(shared)}"
            )
        shared = tuple(int(seed) for seed in shared)

    cells: list[GridCell] = []
    for entry in scenarios:
        scenario = _resolve_scenario(entry)
        if smoke:
            scenario = scenario.smoke()
        cell_seeds = shared if shared is not None else scenario.seeds
        for stack in stacks or (scenario.stack,):
            cells.append(GridCell(
                scenario, stack, scenario.replace(stack=stack), cell_seeds
            ))
    for entry in sweeps:
        sweep = _resolve_sweep(entry)
        scenario = get_scenario(sweep.scenario)
        if smoke:
            scenario = scenario.smoke()
            sweep = sweep.smoke(scenario)
        cell_seeds = (
            shared if shared is not None else tuple(sweep.point_seeds(scenario))
        )
        for stack in stacks or (scenario.stack,):
            rebound = scenario.replace(stack=stack)
            cells.extend(
                GridCell(
                    scenario, stack, sweep.derive(rebound, value),
                    cell_seeds, sweep, value,
                )
                for value in sweep.values
            )
    return cells


def run_grid(
    cells: Sequence[GridCell],
    confidence: float = 0.95,
    backend: Optional[ExecutionBackend] = None,
) -> list[Replication]:
    """Run every cell's seeds as ONE backend batch; one
    :class:`~repro.experiments.runner.Replication` per cell, in order
    (see :func:`repro.experiments.runner.replicate_cells`)."""
    return replicate_cells(
        [(partial(run_scenario_spec, cell.spec), cell.seeds) for cell in cells],
        confidence,
        backend,
    )


def stack_comparisons(
    cells: Sequence[GridCell],
    replications: Sequence[Replication],
    confidence: float = 0.95,
) -> list[StackComparison]:
    """Group plain scenario cells into per-scenario stack comparisons.

    One :class:`~repro.scenarios.compare.StackComparison` per run of
    consecutive cells naming the same scenario (a stack coming round
    again starts the next one), in cell order; sweep cells are
    skipped.  A scenario's cells share one seed list (columns are
    paired by seed), which :func:`expand_grid` guarantees.  The seam
    shared by live ``--stack all`` runs and the campaign results
    store, so both render byte-identical tables.  Deterministic: pure
    data assembly.
    """
    comparisons: list[StackComparison] = []
    for cell, replication in zip(cells, replications):
        if cell.sweep is not None:
            continue
        if (
            not comparisons
            or comparisons[-1].spec.name != cell.scenario.name
            or cell.stack in comparisons[-1].replications
        ):
            comparisons.append(StackComparison(
                spec=cell.scenario,
                stacks=[],
                seeds=list(cell.seeds),
                replications={},
                confidence=confidence,
            ))
        comparisons[-1].stacks.append(cell.stack)
        comparisons[-1].replications[cell.stack] = replication
    return comparisons


def sweep_curves(
    cells: Sequence[GridCell],
    replications: Sequence[Replication],
    confidence: float = 0.95,
) -> list[tuple[ScenarioSweep, ScenarioSpec, list[int], ExperimentResult]]:
    """Group sweep cells into one curve per (sweep, stack).

    One ``(sweep, base spec, seeds, result)`` entry per curve, in cell
    order — sweep-major, stack fastest for :func:`expand_grid` output.
    A cell at its sweep's first axis value starts the next curve;
    plain scenario cells are skipped.  Each entry carries what ran —
    the effective (smoke-shrunk if asked) sweep, the base spec rebound
    onto the curve's stack and the seed list — so a caller renders it
    without re-deriving any of them.  Non-default stacks are named in
    the result title; the default stays un-suffixed.  The result's
    ``replications`` carry the per-point intervals at ``confidence``.
    Deterministic: pure data assembly.
    """
    curves: list[tuple[GridCell, list[Replication]]] = []
    for cell, replication in zip(cells, replications):
        if cell.sweep is None:
            continue
        if cell.value == cell.sweep.values[0]:
            curves.append((cell, []))
        curves[-1][1].append(replication)
    out = []
    for cell, points in curves:
        sweep = cell.sweep
        title = f"sweep {sweep.name}: {cell.scenario.name} vs {sweep.axis_label()}"
        if cell.stack != DEFAULT_STACK:
            title += f" [stack={cell.stack}]"
        if sweep.description:
            title += f" — {sweep.description}"
        result = build_sweep_result(
            sweep.name,
            title,
            sweep.axis_label(),
            list(sweep.values),
            points,
            list(sweep.metrics),
            notes=sweep.notes,
            confidence=confidence,
        )
        out.append((
            sweep, cell.scenario.replace(stack=cell.stack),
            list(cell.seeds), result,
        ))
    return out


def compare_scenario_stacks(
    scenarios: Sequence[Union[str, ScenarioSpec]],
    stacks: Optional[Sequence[str]] = None,
    seeds: Optional[Iterable[int]] = None,
    confidence: float = 0.95,
    backend: Optional[ExecutionBackend] = None,
) -> list[StackComparison]:
    """Run scenarios under several stacks as ONE backend batch.

    :func:`expand_grid` → :func:`run_grid` → :func:`stack_comparisons`
    in one call, kept because the ``stacks-campus`` benchmark workload
    (``perf/workloads.py``) is defined as this call.  ``stacks=None``
    compares every registered stack (registration order); unknown
    names fail eagerly with the registered list.  ``seeds=None`` uses
    each spec's own default seed list (identical across that spec's
    stacks, so columns are paired by seed).  Deterministic: same
    inputs, same backend-independent output.
    """
    cells = expand_grid(
        scenarios,
        stacks=stacks if stacks is not None else stack_names(),
        seeds=seeds,
    )
    return stack_comparisons(
        cells, run_grid(cells, confidence, backend), confidence
    )


__all__ = [
    "GridCell",
    "compare_scenario_stacks",
    "expand_grid",
    "run_grid",
    "stack_comparisons",
    "sweep_curves",
]
