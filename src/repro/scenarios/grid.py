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
   one :class:`~repro.experiments.runner.ExperimentResult` curve per
   (sweep, stack).

:func:`replicate_scenario` / :func:`replicate_scenarios`,
:func:`compare_scenario_stacks` and :func:`sweep_scenario` /
:func:`sweep_scenarios` are those three steps under their historical
signatures.

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
from repro.scenarios.spec import ScenarioSpec
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
    base: Optional[ScenarioSpec] = None,
) -> list[GridCell]:
    """Expand run knobs into the grid's cells, in execution order.

    Scenario entries first — scenario-major, then stack — followed by
    sweep entries — sweep-major, then stack, then axis point.  Entries
    are registered names or instances.  ``stacks=None`` keeps each
    base spec's own stack; explicit names are validated against the
    registry before anything is derived.  ``seeds=None`` uses each
    spec's (or sweep's) own default seed list.  ``smoke`` shrinks every
    base spec with :meth:`ScenarioSpec.smoke` and every sweep with
    :meth:`ScenarioSweep.smoke`.  ``base`` overrides the catalog lookup
    of every sweep's base scenario.  Every derived spec is re-validated
    end to end.  Deterministic: a pure function of the knobs and the
    registered definitions.
    """
    if stacks is not None:
        stacks = list(stacks)
        if not stacks:
            raise ValueError("stacks must not be empty")
        for stack in stacks:
            get_stack(stack)  # eager: unknown stack fails before any run
    shared = tuple(int(seed) for seed in seeds) if seeds is not None else None

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
        scenario = base if base is not None else get_scenario(sweep.scenario)
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


def _sweep_results(
    cells: Sequence[GridCell],
    confidence: float,
    backend: Optional[ExecutionBackend],
) -> list[tuple[ScenarioSweep, ScenarioSpec, list[int], ExperimentResult]]:
    """Run sweep cells; one ``(sweep, base spec, seeds, result)`` curve
    per (sweep, stack) — a cell at a sweep's first axis value starts
    the next curve.

    The base spec is the rebound one that ran (``base.stack`` names the
    protocol stack); non-default stacks are named in the result title,
    the default stays un-suffixed so legacy output is byte-identical.
    """
    curves: list[tuple[GridCell, list[Replication]]] = []
    for cell, replication in zip(cells, run_grid(cells, confidence, backend)):
        if cell.value == cell.sweep.values[0]:
            curves.append((cell, []))
        curves[-1][1].append(replication)
    out = []
    for cell, replications in curves:
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
            replications,
            list(sweep.metrics),
            notes=sweep.notes,
            confidence=confidence,
        )
        out.append((
            sweep, cell.scenario.replace(stack=cell.stack),
            list(cell.seeds), result,
        ))
    return out


# ----------------------------------------------------------------------
# The historical entry points: expand -> run -> regroup
# ----------------------------------------------------------------------
def replicate_scenario(
    scenario: Union[str, ScenarioSpec],
    seeds: Optional[Iterable[int]] = None,
    confidence: float = 0.95,
    backend: Optional[ExecutionBackend] = None,
) -> Replication:
    """Replicate one scenario across seeds (``None``: its own defaults)."""
    return run_grid(expand_grid([scenario], seeds=seeds), confidence, backend)[0]


def replicate_scenarios(
    scenarios: Sequence[Union[str, ScenarioSpec]],
    seeds: Optional[Iterable[int]] = None,
    confidence: float = 0.95,
    backend: Optional[ExecutionBackend] = None,
    stack: Optional[str] = None,
) -> list[tuple[ScenarioSpec, list[int], Replication]]:
    """Replicate several scenarios as ONE backend batch.

    ``seeds=None`` uses each spec's own default list; ``stack`` rebinds
    every spec onto one registered protocol stack (``None`` keeps each
    spec's own).  Returns one ``(spec that ran, seeds, replication)``
    per scenario, identical to calling :func:`replicate_scenario` one
    name at a time.
    """
    cells = expand_grid(
        scenarios, stacks=None if stack is None else [stack], seeds=seeds
    )
    return [
        (cell.spec, list(cell.seeds), replication)
        for cell, replication in zip(cells, run_grid(cells, confidence, backend))
    ]


def compare_scenario_stacks(
    scenarios: Sequence[Union[str, ScenarioSpec]],
    stacks: Optional[Sequence[str]] = None,
    seeds: Optional[Iterable[int]] = None,
    confidence: float = 0.95,
    backend: Optional[ExecutionBackend] = None,
) -> list[StackComparison]:
    """Run scenarios under several stacks as ONE backend batch.

    ``stacks=None`` compares every registered stack (registration
    order); unknown names fail eagerly with the registered list.
    ``seeds=None`` uses each spec's own default seed list (identical
    across that spec's stacks, so columns are paired by seed).
    Deterministic: same inputs, same backend-independent output.
    """
    cells = expand_grid(
        scenarios,
        stacks=stacks if stacks is not None else stack_names(),
        seeds=seeds,
    )
    return stack_comparisons(
        cells, run_grid(cells, confidence, backend), confidence
    )


def sweep_scenario(
    sweep: Union[str, ScenarioSweep],
    base: Optional[ScenarioSpec] = None,
    seeds: Optional[Iterable[int]] = None,
    confidence: float = 0.95,
    backend: Optional[ExecutionBackend] = None,
    smoke: bool = False,
    stack: Optional[str] = None,
) -> ExperimentResult:
    """Run one scenario sweep and return its :class:`ExperimentResult`.

    ``base`` overrides the catalog lookup of ``sweep.scenario``;
    ``seeds=None`` uses the sweep's (then the base spec's) defaults;
    ``smoke`` runs the shrunken CI variant (first two points, one seed,
    :meth:`ScenarioSpec.smoke` base); ``stack`` rebinds the base spec
    onto one registered protocol stack.  The result's ``replications``
    carry the per-point confidence intervals at ``confidence``.
    """
    return _sweep_results(
        expand_grid(
            sweeps=[sweep],
            stacks=None if stack is None else [stack],
            seeds=seeds,
            smoke=smoke,
            base=base,
        ),
        confidence,
        backend,
    )[0][3]


def sweep_scenarios(
    sweeps: Iterable[Union[str, ScenarioSweep]],
    seeds: Optional[Iterable[int]] = None,
    confidence: float = 0.95,
    backend: Optional[ExecutionBackend] = None,
    smoke: bool = False,
    stacks: Optional[Sequence[str]] = None,
) -> list[tuple[ScenarioSweep, ScenarioSpec, list[int], ExperimentResult]]:
    """Run several sweeps as ONE backend batch (the union of grids).

    ``seeds`` / ``smoke`` apply to every sweep exactly as in
    :func:`sweep_scenario`; ``stacks`` crosses every sweep with each
    named protocol stack (``None`` keeps each base spec's own).  The
    returned ``(sweep, base spec, seed list, result)`` entries are
    ordered sweep-major, stack fastest; each carries the effective
    (smoke-shrunk) sweep and the rebound base spec that actually ran,
    and is byte-identical to calling :func:`sweep_scenario` one
    (sweep, stack) at a time.
    """
    return _sweep_results(
        expand_grid(sweeps=sweeps, stacks=stacks, seeds=seeds, smoke=smoke),
        confidence,
        backend,
    )


__all__ = [
    "GridCell",
    "compare_scenario_stacks",
    "expand_grid",
    "replicate_scenario",
    "replicate_scenarios",
    "run_grid",
    "stack_comparisons",
    "sweep_scenario",
    "sweep_scenarios",
]
