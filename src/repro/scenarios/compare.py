"""Cross-stack scenario comparison: the paper's Table-1 argument at
catalog scale.

:func:`compare_scenario_stacks` runs each requested scenario under
several protocol stacks (default: every registered stack) and returns
per-scenario :class:`StackComparison` results;
:func:`format_stack_comparison` renders the side-by-side table — one
row per common metric, one mean + CI column pair per stack — that
``repro scenario run <name> --stack all`` prints.

The whole (stack, scenario, seed) grid is dispatched through ONE
:meth:`ExecutionBackend.run <repro.experiments.exec.ExecutionBackend.run>`
batch (via :func:`repro.scenarios.catalog.replicate_scenarios`), so
``--jobs N`` overlaps stacks, scenarios and seeds alike.

Determinism: each (stack, spec, seed) job is deterministic (see
:mod:`repro.stacks`), results aggregate in job order, and rendering is
pure — the comparison table is byte-identical between serial and
``--jobs N`` execution and across repeats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from repro.experiments.exec import ExecutionBackend
from repro.experiments.runner import Replication
from repro.metrics.tables import format_table
from repro.scenarios.catalog import _resolve, replicate_scenarios
from repro.scenarios.spec import ScenarioSpec
from repro.stacks.base import COMMON_METRICS
from repro.stacks.registry import get_stack, stack_names


@dataclass
class StackComparison:
    """One scenario replicated under several stacks, side by side."""

    spec: ScenarioSpec
    stacks: list[str]
    seeds: list[int]
    #: stack name -> aggregated per-seed metrics for that stack.
    replications: dict[str, Replication]
    #: Confidence level of the replications' intervals.
    confidence: float = 0.95

    def metric_rows(self) -> list[str]:
        """The metric names the comparison table shows, in order.

        The common cross-stack metrics first, then any extra keys
        present under *every* compared stack (e.g. the ``air_*``
        contention metrics), sorted by name so the order is canonical
        — independent of metric emission order, which keeps live
        tables byte-identical to ones rebuilt from a campaign results
        store.  Stack-specific namespaced extras are excluded here and
        rendered separately.
        """
        rows = list(COMMON_METRICS)
        shared = set.intersection(
            *(set(rep.metrics) for rep in self.replications.values())
        )
        rows.extend(sorted(shared - set(rows)))
        return rows

    def extras(self, stack: str) -> dict[str, float]:
        """``stack``'s namespaced extra metrics (means), e.g. ``cip.*``.

        Keys that are not shared by every compared stack — the
        stack-specific tail the side-by-side table cannot align —
        sorted by name (canonical order, matching store rebuilds).
        """
        shared = set(self.metric_rows())
        replication = self.replications[stack]
        return {
            name: replication.metrics[name].mean
            for name in sorted(replication.metrics)
            if name not in shared
        }


def build_stack_comparison(
    spec: ScenarioSpec,
    replications: dict[str, Replication],
    seeds: Sequence[int],
    confidence: float = 0.95,
) -> StackComparison:
    """Assemble a :class:`StackComparison` from per-stack replications.

    The construction seam shared by :func:`compare_scenario_stacks`
    (which runs the grid live) and the campaign results store
    (:mod:`repro.campaign.store`, which re-aggregates persisted
    per-item records) — both render through
    :func:`format_stack_comparison`, so a resumed campaign's
    comparison table is byte-identical to a live ``--stack all`` run
    of the same grid.  Stack order follows the ``replications``
    mapping's insertion order.  Deterministic: pure data assembly.
    """
    if not replications:
        raise ValueError("replications must not be empty")
    return StackComparison(
        spec=spec,
        stacks=list(replications),
        seeds=list(seeds),
        replications=dict(replications),
        confidence=confidence,
    )


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
    across that spec's stacks, so columns are paired by seed).  The
    whole (scenario, stack, seed) grid goes through a single
    :meth:`ExecutionBackend.run` call, so a pool's work-stealing queue
    balances heavyweight stacks against light ones.  Deterministic: same inputs, same
    backend-independent output.
    """
    names = list(stacks) if stacks is not None else stack_names()
    if not names:
        raise ValueError("stacks must not be empty")
    for name in names:
        get_stack(name)  # eager: unknown --stack fails before any run
    specs = [_resolve(scenario) for scenario in scenarios]
    derived = [
        spec.replace(stack=name) for spec in specs for name in names
    ]
    batch = replicate_scenarios(
        derived,
        seeds=seeds,
        confidence=confidence,
        backend=backend,
    )
    comparisons: list[StackComparison] = []
    offset = 0
    for spec in specs:
        replications: dict[str, Replication] = {}
        seed_list: list[int] = []
        for name in names:
            _, seed_list, replication = batch[offset]
            offset += 1
            replications[name] = replication
        comparisons.append(build_stack_comparison(
            spec, replications, seed_list, confidence
        ))
    return comparisons


def format_stack_comparison(comparison: StackComparison) -> str:
    """Render one :class:`StackComparison` as a side-by-side table.

    One row per cross-stack metric; per stack, a mean column and a
    CI-half-width column labelled from the confidence level the
    intervals were computed at.  Stack-specific namespaced extras
    (``cip.*``, ``mip.*``) follow as one line per stack.
    Deterministic: pure rendering of the comparison data.
    """
    spec = comparison.spec
    level = f"ci{int(round(comparison.confidence * 100))}"
    headers = ["metric"]
    for name in comparison.stacks:
        headers += [name, f"{name}_{level}"]
    rows: list[list[object]] = []
    for metric in comparison.metric_rows():
        row: list[object] = [metric]
        for name in comparison.stacks:
            estimate = comparison.replications[name].metrics.get(metric)
            if estimate is None:
                row += [float("nan"), float("nan")]
            else:
                row += [estimate.mean, estimate.half_width]
        rows.append(row)
    seeds = [str(seed) for seed in comparison.seeds]
    title = (
        f"scenario {spec.name} — stack comparison "
        f"({len(seeds)} seed{'s' if len(seeds) != 1 else ''}: "
        f"{', '.join(seeds)})"
    )
    lines = [format_table(headers, rows, title=title)]
    for name in comparison.stacks:
        extras = comparison.extras(name)
        if extras:
            rendered = "  ".join(
                f"{key}={value:g}" for key, value in extras.items()
            )
            lines.append(f"{name} extras: {rendered}")
    return "\n".join(lines)


__all__ = [
    "StackComparison",
    "build_stack_comparison",
    "compare_scenario_stacks",
    "format_stack_comparison",
]
