"""Cross-stack scenario comparison: the paper's Table-1 argument at
catalog scale.

A :class:`StackComparison` holds one scenario replicated under several
protocol stacks — assembled by
:func:`repro.scenarios.grid.stack_comparisons` from a live
:func:`~repro.scenarios.grid.compare_scenario_stacks` batch or from a
campaign results store — and :func:`format_stack_comparison` renders
the side-by-side table — one row per common metric, one mean + CI
column pair per stack — that ``repro scenario run <name> --stack all``
prints.

Determinism: each (stack, spec, seed) job is deterministic (see
:mod:`repro.stacks`), results aggregate in job order, and rendering is
pure — the comparison table is byte-identical between serial and
``--jobs N`` execution and across repeats.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import Replication
from repro.metrics.tables import format_table
from repro.scenarios.spec import ScenarioSpec
from repro.stacks.base import COMMON_METRICS


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
    "format_stack_comparison",
]
