"""Declarative scenario catalog: named, reproducible workloads.

A scenario composes topology (domains, pico cells), a mobility mix, a
traffic mix and a protocol stack into one named workload:

* :class:`~repro.scenarios.spec.ScenarioSpec` — the declarative spec;
* :mod:`repro.scenarios.builder` — spec + seed -> ready-to-run world;
* :mod:`repro.scenarios.catalog` — the registry and shipped scenarios;
* :mod:`repro.scenarios.sweep` — named axes over spec fields
  (:class:`~repro.scenarios.sweep.ScenarioSweep`), turning catalog
  entries into paper-style figures with per-point confidence
  intervals;
* :mod:`repro.scenarios.compare` — the cross-stack comparison table
  (:class:`~repro.scenarios.compare.StackComparison`): any scenario
  under every registered protocol stack (multi-tier, Cellular IP,
  Mobile IP — see :mod:`repro.stacks`), rendered side by side;
* :mod:`repro.scenarios.grid` — the one path every multi-run entry
  point takes: :func:`~repro.scenarios.grid.expand_grid` turns
  scenarios / sweeps / stacks / seeds / ``smoke`` into grid cells,
  :func:`~repro.scenarios.grid.run_grid` dispatches them as one
  execution-backend batch (through
  :func:`repro.experiments.runner.replicate_cells`, with the same
  ordered-deterministic aggregation guarantee as the experiments),
  and :func:`~repro.scenarios.grid.stack_comparisons` regroups them
  per scenario.  ``replicate_scenario(s)``,
  ``compare_scenario_stacks`` and ``sweep_scenario(s)`` are those
  steps under one call each; a campaign runs the same cells and
  keeps their results on disk.

Importing this package loads what one run needs: the spec, the
catalog and the builder.  The multi-run names (everything from
``sweep``, ``grid`` and ``compare``) resolve on first access and bring
the execution engine and the table renderer with them; a stack adapter
is imported when a grid first names it (``expand_grid`` validates each
explicit stack with ``get_stack``).  A process that builds and runs one
world pays for neither.

CLI: ``repro scenario list | describe <name> | run <name> --jobs N
[--stack <name|all>] | sweep <name> --jobs N [--stack <name|all>]``.
"""

from repro._lazy import lazy_exports
from repro.scenarios.builder import (
    BuiltScenario,
    build_scenario,
    roam_rectangle,
    run_scenario_spec,
    run_scenario_trace,
)
from repro.scenarios.catalog import (
    describe_scenario,
    format_scenario_result,
    get_scenario,
    iter_scenarios,
    register,
    scenario_names,
)
from repro.scenarios.spec import (
    MOBILITY_MODELS,
    TRAFFIC_KINDS,
    ScenarioSpec,
    apportion,
)

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.scenarios.compare": ("StackComparison", "format_stack_comparison"),
    "repro.scenarios.grid": (
        "GridCell",
        "compare_scenario_stacks",
        "expand_grid",
        "replicate_scenario",
        "replicate_scenarios",
        "run_grid",
        "stack_comparisons",
        "sweep_scenario",
        "sweep_scenarios",
    ),
    "repro.scenarios.sweep": (
        "ScenarioSweep",
        "describe_sweep",
        "format_sweep_result",
        "get_sweep",
        "iter_sweeps",
        "register_sweep",
        "sweep_names",
    ),
})

__all__ = [
    "MOBILITY_MODELS",
    "TRAFFIC_KINDS",
    "BuiltScenario",
    "GridCell",
    "ScenarioSpec",
    "ScenarioSweep",
    "StackComparison",
    "apportion",
    "build_scenario",
    "compare_scenario_stacks",
    "describe_scenario",
    "describe_sweep",
    "expand_grid",
    "format_scenario_result",
    "format_stack_comparison",
    "format_sweep_result",
    "get_scenario",
    "get_sweep",
    "iter_scenarios",
    "iter_sweeps",
    "register",
    "register_sweep",
    "replicate_scenario",
    "replicate_scenarios",
    "roam_rectangle",
    "run_grid",
    "run_scenario_spec",
    "run_scenario_trace",
    "scenario_names",
    "stack_comparisons",
    "sweep_names",
    "sweep_scenario",
    "sweep_scenarios",
]
