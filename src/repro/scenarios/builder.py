"""Instantiate a :class:`~repro.scenarios.spec.ScenarioSpec` into a
ready-to-run world under its protocol stack, and execute it.

Since the stacks refactor this module is a thin dispatcher: the
world-assembly logic lives in the stack adapters under
:mod:`repro.stacks` (the multi-tier code moved verbatim to
:mod:`repro.stacks.multitier`), and :func:`build_scenario` routes a
spec to the adapter named by its ``stack`` field (default
``"multitier"``).  Every adapter instantiates the *same* seeded
population and traffic plan (:mod:`repro.stacks.population`), so runs
of different stacks at one seed are directly comparable.

:func:`run_scenario_spec` is the execution-engine job entry point: it
builds, runs warmup → traffic → drain, and returns a plain-float metric
dict, which is exactly what the PR 1 backends require for their
ordered-deterministic aggregation guarantee.

Determinism: dispatch is pure table lookup; each adapter derives all
randomness from the run seed through named
:class:`~repro.sim.rng.RandomStreams`, so one ``(spec, seed)`` pair —
stack field included — returns byte-identical metrics in any process,
on any execution backend.  ``stack="multitier"`` output is pinned
byte-for-byte to the pre-refactor builder by the
``results/scenarios_smoke/`` goldens.
"""

from __future__ import annotations

import gc

from repro.scenarios.spec import ScenarioSpec
from repro.stacks.multitier import BuiltScenario
from repro.stacks.population import roam_rectangle
from repro.stacks.registry import get_stack


def build_scenario(spec: ScenarioSpec, seed: int):
    """Assemble the world, population and traffic plan for one run.

    Parameters
    ----------
    spec:
        The declarative workload (validated at construction); its
        ``stack`` field names the registered adapter that builds the
        world (``multitier`` | ``cellularip`` | ``mobileip`` | any
        stack registered via
        :func:`repro.stacks.registry.register_stack`).
    seed:
        Run seed; all randomness flows through
        :class:`~repro.sim.rng.RandomStreams` named per mobile index,
        so the same ``(spec, seed)`` pair always builds an identical
        world — the root of the catalog's determinism guarantee.

    Returns
    -------
    BuiltRun
        The assembled (not yet run) world — a
        :class:`~repro.stacks.multitier.BuiltScenario` for the default
        stack — with an ``execute()`` method returning the metric dict.
    """
    return get_stack(spec.stack).build(spec, seed)


def run_scenario_spec(spec: ScenarioSpec, seed: int) -> dict[str, float]:
    """Build and execute one ``(spec, seed)`` run — the backend job.

    Returns the plain-float metric dict from the stack run's
    ``execute()`` (never NaN), which is what the execution backends
    require for their ordered-deterministic aggregation guarantee: the
    same ``(spec, seed)`` pair returns byte-identical metrics in any
    process, on any backend.
    """
    metrics = build_scenario(spec, seed).execute()
    # A finished world is one reference cycle (simulator, nodes,
    # processes) that reference counting cannot free and that is too
    # small a share of the heap to trigger a full collection: without
    # this a batch keeps every world it has run, and the process's peak
    # memory grows with the batch and differs from seed to seed.
    gc.collect()
    return metrics


def run_scenario_trace(spec: ScenarioSpec, seed: int):
    """Run one ``(spec, seed)`` pair and keep its decision trace.

    Returns ``(metrics, trace)`` where ``trace`` is the built run's
    :class:`~repro.policy.trace.DecisionTrace`, the ring buffer every
    mobility controller of the run records its decisions and refused
    moves into, under any stack.  The metric dict is byte-identical to
    :func:`run_scenario_spec` for the same pair; tracing is
    observation, not behavior.  Deterministic: the trace replays
    identically for one ``(spec, seed)``.
    """
    built = build_scenario(spec, seed)
    return built.execute(), built.decision_trace


__all__ = [
    "BuiltScenario",
    "build_scenario",
    "roam_rectangle",
    "run_scenario_spec",
    "run_scenario_trace",
]
