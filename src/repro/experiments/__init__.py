"""Experiment harness: the execution engine and the replication
runner.  The package itself exports only those — the multi-run half of
the scenario layer (:mod:`repro.scenarios.grid`) and the CLI import
:mod:`~repro.experiments.runner` on every start — so the
reproduced figures and tables are imported from their modules and
:mod:`repro.experiments.registry` maps the E-series ids to them.

One experiment shape
--------------------
The paper has no evaluation section, so the E-series *is* the
reproduction: every figure (2.2-4.1) as an executable table.  Each one
is a scenario function + one ``sweep`` call + a registry line:

* ``scenario(x, seed) -> dict[str, float]`` — a module-level function
  that builds its own world for axis point ``x`` (a number on a
  figure's axis, or the label of a row in a case / scheme table), runs
  it and returns plain metrics.  The shared pieces live in
  :mod:`~repro.experiments.baselines`: the small worlds, the downlink
  probe ``cbr_to_mobile(world, mn, rate_bps, duration)`` and the
  scripted mover ``scripted_handoffs(sim, interval, targets, handoff)``.
* :func:`~repro.experiments.runner.sweep` — runs the whole
  (x, seed) grid as ONE backend batch and is the only place an
  :class:`~repro.experiments.runner.ExperimentResult` is assembled;
  ``columns`` picks the metrics to print and, as a mapping, renames
  their headers.
* ``ALL_EXPERIMENTS["E12"] = experiment_e12`` in the registry.

An E8-shaped table — interruption per handoff target, per seed::

    _E12_TARGETS = {"same branch (F->E)": "E", "other branch (F->B)": "B"}

    def _e12_scenario(label, seed, handoff_at):
        world = MultiTierWorld()
        d1 = world.domain1
        mn, source, sink = baselines.handoff_under_stream(
            world, d1["F"], d1[_E12_TARGETS[label]],
            handoff_at=handoff_at, stream_s=4.0, until=8.0,
        )
        return {"gap": sink.max_gap(),
                "loss_rate": sink.loss_rate(source.packets_sent)}

    def experiment_e12(seeds=DEFAULT_SEEDS, handoff_at=1.5, backend=None):
        "E12: interruption by handoff target."
        return sweep(
            "E12", "E12: interruption by handoff target", "target",
            list(_E12_TARGETS), partial(_e12_scenario, handoff_at=handoff_at),
            seeds, {"gap": "gap_s", "loss_rate": "loss_rate"},
            backend=backend,
        )

Why not ``ScenarioSweep``: the E-series measure protocol-internal
quantities (registration latency, triangle stretch, cache-miss rate,
per-protocol hop deltas, AIMD windows) around *scripted* handoffs
between named stations.  ``ScenarioSpec`` has no scripted mover and
``BuiltRun.harvest()`` emits none of those keys; adding both for
seventeen single-use callers would be new surface, not less.

Execution engine
----------------
Every experiment takes ``backend=`` and its (axis point, seed) jobs go
through ONE batch function,
:func:`~repro.experiments.runner.replicate_cells` — ``(scenario,
seeds)`` cells → jobs → a single ``backend.run`` → one
:class:`~repro.experiments.runner.Replication` per cell — as does the
scenario layer's grid path (:mod:`repro.scenarios.grid`); ``sweep``
and ``run_grid`` are its only callers.  The backend
is a pluggable :class:`~repro.experiments.exec.ExecutionBackend`:
:class:`~repro.experiments.exec.SerialBackend` (the default,
``backend=None``) or :class:`~repro.experiments.exec.ProcessPoolBackend`
(``repro run E8 --jobs 8``).  Backends only decide *where* jobs run;
a scenario derives all randomness from its seed and builds its own
simulator, and results are aggregated in job order, so every backend
and job count produces identical tables (the determinism guarantee is
spelled out in :mod:`repro.experiments.exec`).
"""

from repro.experiments.exec import (
    ExecutionBackend,
    ProcessPoolBackend,
    RemoteTraceback,
    SerialBackend,
    backend_for_jobs,
)
from repro.experiments.runner import (
    ExperimentResult,
    Replication,
    aggregate,
    build_sweep_result,
    replicate_cells,
    sweep,
)

__all__ = [
    "ExecutionBackend",
    "ExperimentResult",
    "ProcessPoolBackend",
    "RemoteTraceback",
    "Replication",
    "SerialBackend",
    "aggregate",
    "backend_for_jobs",
    "build_sweep_result",
    "replicate_cells",
    "sweep",
]
