"""Experiment harness: the execution engine and the replication
runner.  The package itself exports only those — the scenario layer
imports :mod:`~repro.experiments.runner` on every start — so the
reproduced figures and tables are imported from their modules
(``figures``, ``ablations``, ``baselines``, ``elastic``, ``load``) and
:mod:`repro.experiments.registry` maps the E-series ids to them.

Execution engine
----------------
Every experiment takes ``backend=`` and routes its per-(seed,
sweep-point) scenario jobs through ONE batch function,
:func:`~repro.experiments.runner.replicate_cells` — ``(scenario,
seeds)`` cells → jobs → a single ``backend.run`` → one
:class:`~repro.experiments.runner.Replication` per cell —
which :func:`~repro.experiments.runner.replicate`,
:func:`~repro.experiments.runner.replicate_grid` and
:func:`~repro.experiments.runner.sweep` delegate to, as does the
scenario layer's grid path (:mod:`repro.scenarios.grid`:
``expand_grid`` → ``run_grid`` → ``stack_comparisons``).  The backend
is a pluggable :class:`~repro.experiments.exec.ExecutionBackend`
(see :mod:`repro.experiments.exec`; ``backend=None`` means serial):

* :class:`~repro.experiments.exec.SerialBackend` (the default) runs
  jobs in order in-process and is bit-identical to the historic serial
  code path;
* :class:`~repro.experiments.exec.ProcessPoolBackend` fans the same
  jobs out over forked worker processes — ``repro run E8 --jobs 8`` on
  the CLI, or ``experiment_e8(backend=ProcessPoolBackend(8))`` from
  code.

**Determinism guarantee:** a scenario derives all randomness from its
seed via :class:`repro.sim.rng.RandomStreams`, builds its own
:class:`~repro.sim.kernel.Simulator` (whose link registry scopes
whole-network accounting to that world), and returns plain floats.
Backends only decide *where* jobs run; results are aggregated in job
order, so every backend — and every job count — produces identical
metrics for the same seed list.
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
    replicate,
    replicate_cells,
    replicate_grid,
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
    "replicate",
    "replicate_cells",
    "replicate_grid",
    "sweep",
]
