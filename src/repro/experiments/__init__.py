"""Experiment harness: scenario builders, baselines and one function
per reproduced figure/table.

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

from repro.experiments.ablations import (
    ablation_buffer_size,
    ablation_record_lifetime,
    experiment_e9,
    experiment_t1,
    experiment_t2,
)
from repro.experiments.baselines import (
    SCHEMES,
    build_cip_world,
    run_cip_hard,
    run_cip_semisoft,
    run_mobileip,
    run_multitier_rsmc,
    run_scheme,
)
from repro.experiments.exec import (
    ExecutionBackend,
    ProcessPoolBackend,
    RemoteTraceback,
    SerialBackend,
    backend_for_jobs,
)
from repro.experiments.elastic import experiment_e8b
from repro.experiments.load import experiment_e11
from repro.experiments.figures import (
    save_experiment_figure,
    experiment_e1,
    experiment_e2,
    experiment_e3,
    experiment_e4,
    experiment_e5_e6,
    experiment_e7,
    experiment_e7_blocking,
    experiment_e8,
    experiment_e10,
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

ALL_EXPERIMENTS = {
    "E1": experiment_e1,
    "E2": experiment_e2,
    "E3": experiment_e3,
    "E4": experiment_e4,
    "E5/E6": experiment_e5_e6,
    "E7": experiment_e7,
    "E7b": experiment_e7_blocking,
    "E8": experiment_e8,
    "E8b": experiment_e8b,
    "E9": experiment_e9,
    "E10": experiment_e10,
    "E11": experiment_e11,
    "T1": experiment_t1,
    "T2": experiment_t2,
    "AB1": ablation_buffer_size,
    "AB2": ablation_record_lifetime,
}

__all__ = [
    "ALL_EXPERIMENTS",
    "ExecutionBackend",
    "ExperimentResult",
    "ProcessPoolBackend",
    "RemoteTraceback",
    "Replication",
    "SCHEMES",
    "SerialBackend",
    "ablation_buffer_size",
    "ablation_record_lifetime",
    "aggregate",
    "backend_for_jobs",
    "build_cip_world",
    "build_sweep_result",
    "experiment_e1",
    "experiment_e2",
    "experiment_e3",
    "experiment_e4",
    "experiment_e5_e6",
    "experiment_e7",
    "experiment_e7_blocking",
    "experiment_e8",
    "experiment_e8b",
    "experiment_e9",
    "experiment_e10",
    "experiment_e11",
    "experiment_t1",
    "experiment_t2",
    "replicate",
    "replicate_cells",
    "replicate_grid",
    "run_cip_hard",
    "run_cip_semisoft",
    "run_mobileip",
    "run_multitier_rsmc",
    "run_scheme",
    "save_experiment_figure",
    "sweep",
]
