#!/usr/bin/env python3
"""Tour of the scenario sweep engine: run, plot, register.

Runs a shipped sweep's smoke variant on two backends (proving the
byte-identity guarantee), renders its per-point CI table and figure,
then registers a custom sweep over a custom axis — the same steps any
new paper-style curve takes.  Every sweep goes the way ``repro
scenario sweep`` goes: ``expand_grid`` -> ``run_grid`` ->
``sweep_curves``.

Run:  PYTHONPATH=src python examples/scenario_sweep.py
"""

import tempfile

from repro.experiments import ProcessPoolBackend, SerialBackend
from repro.experiments.runner import save_experiment_figure
from repro.scenarios import (
    ScenarioSweep,
    describe_sweep,
    expand_grid,
    format_sweep_result,
    register_sweep,
    run_grid,
    sweep_curves,
)


def run_sweep(sweep, backend=None):
    """Run one sweep's smoke variant; return its single curve entry:
    ``(effective sweep, base spec, seeds, result)``."""
    cells = expand_grid(sweeps=[sweep], smoke=True)
    (curve,) = sweep_curves(cells, run_grid(cells, backend=backend))
    return curve


def main() -> None:
    # 1. A shipped sweep, serial vs pooled — identical output.
    name = "sparse-rural/population"
    smoke, _base, seeds, serial = run_sweep(name, SerialBackend())
    pooled = run_sweep(name, ProcessPoolBackend(2))[3]
    assert serial.series == pooled.series, "backends must agree bit-for-bit"
    print(format_sweep_result(smoke, serial, seeds=seeds))
    print("\n(serial == --jobs 2, verified)\n")

    # 2. The figure file: PNG with matplotlib, ASCII chart without.
    with tempfile.TemporaryDirectory() as directory:
        path = save_experiment_figure(serial, directory)
        print(f"figure rendered to {path.name}")
        if path.suffix == ".txt":
            print(path.read_text())

    # 3. A custom sweep: inter-domain handoff load vs commuter count.
    commuters = register_sweep(ScenarioSweep(
        name="commuter-corridor/population",
        scenario="commuter-corridor",
        field="population",
        values=(4, 8),
        seeds=(1,),
        metrics=("handoffs", "loss_rate", "elastic_goodput_bps"),
        description="inter-domain handoff pressure vs commuter count",
    ))
    print(describe_sweep(commuters))
    print()
    smoke, _base, _seeds, result = run_sweep(commuters)
    print(format_sweep_result(smoke, result))


if __name__ == "__main__":
    main()
