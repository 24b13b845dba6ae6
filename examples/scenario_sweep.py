#!/usr/bin/env python3
"""Tour of the scenario sweep engine: run, plot, register.

Runs a shipped sweep's smoke variant on two backends (proving the
byte-identity guarantee), renders its per-point CI table and figure,
then registers a custom sweep over a custom axis — the same steps any
new paper-style curve takes.

Run:  PYTHONPATH=src python examples/scenario_sweep.py
"""

import tempfile

from repro.experiments import ProcessPoolBackend, SerialBackend
from repro.experiments.runner import save_experiment_figure
from repro.scenarios import (
    ScenarioSweep,
    describe_sweep,
    format_sweep_result,
    get_sweep,
    register_sweep,
    sweep_scenario,
)


def main() -> None:
    # 1. A shipped sweep, serial vs pooled — identical output.
    name = "sparse-rural/population"
    serial = sweep_scenario(name, backend=SerialBackend(), smoke=True)
    pooled = sweep_scenario(name, backend=ProcessPoolBackend(2), smoke=True)
    assert serial.series == pooled.series, "backends must agree bit-for-bit"
    smoke = get_sweep(name).smoke()
    print(format_sweep_result(smoke, serial, seeds=smoke.point_seeds()))
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
    result = sweep_scenario(commuters, smoke=True)
    print(format_sweep_result(commuters.smoke(), result))


if __name__ == "__main__":
    main()
