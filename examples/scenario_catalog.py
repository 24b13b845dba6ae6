#!/usr/bin/env python3
"""Tour of the scenario catalog: define, register, run.

Runs a shipped scenario on two backends (proving the byte-identity
guarantee), then registers a custom scenario and runs it — the same
three steps any new workload takes.  Every run goes the way
``repro scenario run`` goes: ``expand_grid`` -> ``run_grid``.

Run:  PYTHONPATH=src python examples/scenario_catalog.py
"""

from repro.experiments import ProcessPoolBackend, SerialBackend
from repro.scenarios import (
    ScenarioSpec,
    describe_scenario,
    expand_grid,
    format_scenario_result,
    get_scenario,
    register,
    run_grid,
)


def main() -> None:
    # 1. A shipped scenario, serial vs pooled — identical output.
    spec = get_scenario("sparse-rural").smoke()
    seeds = [1, 2]
    cells = expand_grid([spec], seeds=seeds)
    (serial,) = run_grid(cells, backend=SerialBackend())
    (pooled,) = run_grid(cells, backend=ProcessPoolBackend(2))
    assert serial.samples == pooled.samples, "backends must agree bit-for-bit"
    print(format_scenario_result(spec, serial, seeds))
    print("\n(serial == --jobs 2, verified)\n")

    # 2. A custom scenario: a stadium crowd walking out of one cell.
    stadium = register(ScenarioSpec(
        name="stadium-exit",
        description="a crowd leaves the B micro cell at walking speed",
        population=12,
        duration=15.0,
        mobility_mix={"waypoint": 0.8, "stationary": 0.2},
        traffic_mix={"cbr-voice": 0.5, "poisson-data": 0.25, "idle": 0.25},
        roam=(-3100.0, -400.0, -2300.0, 400.0),  # around B
        seeds=(1, 2),
    ))
    print(describe_scenario(stadium))
    print()
    (replication,) = run_grid(expand_grid([stadium]))
    print(format_scenario_result(stadium, replication, stadium.seeds))


if __name__ == "__main__":
    main()
