"""The four benchmark workloads, derived through the public catalog API.

Each workload is a list of :class:`~repro.scenarios.spec.ScenarioSpec`
derived from the shipped catalog with ``get_scenario`` and
``ScenarioSpec.replace`` only; the program under test receives nothing
but those specs and an integer seed.  Why each one exists (which layers
it stresses, which optimisation should and should not show on it) is
recorded in ``BENCHMARK.json`` and ``perf/README.md``.

Populations, mixes and topologies are the catalog's; only ``duration``
is cut, so that one repetition executes in two to three seconds and a
run of the benchmark fits eight or so repetitions, each at another
scenario seed.  That is what keeps the run-level medians steady: the
deterministic work of ``mega`` alone varies by a tenth (standard
deviation) from scenario seed to scenario seed, which a median over
two or three full-length repetitions would pass straight through (see
perf/README.md, "Noise").

``repro`` is imported lazily inside the functions: the harness parent
only needs the names, and a repetition times its own imports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: Scenario seeds one ``--seed`` fans out to: repetition ``i`` runs
#: scenario seed ``seed * SEED_CYCLE + i % SEED_CYCLE``.  From the
#: seventh repetition on a run repeats scenario seeds, and a repeat
#: must reproduce the first result digest bit for bit.
SEED_CYCLE = 6


def _mega():
    from repro.scenarios import get_scenario

    return [get_scenario("mega").replace(duration=10.0)]


def _metro_air():
    from repro.scenarios import get_scenario

    return [get_scenario("metro-100k").replace(population=96, duration=20.0)]


def _idle_roam():
    from repro.scenarios import get_scenario

    return [get_scenario("mega").replace(
        population=400,
        duration=60.0,
        traffic_mix={"idle": 1.0},
        hotspot_fraction=0.0,
        mobility_mix={
            "highway": 0.4,
            "manhattan": 0.2,
            "gauss-markov": 0.2,
            "random-direction": 0.2,
        },
    )]


def _stacks_campus():
    from repro.scenarios import get_scenario

    return [
        get_scenario("campus-dense").replace(duration=12.0),
        get_scenario("commuter-corridor").replace(duration=14.0),
    ]


@dataclass(frozen=True)
class Workload:
    """One named benchmark input."""

    #: ``() -> [ScenarioSpec, ...]`` through the public catalog API.
    derive: Callable[[], list]
    #: ``hop_total`` of the nominal repetition: the mean over the six
    #: scenario seeds of ``--seed 1``.  Scenario seeds differ in how
    #: much traffic they generate (``mega``: by a tenth, standard
    #: deviation), which is input size, not program speed, so every
    #: repetition quotes its ``wall_s`` at this size.
    nominal_hops: int
    #: ``execute()`` wall seconds of one repetition on the box the
    #: baseline in perf/README.md was measured on; a repetition that
    #: takes ten times this long counts as failed.
    baseline_wall_s: float
    #: Run the specs under every registered stack as one
    #: ``compare_scenario_stacks`` batch instead of building one world.
    all_stacks: bool = False


WORKLOADS: dict[str, Workload] = {
    "mega-forward": Workload(_mega, 231_657, 2.0),
    "metro-air": Workload(_metro_air, 192_978, 2.4),
    "idle-roam": Workload(_idle_roam, 50_131, 2.0),
    "stacks-campus": Workload(_stacks_campus, 433_837, 2.6, all_stacks=True),
}


def scenario_seed(seed: int, index: int) -> int:
    """The scenario seed repetition ``index`` of a ``--seed`` run uses."""
    return seed * SEED_CYCLE + index % SEED_CYCLE


def derive(name: str, quick: bool = False) -> list:
    """The workload's specs; ``quick`` shrinks each with ``.smoke()``."""
    specs = WORKLOADS[name].derive()
    return [spec.smoke() for spec in specs] if quick else specs


def build(name: str, specs: list, seed: int) -> Callable[[], list]:
    """Set the workload up; return ``execute() -> [(label, spec, metrics)]``.

    One ``(label, spec, metrics)`` triple per simulation run the
    repetition made, in a fixed order.  For a single-world workload the
    world is built here and ``execute`` only runs it; for an all-stacks
    workload the builds happen inside ``compare_scenario_stacks``, as
    they do for a user of ``repro scenario run --stack all``.
    """
    if WORKLOADS[name].all_stacks:
        from repro.experiments.exec import SerialBackend
        from repro.scenarios import compare_scenario_stacks
        from repro.stacks import stack_names

        def execute():
            comparisons = compare_scenario_stacks(
                specs, stacks=stack_names(), seeds=[seed],
                backend=SerialBackend(),
            )
            return [
                (
                    f"{comparison.spec.name}/{stack}",
                    comparison.spec,
                    {
                        key: values[0]
                        for key, values in
                        comparison.replications[stack].samples.items()
                    },
                )
                for comparison in comparisons
                for stack in comparison.stacks
            ]

        return execute

    from repro.scenarios import build_scenario

    (spec,) = specs
    built = build_scenario(spec, seed)
    return lambda: [(spec.name, spec, built.execute())]
