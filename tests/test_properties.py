"""Property-style determinism tests over randomized mini-specs.

The kernel/net property files use hypothesis, which the CI environment
does not install — this layer instead derives each mini-spec from a
seeded ``random.Random`` and pytest parametrization, so the same cases
run everywhere, deterministically, with no optional dependency.

Three properties, each over a family of generated specs (random
population, duration, mobility/traffic mixes, topology, stack):

1. repeat == repeat — one ``(spec, seed)`` pair is byte-identical
   across runs in one process;
2. serial == pool(2) — the execution backends add no nondeterminism;
3. fluid-off == legacy — a spec with ``fluid=None`` and the same spec
   with ``fluid={"population": 0}`` are byte-identical, across every
   registered stack: the hybrid layer is invisible until enabled.
"""

import multiprocessing
import random

import pytest

from repro.experiments.exec import ProcessPoolBackend, SerialBackend
from repro.scenarios import expand_grid, run_grid, run_scenario_spec
from repro.scenarios.spec import MOBILITY_MODELS, TRAFFIC_KINDS, ScenarioSpec
from repro.stacks import stack_names

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="platform lacks fork")

#: Seeds of the generated mini-spec family.  Each seed is one case; add
#: more to widen coverage (every case costs a couple of scenario runs).
CASE_SEEDS = (11, 23, 37, 58, 71, 94)


def _mix(rng: random.Random, keys) -> dict[str, float]:
    """A random mix over 1-3 of ``keys`` with fractions summing to 1."""
    chosen = rng.sample(sorted(keys), rng.randint(1, 3))
    weights = [rng.randint(1, 5) for _ in chosen]
    total = sum(weights)
    return {key: weight / total for key, weight in zip(chosen, weights)}


def random_mini_spec(case_seed: int, channels: bool | None = None) -> ScenarioSpec:
    """One deterministic mini-spec drawn from ``case_seed``.

    Small on purpose (population 2-5, a few seconds) so every property
    below stays a sub-second scenario run; ``channels`` forces the
    shared-air mode on/off, ``None`` lets the generator pick.
    """
    rng = random.Random(case_seed)
    if channels is None:
        channels = rng.random() < 0.5
    return ScenarioSpec(
        name=f"prop-mini-{case_seed}",
        description="generated property-test mini-spec",
        population=rng.randint(2, 5),
        duration=rng.choice((4.0, 5.0, 6.0)),
        mobility_mix=_mix(rng, MOBILITY_MODELS),
        traffic_mix=_mix(rng, TRAFFIC_KINDS),
        seeds=(1,),
        domains=rng.choice((1, 2)),
        pico_cells=rng.choice((0, 2)),
        macro_channel_bandwidth=2e6 if channels else None,
        stack=rng.choice(sorted(stack_names())),
        warmup=1.0,
        drain=1.0,
    )


def test_generator_is_deterministic_and_varied():
    """The family itself is stable (same seed, same spec) and actually
    exercises both channel modes and more than one stack."""
    for case_seed in CASE_SEEDS:
        assert random_mini_spec(case_seed) == random_mini_spec(case_seed)
    specs = [random_mini_spec(case_seed) for case_seed in CASE_SEEDS]
    assert len({spec.channels_enabled() for spec in specs}) == 2
    assert len({spec.stack for spec in specs}) > 1


@pytest.mark.parametrize("case_seed", CASE_SEEDS)
def test_generated_spec_repeat_same_seed_is_byte_identical(case_seed):
    spec = random_mini_spec(case_seed)
    first = run_scenario_spec(spec, seed=1)
    second = run_scenario_spec(spec, seed=1)
    assert first == second
    assert all(isinstance(value, float) for value in first.values())


@needs_fork
@pytest.mark.parametrize("case_seed", CASE_SEEDS[:3])
def test_generated_spec_serial_vs_pool_is_byte_identical(case_seed):
    spec = random_mini_spec(case_seed)
    seeds = [1, 2]
    cells = expand_grid([spec], seeds=seeds)
    (serial,) = run_grid(cells, backend=SerialBackend())
    (pooled,) = run_grid(cells, backend=ProcessPoolBackend(2))
    assert serial.samples == pooled.samples
    assert serial.metrics == pooled.metrics


@pytest.mark.parametrize("case_seed", CASE_SEEDS)
def test_fluid_population_zero_is_byte_identical_to_fluid_none(case_seed):
    """An empty background block must wire nothing: ``population=0``
    and ``fluid=None`` produce byte-identical metrics (and no
    ``fluid.*`` keys — legacy tables keep their shape)."""
    spec = random_mini_spec(case_seed, channels=True)
    legacy = run_scenario_spec(spec, seed=1)
    disabled = run_scenario_spec(
        spec.replace(fluid={"population": 0}), seed=1
    )
    assert legacy == disabled
    assert not any(key.startswith("fluid.") for key in legacy)


@pytest.mark.parametrize("stack", sorted(stack_names()))
def test_fluid_off_identity_holds_on_every_stack(stack):
    """The fluid-off contract per registered stack, explicitly — the
    randomized family above only samples stacks."""
    spec = random_mini_spec(CASE_SEEDS[0], channels=True).replace(
        name=f"prop-fluid-{stack}", stack=stack
    )
    legacy = run_scenario_spec(spec, seed=1)
    disabled = run_scenario_spec(spec.replace(fluid={"population": 0}), seed=1)
    assert legacy == disabled
    assert not any(key.startswith("fluid.") for key in legacy)
