"""Tests for the scenario catalog subsystem (`repro.scenarios`).

The load-bearing guarantee: every registered scenario is byte-identical
for serial vs ``--jobs N`` execution and across repeated runs with the
same seed.  Determinism tests run the catalog's ``smoke()`` variants —
the same code path with a small population and short duration.
"""

import dataclasses
import multiprocessing

import pytest

from repro.experiments.exec import ProcessPoolBackend, SerialBackend
from repro.fluid import FluidBackground
from repro.mobility import (
    GaussMarkov,
    Highway,
    ManhattanGrid,
    RandomDirection,
    RandomWaypoint,
    Stationary,
)
from repro.policy import PolicyConfig
from repro.scenarios import (
    MOBILITY_MODELS,
    TRAFFIC_KINDS,
    ScenarioSpec,
    apportion,
    build_scenario,
    describe_scenario,
    expand_grid,
    get_scenario,
    iter_scenarios,
    register,
    run_grid,
    run_scenario_spec,
    scenario_names,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="platform lacks fork")

_MODEL_CLASSES = {
    "stationary": Stationary,
    "waypoint": RandomWaypoint,
    "manhattan": ManhattanGrid,
    "highway": Highway,
    "gauss-markov": GaussMarkov,
    "random-direction": RandomDirection,
}


def _tiny_spec(**overrides) -> ScenarioSpec:
    fields = dict(
        name="tiny",
        description="test spec",
        population=4,
        duration=4.0,
        mobility_mix={"waypoint": 0.5, "highway": 0.5},
        traffic_mix={"cbr-voice": 0.5, "idle": 0.5},
        seeds=(1,),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


# ----------------------------------------------------------------------
# Spec validation and apportionment
# ----------------------------------------------------------------------
def test_spec_rejects_bad_mix_sum():
    with pytest.raises(ValueError, match="sum to 1"):
        _tiny_spec(mobility_mix={"waypoint": 0.5, "highway": 0.4})


def test_spec_rejects_unknown_mobility_model():
    with pytest.raises(ValueError, match="unknown"):
        _tiny_spec(mobility_mix={"teleport": 1.0})


def test_spec_rejects_unknown_traffic_kind():
    with pytest.raises(ValueError, match="unknown"):
        _tiny_spec(traffic_mix={"quic": 1.0})


def test_spec_rejects_bad_shape_fields():
    with pytest.raises(ValueError):
        _tiny_spec(population=0)
    with pytest.raises(ValueError):
        _tiny_spec(domains=3)
    with pytest.raises(ValueError):
        _tiny_spec(roam=(0.0, 0.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        _tiny_spec(seeds=())
    with pytest.raises(ValueError):
        _tiny_spec(hotspot_fraction=1.5)


@pytest.mark.parametrize(
    "field",
    [
        "duration", "sample_period", "warmup", "drain",
        "macro_channel_bandwidth", "pico_channel_bandwidth",
    ],
)
def test_spec_rejects_nan_timing_and_bandwidth_fields(field):
    """nan passes an ``x <= 0`` / ``x < 0`` guard; the spec must refuse
    it at construction, naming the field, in one line."""
    with pytest.raises(ValueError, match=field) as error:
        dataclasses.replace(_tiny_spec(), **{field: float("nan")})
    assert "\n" not in str(error.value)


_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "field, value",
    [
        ("duration", _INF),
        ("warmup", _INF),
        ("drain", _INF),
        ("sample_period", _INF),
        ("macro_channel_bandwidth", _INF),
        ("pico_channel_bandwidth", _INF),
        ("roam", (_NAN, 0.0, 1.0, 1.0)),
        ("roam", (0.0, 0.0, _INF, 1.0)),
        ("population", 5.5),
        ("pico_cells", 1.5),
        ("hotspot_flows", 1.5),
        ("domains", 1.0),
        ("seeds", (1.7,)),
        ("fluid.population", 10.7),
        ("fluid.mean_speed", _NAN),
        ("fluid.per_mobile_bps", _NAN),
        ("fluid.update_period", _NAN),
        ("fluid.update_period", _INF),
        ("fluid.drift", (_NAN, 0.0)),
    ],
)
def test_spec_rejects_non_finite_and_non_integral_values(field, value):
    """Each of these used to pass construction and then hang, crash
    mid-build or run something else; the spec (or its fluid block)
    must refuse it up front, naming the field, in one line."""
    if field.startswith("fluid."):
        key = field.removeprefix("fluid.")
        base = get_scenario("campus-air")
        changes = {"fluid": {"population": 10, key: value}}
    else:
        key, base, changes = field, _tiny_spec(), {field: value}
    with pytest.raises(ValueError, match=key) as error:
        dataclasses.replace(base, **changes)
    assert "\n" not in str(error.value)


@pytest.mark.parametrize(
    "block, key, kind",
    [("policy", "weighted_airtime", PolicyConfig), ("fluid", "bogus", FluidBackground)],
)
def test_spec_rejects_an_unknown_block_key(block, key, kind):
    """An unknown ``policy`` / ``fluid`` key fails in one line naming
    the spec, the key and the keys the block knows (was: a dataclass
    ``TypeError`` about an unexpected keyword argument)."""
    with pytest.raises(ValueError) as error:
        get_scenario("campus-dense").replace(**{block: {key: True}})
    known = ", ".join(field.name for field in dataclasses.fields(kind))
    assert str(error.value) == (
        f"campus-dense: {block} has unknown key {key!r}; known: {known}"
    )


def test_spec_accepts_numpy_integers_as_ints():
    import numpy as np

    spec = _tiny_spec(population=np.int64(4), seeds=(np.int64(3),))
    assert type(spec.population) is int and spec.population == 4
    assert spec.seeds == (3,) and type(spec.seeds[0]) is int


def test_apportion_is_exact_and_deterministic():
    mix = {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}
    # 'a' wins the largest-remainder tie by insertion order.
    assert apportion(mix, 10) == {"a": 4, "b": 3, "c": 3}
    assert apportion(mix, 10) == apportion(dict(mix), 10)
    for count in (1, 5, 17, 120):
        assert sum(apportion(mix, count).values()) == count


def test_apportion_drops_zero_allocations():
    assert apportion({"a": 0.9, "b": 0.1}, 2) == {"a": 2}


def test_spec_counts_cover_population():
    for spec in iter_scenarios():
        assert sum(spec.mobility_counts().values()) == spec.population
        assert sum(spec.traffic_counts().values()) == spec.population


def test_smoke_and_scaled_variants():
    spec = get_scenario("mega")
    smoke = spec.smoke()
    assert smoke.population <= 6 and smoke.duration <= 8.0
    assert smoke.mobility_mix == spec.mobility_mix
    assert spec.scaled(2.0).population == 2 * spec.population
    assert spec.scaled(0.001).population == 1  # never below one mobile


# ----------------------------------------------------------------------
# Registry integrity
# ----------------------------------------------------------------------
def test_catalog_ships_at_least_six_scenarios():
    names = scenario_names()
    assert len(names) >= 6
    assert len(set(names)) == len(names)


def test_catalog_spans_new_ground():
    specs = iter_scenarios()
    # Inter-domain handoff under load: something no experiment covers.
    assert any(
        spec.domains == 2 and "elastic-data" in spec.traffic_mix
        for spec in specs
    )
    assert any(spec.hotspot_fraction > 0 for spec in specs)  # flash crowd
    assert any(spec.pico_cells > 0 for spec in specs)
    # The scale-stress scenario dwarfs the paper-scale ones.
    populations = sorted(spec.population for spec in specs)
    assert populations[-1] >= 5 * populations[-2]
    # Together the catalog exercises every model and traffic kind.
    assert {m for s in specs for m in s.mobility_mix} == set(MOBILITY_MODELS)
    assert {t for s in specs for t in s.traffic_mix} == set(TRAFFIC_KINDS)


def test_register_rejects_duplicate_names():
    spec = get_scenario("sparse-rural")
    with pytest.raises(ValueError, match="already registered"):
        register(spec)
    register(spec, replace=True)  # idempotent with replace


def test_get_scenario_unknown_name():
    with pytest.raises(KeyError, match="unknown scenario"):
        get_scenario("no-such-scenario")


def test_describe_mentions_mixes():
    text = describe_scenario("commuter-corridor")
    assert "highway" in text and "elastic-data" in text
    assert "domains          2" in text


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------
def test_build_scenario_populates_world():
    spec = get_scenario("campus-dense").smoke()
    built = build_scenario(spec, seed=3)
    assert len(built.mobiles) == spec.population
    assert len(built.controllers) == spec.population
    assert len(built.flow_plans) == spec.total_flows()
    # Pico cells were attached under the micro leaves.
    assert built.world.domain1.stations["p0"].cell is not None
    assert built.world.domain1.stations["p1"].cell is not None
    # The apportioned mobility mix is what actually got instantiated.
    expected = spec.mobility_counts()
    actual: dict[str, int] = {}
    for controller in built.controllers:
        for name, cls in _MODEL_CLASSES.items():
            if type(controller.model) is cls:
                actual[name] = actual.get(name, 0) + 1
    assert actual == expected


def test_build_scenario_second_domain_and_hotspots():
    spec = get_scenario("commuter-corridor").smoke()
    assert build_scenario(spec, seed=1).world.domain2 is not None
    crowd = get_scenario("flash-crowd").smoke()
    built = build_scenario(crowd, seed=1)
    assert len(built.population.hotspot_indices) == crowd.hotspot_count() > 0
    hot_flows = [
        plan for plan in built.flow_plans if ".hot" in plan.flow_id
    ]
    assert len(hot_flows) == crowd.hotspot_count() * crowd.hotspot_flows


def test_run_scenario_spec_leaves_no_finished_world_behind(monkeypatch):
    """The job collects its world: a serial batch's memory must not grow
    with the number of runs it has made."""
    import gc
    import weakref

    from repro.sim import Simulator

    simulators = []
    original = Simulator.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        simulators.append(weakref.ref(self))

    monkeypatch.setattr(Simulator, "__init__", recording_init)
    gc.disable()  # whatever dies below, the job's own collect freed it
    try:
        run_scenario_spec(_tiny_spec(), seed=2)
        assert simulators and all(ref() is None for ref in simulators)
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "stack,key", [("multitier", "record_lifetime"), ("cellularip", "route_timeout")]
)
def test_nan_soft_state_lifetime_override_fails_the_build_in_one_line(stack, key):
    """nan passes an ``x <= 0`` test: records that never expire, or a
    routing cache with no live entry, would still finish a run with a
    plausible table."""
    spec = get_scenario("campus-dense").smoke().replace(
        stack=stack, domain_overrides={key: float("nan")}
    )
    with pytest.raises(ValueError, match="must be positive, got nan") as error:
        build_scenario(spec, seed=1)
    assert "\n" not in str(error.value)


def test_run_scenario_metrics_are_plain_finite_floats():
    metrics = run_scenario_spec(_tiny_spec(), seed=2)
    for name, value in metrics.items():
        assert isinstance(value, float), name
        assert value == value, f"{name} is NaN"  # NaN breaks byte-identity
    assert metrics["population"] == 4.0
    assert metrics["sent"] > 0
    assert metrics["attached"] > 0


# ----------------------------------------------------------------------
# Determinism: the catalog's core guarantee
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", [spec.name for spec in iter_scenarios()])
def test_scenario_repeat_same_seed_is_byte_identical(name):
    spec = get_scenario(name).smoke()
    assert run_scenario_spec(spec, seed=1) == run_scenario_spec(spec, seed=1)


@needs_fork
@pytest.mark.parametrize("name", [spec.name for spec in iter_scenarios()])
def test_scenario_serial_vs_pool_is_byte_identical(name):
    spec = get_scenario(name).smoke()
    seeds = [1, 2]
    cells = expand_grid([spec], seeds=seeds)
    (serial,) = run_grid(cells, backend=SerialBackend())
    (pooled,) = run_grid(cells, backend=ProcessPoolBackend(2))
    assert serial.samples == pooled.samples
    assert serial.metrics == pooled.metrics


def test_replicate_scenarios_batch_matches_per_scenario():
    """One flat (scenario, seed) batch == per-scenario replication."""
    names = ["sparse-rural", "flash-crowd"]
    specs = [get_scenario(name).smoke() for name in names]
    cells = expand_grid(specs)
    batch = run_grid(cells, backend=SerialBackend())
    assert [cell.spec.name for cell in cells] == names
    for cell, replication in zip(cells, batch):
        assert list(cell.seeds) == list(cell.spec.seeds)
        (single,) = run_grid(expand_grid([cell.spec]), backend=SerialBackend())
        assert replication.samples == single.samples
        assert replication.metrics == single.metrics


def test_expand_grid_rejects_an_empty_seed_list():
    # An empty list would expand to seedless cells, each aggregating
    # to a metric-less Replication (a table with no rows).
    with pytest.raises(ValueError, match="seeds"):
        expand_grid(["sparse-rural"], seeds=[])
    with pytest.raises(ValueError, match="seeds"):
        expand_grid(sweeps=["sparse-rural/population"], seeds=[])


def test_different_seeds_differ():

    spec = get_scenario("city-rush-hour").smoke()
    assert run_scenario_spec(spec, seed=1) != run_scenario_spec(spec, seed=2)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_scenario_list(capsys):
    from repro.cli import main

    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out


def test_cli_scenario_describe(capsys):
    from repro.cli import main

    assert main(["scenario", "describe", "mega"]) == 0
    assert "mobility mix" in capsys.readouterr().out
    assert main(["scenario", "describe", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_scenario_run_rejects_unknown_and_bad_jobs(capsys):
    from repro.cli import main

    assert main(["scenario", "run", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err
    assert main(["scenario", "run", "sparse-rural", "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err


@needs_fork
def test_cli_scenario_run_jobs_flag_matches_serial_output(capsys, tmp_path):
    from repro.cli import main

    argv = ["scenario", "run", "sparse-rural", "--smoke", "--seeds", "1", "2"]
    assert main(argv) == 0
    serial_out = capsys.readouterr().out
    assert main(argv + ["--jobs", "2", "-o", str(tmp_path)]) == 0
    pooled_out = capsys.readouterr().out
    # Strip the wall-clock line; everything else must match exactly.
    strip = lambda text: [
        line for line in text.splitlines() if not line.startswith("[")
    ]
    assert strip(serial_out) == strip(pooled_out)
    written = tmp_path / "scenario_sparse-rural.txt"
    assert written.exists()
    assert written.read_text().strip() in pooled_out
