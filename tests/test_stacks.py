"""Tests for the pluggable protocol-stack backends (`repro.stacks`).

Pins the stacks refactor's load-bearing guarantees:

* registry integrity and eager unknown-stack failure (spec validation,
  ``get_stack``, CLI ``--stack``);
* cross-stack determinism — per-stack repeat==repeat and
  serial==pool(2) byte-identity on a smoke scenario;
* the shared population plan: identical offered traffic across stacks
  at one seed;
* one-batch dispatch for ``--stack all`` comparisons, and regrouping
  equal to per-stack replication;
* the shared skeleton: every stack builds a ``BuiltRun`` with a
  decision trace, a throw-away fifth stack fits in 30 lines, and the
  one mobility controller runs a flat stack's two moves as documented;
* metric namespaces: ``cip.*`` / ``mip.*`` extras stay in their own
  stack, ``air_*`` keys appear only in contention mode, and the
  comparison table renders deterministically;
* Mobile IP uplink shared-channel contention (the ROADMAP nicety).
"""

import copy
import multiprocessing

import pytest

from repro.experiments.exec import ProcessPoolBackend, SerialBackend
from repro.scenarios import (
    compare_scenario_stacks,
    expand_grid,
    format_stack_comparison,
    get_scenario,
    run_grid,
    run_scenario_spec,
    scenario_names,
    sweep_curves,
)
from repro.stacks import registry as stack_registry
from repro.stacks import (
    COMMON_METRICS,
    DEFAULT_STACK,
    get_stack,
    iter_stacks,
    register_stack,
    stack_names,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="platform lacks fork")

BASELINES = ["cellularip", "cellularip-hard", "mobileip"]
ALL_STACKS = [DEFAULT_STACK] + BASELINES


def _smoke(name="campus-dense", stack=DEFAULT_STACK):
    return get_scenario(name).smoke().replace(stack=stack)


# ----------------------------------------------------------------------
# Registry + spec validation
# ----------------------------------------------------------------------
def test_four_stacks_registered_in_order():
    assert stack_names() == ALL_STACKS
    for adapter in iter_stacks():
        assert adapter.name and adapter.description


def test_get_stack_unknown_lists_registered_names():
    with pytest.raises(
        KeyError, match="multitier, cellularip, cellularip-hard, mobileip"
    ):
        get_stack("hawaii")


def test_register_stack_rejects_duplicates(monkeypatch):
    monkeypatch.setattr(stack_registry, "_REGISTRY", dict(stack_registry._REGISTRY))
    adapter = get_stack("cellularip")
    with pytest.raises(ValueError, match="already registered"):
        register_stack(adapter)
    fresh = copy.copy(adapter)
    fresh.name = "cellularip-copy"
    assert register_stack(fresh) is fresh
    assert get_stack("cellularip-copy") is fresh


def test_spec_validates_stack_field_eagerly():
    spec = get_scenario("sparse-rural")
    assert spec.stack == DEFAULT_STACK
    for stack in BASELINES:
        assert spec.replace(stack=stack).stack == stack
    with pytest.raises(ValueError, match="registered: multitier"):
        spec.replace(stack="hawaii")
    with pytest.raises(ValueError, match="non-empty"):
        spec.replace(stack="")


def test_smoke_and_derived_specs_preserve_stack():
    spec = _smoke(stack="mobileip")
    assert spec.smoke().stack == "mobileip"
    assert spec.replace(population=2 * spec.population).stack == "mobileip"


def test_every_registered_adapter_class_is_importable_from_repro_stacks():
    import repro.stacks

    for adapter in iter_stacks():
        name = type(adapter).__name__
        assert name in repro.stacks.__all__, name
        assert getattr(repro.stacks, name) is type(adapter)


# ----------------------------------------------------------------------
# The shared skeleton
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stack", ALL_STACKS)
def test_every_stack_builds_a_built_run_with_the_one_execute(stack):
    """A stack contributes data fields and counter hooks only: the run
    protocol (``execute``) and the metric assembly (``harvest``) are
    defined once, on :class:`BuiltRun`."""
    from repro.scenarios import build_scenario
    from repro.stacks import BuiltRun

    built = build_scenario(_smoke(stack=stack), seed=1)
    assert isinstance(built, BuiltRun)
    for method in ("execute", "harvest"):
        owners = [c for c in type(built).__mro__ if method in vars(c)]
        assert owners == [BuiltRun], (stack, method, owners)


@pytest.fixture
def collector_restored():
    """Put the collector back however a test in here leaves it."""
    import gc

    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_execute_suspends_collection_and_restores_what_it_found(
    enabled, collector_restored, monkeypatch
):
    """The world runs with the cyclic collector off; on return and on an
    exception the collector is as the caller had it."""
    import gc

    from repro.scenarios import build_scenario
    from repro.stacks import BuiltRun

    (gc.enable if enabled else gc.disable)()
    built = build_scenario(_smoke("sparse-rural"), seed=1)
    seen = []
    built.sim.call_later(0.5, lambda: seen.append(gc.isenabled()))
    built.execute()
    assert seen == [False]
    assert gc.isenabled() is enabled

    def broken_harvest(self):
        raise RuntimeError("harvest failed")

    monkeypatch.setattr(BuiltRun, "harvest", broken_harvest)
    with pytest.raises(RuntimeError, match="harvest failed"):
        build_scenario(_smoke("sparse-rural"), seed=1).execute()
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("stack", ALL_STACKS)
def test_a_run_leaves_almost_nothing_for_the_cyclic_collector(
    stack, collector_restored
):
    """What lets ``execute`` run with collection off: a running world
    frees what it drops by reference count.  Per-event reference cycles
    (a packet that points back at its sender's closure, a timer that
    holds its own handle) would pile up for the whole run instead — this
    smoke dispatches over 20,000 kernel entries on every stack, so one
    cycle per entry cannot hide under the bound.  The finished world is itself a cycle,
    so it is kept referenced while the garbage is counted."""
    import gc

    from repro.scenarios import build_scenario

    built = build_scenario(_smoke("commuter-corridor", stack=stack), seed=1)
    gc.collect()
    gc.disable()
    built.execute()
    assert built.sim.events_processed > 20_000
    unreachable = gc.collect()
    assert unreachable < 5_000, (stack, unreachable)


def test_no_retired_link_outlives_its_use(collector_restored):
    """A radio link torn down by a handoff (or built for one that was
    refused) is freed by reference count once its last in-flight packet
    lands: after a run with collection off, the live ``Link`` objects
    are exactly those some node still holds, plus any a queued delivery
    still names.  No registry, no self-cycle keeps the rest."""
    import gc

    from repro.net import Link, Node
    from repro.scenarios import build_scenario

    retired = {}
    for stack in ALL_STACKS:
        built = build_scenario(_smoke("commuter-corridor", stack=stack), seed=1)
        gc.collect()
        gc.disable()
        built.execute()
        objects = gc.get_objects()
        alive = {id(obj) for obj in objects if isinstance(obj, Link)}
        held = {
            id(link)
            for obj in objects
            if isinstance(obj, Node)
            for link in obj.links.values()
        }
        in_flight = {
            id(entry[4][0])
            for entry in built.sim._queue
            if entry[4] is not None and isinstance(entry[4][0], Link)
        }
        assert held, stack
        retired[stack] = len(alive - held - in_flight)
        assert held | in_flight <= alive
        del built, objects
        gc.enable()
    assert retired == dict.fromkeys(ALL_STACKS, 0)


def test_throwaway_fifth_stack_runs_on_the_shared_skeleton():
    """What a new flat stack costs: its core wiring, the node it places
    at each site, its mobile with its two moves, and a ``FlatRun``
    subclass with its extras hook.  This one places no access network
    at all (mobiles roam, nothing is delivered) yet emits every common
    metric through the skeleton."""
    import math
    from types import SimpleNamespace

    from repro.net.topology import Network
    from repro.policy import PolicyConfig
    from repro.sim.kernel import Simulator
    from repro.stacks import StackAdapter
    from repro.stacks.flat import FlatRun, flat_access, flat_run
    from repro.stacks.population import plan_population
    from repro.stacks.registry import _REGISTRY

    # --- the whole stack (<= 30 lines) --------------------------------
    class BuiltNullRun(FlatRun):
        def extras(self):
            return {"null.controllers": float(len(self.controllers))}

    class NullStack(StackAdapter):
        name = "null"
        description = "no access network: mobility only"
        metric_namespace = "null"

        def build(self, spec, seed):
            plan = plan_population(spec, seed, PolicyConfig())
            sim = Simulator()
            cn = Network(sim, prefix="10.0.0.0/8").host("cn")
            # The "node" at each site is the site; moving does nothing.
            access = flat_access(spec, plan, sim, lambda site, channel: site)

            def new_mobile(index):
                mobile = SimpleNamespace(
                    name=f"mn{index}", on_data=[], originate=lambda packet: None
                )
                return mobile, cn.address, lambda node: None, lambda old, new: None

            return flat_run(
                BuiltNullRun, spec, seed, plan, sim, cn,
                lambda packet: True, access, new_mobile,
            )
    # ------------------------------------------------------------------

    register_stack(NullStack())
    try:
        spec = _smoke("city-rush-hour", stack="null")
        metrics = run_scenario_spec(spec, seed=1)
    finally:
        del _REGISTRY["null"]
    assert stack_names() == ALL_STACKS
    for name in COMMON_METRICS:
        assert isinstance(metrics[name], float) and math.isfinite(metrics[name])
    assert metrics["sent"] > 0 and metrics["received"] == 0
    assert metrics["attached"] == spec.population
    assert metrics["null.controllers"] == spec.population


def test_flat_controller_runs_the_two_moves():
    """The move contract: ``attach(node)`` once, on the first covering
    sample; an instant ``handoff`` (returns ``None``) records latency
    0.0; a ``handoff`` that returns a generator records the simulated
    time it took; a sample with no covering cell does nothing."""
    from repro.mobility.controller import MobilityController
    from repro.policy import DecisionTrace
    from repro.radio.cells import Cell, Tier
    from repro.radio.geometry import Point
    from repro.radio.propagation import PropagationModel
    from repro.radio.signal import SignalMeter
    from repro.sim.kernel import Simulator
    from repro.stacks.flat import STRONGEST_SIGNAL

    class Node(str):
        """A node is anything with a ``name``; these compare as it."""

        @property
        def name(self):
            return str(self)

    a, b, nowhere = Point(0.0, 0.0), Point(2000.0, 0.0), Point(9000.0, 0.0)
    cells = [Cell("cell-a", a, Tier.MICRO), Cell("cell-b", b, Tier.MICRO)]

    class Scripted:
        """One scripted position per sample, then nowhere."""

        speed = 0.0

        def __init__(self, *positions):
            self.positions = iter(positions)

        def advance(self, dt):
            return next(self.positions, nowhere)

    sim = Simulator()
    attached, moves = [], []

    def slow():
        yield sim.timeout(0.25)

    def handoff(old, new):
        moves.append((sim.now, old, new))
        return slow() if new == "a" else None  # the way back takes time

    controller = MobilityController(
        sim, Scripted(nowhere, a, a, b, nowhere, a),
        [Node("a"), Node("b")], SignalMeter(PropagationModel(), cells),
        DecisionTrace(), STRONGEST_SIGNAL, attached.append, handoff,
        sample_period=1.0,
    )
    sim.run(until=1.5)  # t=1: nothing covers the mobile
    assert controller.serving is None and attached == []
    sim.run(until=3.5)  # t=2: attach to a; t=3: stay
    assert attached == ["a"] and moves == []
    sim.run(until=5.5)  # t=4: forced, instant move to b; t=5: nowhere
    assert moves == [(4.0, "a", "b")] and controller.serving == "b"
    assert controller.handoff_latencies == [0.0]
    sim.run(until=7.0)  # t=6: back to a, a move that takes 0.25 s
    assert attached == ["a"]
    assert moves[1:] == [(6.0, "b", "a")] and controller.serving == "a"
    assert controller.handoffs == 2
    assert controller.handoff_latencies == [0.0, 0.25]


@pytest.mark.parametrize("stack", ALL_STACKS)
@pytest.mark.parametrize("name", scenario_names())
def test_one_controller_per_mobile_and_policy_metrics_only_where_read(
    name, stack
):
    """Every stack's run keeps a decision trace; only the multi-tier
    stack, which decides with ``spec.policy``, reports ``policy.*`` —
    a flat stack does not, even under a non-default policy block; and a
    multi-tier controller's serving node is its mobile's at drain end."""
    from repro.policy import DecisionTrace, PolicyConfig
    from repro.scenarios import build_scenario

    spec = _smoke(name, stack)
    if stack != DEFAULT_STACK:
        spec = spec.replace(policy=PolicyConfig(mode="always-micro"))
    built = build_scenario(spec, seed=1)
    metrics = built.execute()
    assert isinstance(built.decision_trace, DecisionTrace)
    if stack == DEFAULT_STACK:
        assert len(built.controllers) == len(built.mobiles) == spec.population
        for controller, mobile in zip(built.controllers, built.mobiles):
            assert controller.serving is mobile.serving_bs
    else:
        assert not [key for key in metrics if key.startswith("policy.")]


# ----------------------------------------------------------------------
# Metric contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stack", ALL_STACKS)
def test_stack_emits_common_metrics_as_plain_floats(stack):
    metrics = run_scenario_spec(_smoke(stack=stack), seed=2)
    for name in COMMON_METRICS:
        assert name in metrics, f"{stack} lacks common metric {name}"
    for name, value in metrics.items():
        assert isinstance(value, float), f"{stack}:{name}"
        assert value == value, f"{stack}:{name} is NaN"
    assert metrics["population"] == float(_smoke().population)
    assert metrics["sent"] > 0


@pytest.mark.parametrize(
    "stack,prefix",
    [("cellularip", "cip."), ("cellularip-hard", "cip."), ("mobileip", "mip.")],
)
def test_baseline_extras_are_namespaced(stack, prefix):
    metrics = run_scenario_spec(_smoke(stack=stack), seed=1)
    namespaced = [name for name in metrics if name.startswith(prefix)]
    assert namespaced, f"{stack} emitted no {prefix}* extras"
    # No foreign namespace leaks into another stack's dict.
    other = "mip." if prefix == "cip." else "cip."
    assert not any(name.startswith(other) for name in metrics)


def test_air_metrics_only_in_contention_mode():
    for stack in BASELINES:
        legacy = run_scenario_spec(_smoke(stack=stack), seed=1)
        assert "air_busiest_downlink" not in legacy
        contended = run_scenario_spec(
            _smoke("campus-air", stack=stack), seed=1
        )
        assert contended["air_busiest_downlink"] > 0


def test_shared_population_plan_offers_identical_traffic():
    """The apples-to-apples core: same seed, same offered load, every
    stack (city-rush-hour has no elastic feedback loop)."""
    sent = {
        stack: run_scenario_spec(_smoke("city-rush-hour", stack=stack), 1)["sent"]
        for stack in ALL_STACKS
    }
    assert len(set(sent.values())) == 1, sent


@pytest.mark.parametrize("domains", [1, 2])
def test_flat_layout_macro_micro_geometry_matches_multitier(domains):
    """Every baseline cell site sits exactly on the multi-tier world's
    cell of the same name (center, radius, tier) — the cross-stack
    "same geometry" guarantee: both are built from the one site table
    in multitier/architecture.py."""
    from repro.multitier.architecture import MultiTierWorld
    from repro.stacks.flat import flat_cell_layout

    spec = get_scenario("sparse-rural").smoke().replace(domains=domains)
    world = MultiTierWorld(second_domain=domains == 2)
    world_cells = {bs.name: bs.cell for bs in world.all_radio_stations()}
    layout = {site.name: site for site in flat_cell_layout(spec)}
    # The flat layout mirrors every radio cell the multi-tier world has
    # (aggregation-only stations like R3 carry no cell and no site).
    assert set(layout) == set(world_cells)
    for name, site in layout.items():
        cell = world_cells[name]
        assert (site.center.x, site.center.y) == (
            cell.center.x, cell.center.y,
        ), name
        assert site.cell().radius == cell.radius, name
        assert site.tier == cell.tier, name


@pytest.mark.parametrize("scenario", ["campus-dense", "campus-air"])
def test_flat_layout_pico_geometry_matches_multitier(scenario):
    """The baselines' pico cells sit exactly where the multi-tier
    world's do — legacy fixed offsets and contention-mode population
    concentration points alike (shared ``pico_placements`` rule)."""
    from repro.scenarios import build_scenario
    from repro.stacks.flat import flat_cell_layout
    from repro.stacks.population import (
        assignments,
        roam_rectangle,
        start_positions,
    )
    from repro.sim.rng import RandomStreams

    spec = get_scenario(scenario).smoke()
    assert spec.pico_cells > 0
    built = build_scenario(spec, seed=1)
    world_centers = [
        built.world.domain1.stations[f"p{i}"].cell.center
        for i in range(spec.pico_cells)
    ]
    streams = RandomStreams(1)
    mobility, traffic, _ = assignments(spec, streams)
    starts = start_positions(spec, streams, roam_rectangle(spec))
    flat_centers = [
        site.center
        for site in flat_cell_layout(spec, starts, mobility, traffic)
        if site.name.startswith("p")
    ]
    assert [(c.x, c.y) for c in flat_centers] == [
        (c.x, c.y) for c in world_centers
    ]


def test_every_stack_builds_its_wired_access_links_at_the_spec_backhaul():
    """campus-dense's defining 2.5 Mbit/s choke applies to every wired
    link a stack builds from the spec, so choked comparisons are
    apples-to-apples: the multi-tier and Cellular IP access trees, and
    Mobile IP's FA-to-core links."""
    from repro.scenarios import build_scenario

    for stack in ALL_STACKS:
        spec = _smoke("campus-dense", stack=stack)
        assert spec.wired_bandwidth == 2.5e6
        built = build_scenario(spec, seed=1)
        if stack == "mobileip":
            core = built.network["internet"]
            pairs = [(agent, core) for agent in built.agents]
        else:
            if stack == DEFAULT_STACK:
                stations = [
                    station
                    for handle in (built.world.domain1, built.world.domain2)
                    if handle is not None
                    for station in handle.stations.values()
                ]
            else:
                stations = built.domain.base_stations
            pairs = [
                (station, station.parent)
                for station in stations
                if station.parent is not None
            ]
        assert len(pairs) >= 4, stack
        for a, b in pairs:
            assert a.link_to(b).bandwidth == 2.5e6, (stack, a.name)
            assert b.link_to(a).bandwidth == 2.5e6, (stack, a.name)


# ----------------------------------------------------------------------
# Cross-stack determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stack", BASELINES)
def test_stack_repeat_same_seed_is_byte_identical(stack):
    spec = _smoke(stack=stack)
    assert run_scenario_spec(spec, seed=1) == run_scenario_spec(spec, seed=1)


@needs_fork
@pytest.mark.parametrize("stack", BASELINES)
def test_stack_serial_vs_pool_is_byte_identical(stack):
    spec = _smoke(stack=stack)
    seeds = [1, 2]
    cells = expand_grid([spec], seeds=seeds)
    (serial,) = run_grid(cells, backend=SerialBackend())
    (pooled,) = run_grid(cells, backend=ProcessPoolBackend(2))
    assert serial.samples == pooled.samples
    assert serial.metrics == pooled.metrics


# ----------------------------------------------------------------------
# Cross-stack comparison batching
# ----------------------------------------------------------------------
class _CountingBackend(SerialBackend):
    """Serial backend that counts ``run`` batches."""

    def __init__(self):
        super().__init__()
        self.batches = 0
        self.jobs_seen = 0

    def run(self, jobs):
        self.batches += 1
        jobs = list(jobs)
        self.jobs_seen += len(jobs)
        return super().run(jobs)


def test_compare_dispatches_one_backend_batch():
    backend = _CountingBackend()
    specs = [_smoke("sparse-rural"), _smoke("city-rush-hour")]
    comparisons = compare_scenario_stacks(specs, backend=backend)
    assert backend.batches == 1
    # Whole (scenario, stack, seed) grid in that one batch.
    expected = sum(len(spec.seeds) for spec in specs) * len(ALL_STACKS)
    assert backend.jobs_seen == expected
    assert [c.spec.name for c in comparisons] == [s.name for s in specs]

    # Same contract for a plain grid run: one batch, job count = grid
    # size.
    backend = _CountingBackend()
    run_grid(expand_grid(specs), backend=backend)
    assert (backend.batches, backend.jobs_seen) == (
        1, sum(len(spec.seeds) for spec in specs)
    )


def test_sweep_curves_regroup_one_batch_per_sweep_and_stack():
    sweeps = ["sparse-rural/population", "campus-dense/backhaul"]
    stacks = ["multitier", "mobileip"]
    backend = _CountingBackend()
    cells = expand_grid(sweeps=sweeps, stacks=stacks, smoke=True)
    curves = sweep_curves(cells, run_grid(cells, backend=backend))
    assert backend.batches == 1
    # 2 sweeps x 2 stacks x 2 smoke points x 1 smoke seed.
    assert backend.jobs_seen == 8
    # Sweep-major, stack fastest.
    assert [(sweep.name, base.stack) for sweep, base, _seeds, _result in curves] == [
        (name, stack) for name in sweeps for stack in stacks
    ]
    # Each curve equals its (sweep, stack) run alone.
    for sweep, base, seeds, result in curves:
        alone = expand_grid(
            sweeps=[sweep.name], stacks=[base.stack], smoke=True
        )
        ((sweep1, base1, seeds1, result1),) = sweep_curves(
            alone, run_grid(alone, backend=SerialBackend())
        )
        assert (sweep1, base1, seeds1) == (sweep, base, seeds)
        assert result1.title == result.title
        assert result1.series == result.series
        assert result1.text == result.text
        assert [r.samples for r in result1.replications] == [
            r.samples for r in result.replications
        ]


def test_compare_matches_per_stack_replication():
    spec = _smoke("sparse-rural")
    (comparison,) = compare_scenario_stacks([spec], backend=SerialBackend())
    assert comparison.stacks == ALL_STACKS
    for stack in ALL_STACKS:
        (single,) = run_grid(
            expand_grid([spec.replace(stack=stack)]), backend=SerialBackend()
        )
        assert comparison.replications[stack].samples == single.samples
        assert comparison.replications[stack].metrics == single.metrics


def test_compare_rejects_unknown_stack_eagerly():
    backend = _CountingBackend()
    with pytest.raises(KeyError, match="registered"):
        compare_scenario_stacks(
            [_smoke()], stacks=["multitier", "hawaii"], backend=backend
        )
    assert backend.batches == 0  # failed before any simulation ran


def test_format_stack_comparison_is_deterministic_and_complete():
    spec = _smoke("city-rush-hour")
    render = [
        format_stack_comparison(
            compare_scenario_stacks([spec], backend=SerialBackend())[0]
        )
        for _ in range(2)
    ]
    assert render[0] == render[1]
    text = render[0]
    for stack in ALL_STACKS:
        assert stack in text
    for metric in ("loss_rate", "mean_delay", "handoffs"):
        assert metric in text
    assert "cip.route_updates" in text and "mip.tunneled" in text


_FLOW_KEYS = [
    "population", "flows", "sent", "received", "loss_rate", "mean_delay",
    "jitter", "max_gap",
]
_GATED_KEYS = [
    "air_busiest_downlink", "air_detach_drops",
    "fluid.background_population", "fluid.updates", "fluid.peak_cell_load",
    "fluid.mean_blocking", "fluid.handoff_rate",
]
_BASELINE_KEYS = _FLOW_KEYS + [
    "elastic_goodput_bps", "handoffs", "handoff_latency", "attached",
    "hop_total",
]
_CIP_KEYS = _BASELINE_KEYS + [
    "cip.route_updates", "cip.paging_updates", "cip.duplicates",
    "cip.control_packets", "cip.downlink_drops", "cip.paging_broadcasts",
]
METRIC_KEY_ORDER = {
    # Grandfathered: the multitier extras sit inside the common block.
    "multitier": _FLOW_KEYS + [
        "handoffs", "handoff_latency", "blocked_attaches", "attached",
        "via_binding_fraction", "elastic_goodput_bps", "hop_total",
    ],
    "cellularip": _CIP_KEYS,
    "cellularip-hard": _CIP_KEYS,
    "mobileip": _BASELINE_KEYS + [
        "mip.registration_attempts", "mip.registrations_accepted",
        "mip.registrations_denied", "mip.tunneled", "mip.dropped_no_binding",
        "mip.dropped_unknown_visitor",
    ],
}


@pytest.mark.parametrize("stack", ALL_STACKS)
def test_metric_key_order_is_pinned_per_stack(stack):
    """Single-stack tables render in dict insertion order, so the key
    order of every stack's metric dict is part of the byte-identity
    contract (the ``--stack all`` table sorts extras and cannot see it).
    metro-100k runs contention and fluid, so the gated tail is covered."""
    metrics = run_scenario_spec(_smoke("metro-100k", stack=stack), seed=1)
    assert list(metrics) == METRIC_KEY_ORDER[stack] + _GATED_KEYS


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_rejects_unknown_stack_eagerly(capsys):
    from repro.cli import main

    assert main(["scenario", "run", "sparse-rural", "--stack", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown stack" in err
    for stack in ALL_STACKS:
        assert stack in err
    assert main(["scenario", "sweep", "sparse-rural/population",
                 "--stack", "nope"]) == 2
    assert "unknown stack" in capsys.readouterr().err


def test_cli_stack_multitier_matches_default_output(capsys):
    from repro.cli import main

    argv = ["scenario", "run", "sparse-rural", "--smoke"]
    assert main(argv) == 0
    default_out = capsys.readouterr().out
    assert main(argv + ["--stack", "multitier"]) == 0
    explicit_out = capsys.readouterr().out
    strip = lambda text: [
        line for line in text.splitlines() if not line.startswith("[")
    ]
    assert strip(default_out) == strip(explicit_out)


def test_cli_stack_all_writes_comparison_table(capsys, tmp_path):
    from repro.cli import main

    argv = [
        "scenario", "run", "sparse-rural", "--smoke",
        "--stack", "all", "-o", str(tmp_path),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "stack comparison" in out
    written = tmp_path / "scenario_sparse-rural_stacks.txt"
    assert written.exists()
    assert written.read_text().strip() in out


def test_cli_stack_all_traces_decisions_once_per_stack(capsys):
    from repro.cli import main

    argv = [
        "scenario", "run", "campus-dense", "--smoke",
        "--stack", "all", "--trace-decisions",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "ignored" not in out
    assert out.count("decision trace: ") == len(ALL_STACKS)
    for stack in ALL_STACKS:
        assert f"decision trace: campus-dense ({stack}) seed 1:" in out


def test_cli_single_baseline_stack_names_stack_in_title(capsys, tmp_path):
    from repro.cli import main

    argv = [
        "scenario", "run", "sparse-rural", "--smoke",
        "--stack", "cellularip", "-o", str(tmp_path),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "[stack=cellularip]" in out
    assert (tmp_path / "scenario_sparse-rural--cellularip.txt").exists()


def test_cli_describe_lists_stacks(capsys):
    from repro.cli import main

    assert main(["scenario", "describe", "campus-dense"]) == 0
    out = capsys.readouterr().out
    assert "stacks (select with --stack <name|all>)" in out
    for stack in ALL_STACKS:
        assert stack in out
    assert "exercises:" in out


def test_cli_sweep_stack_all_runs_every_stack(capsys):
    from repro.cli import main

    argv = [
        "scenario", "sweep", "sparse-rural/population", "--smoke",
        "--stack", "all",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "[stack=cellularip]" in out and "[stack=mobileip]" in out
    assert "[stack=cellularip-hard]" in out
    assert "[4 sweeps completed" in out.splitlines()[-1] or "4 sweeps" in out


# ----------------------------------------------------------------------
# Mobile IP uplink shared-channel contention (ROADMAP nicety)
# ----------------------------------------------------------------------
def test_foreign_agent_uplink_contends_on_shared_channel():
    from repro.mobileip import ForeignAgent, MobileIPNode
    from repro.net.packet import Packet
    from repro.radio.channel import DOWNLINK, UPLINK, SharedChannel
    from repro.sim.kernel import Simulator

    sim = Simulator()
    channel = SharedChannel(sim, "air-fa", 384e3, 192e3)
    agent = ForeignAgent(
        sim, "fa", "10.0.0.1", shared_channel=channel
    )
    mobile = MobileIPNode(
        sim, "mn", home_address="10.99.0.5", home_agent_address="10.0.0.9"
    )
    mobile.airtime_key = 0
    agent.attach_mobile(mobile)
    assert 0 in channel.attached

    # Uplink data from the mobile serializes through the uplink budget.
    mobile.send_via(agent, Packet(
        src=mobile.address, dst="10.0.0.1", size=500,
        protocol="data", created_at=sim.now,
    ))
    sim.run(until=0.1)
    assert channel.stats.submitted[UPLINK] >= 1
    assert channel.stats.granted[UPLINK] >= 1
    # The attach-time advertisement rode the downlink budget.
    assert channel.stats.granted[DOWNLINK] >= 1

    # Detach cancels the claim (and any queued airtime).
    agent.detach_mobile(mobile)
    assert 0 not in channel.attached


def test_mobileip_stack_registration_uplink_counts_airtime():
    """End-to-end: a contention-mode Mobile IP scenario pushes its
    registration requests through the shared uplink queues."""
    from repro.radio.channel import UPLINK
    from repro.scenarios import build_scenario

    spec = _smoke("campus-air", stack="mobileip")
    built = build_scenario(spec, seed=1)
    metrics = built.execute()
    assert metrics["mip.registrations_accepted"] > 0
    uplink_submitted = sum(
        agent.shared_channel.stats.submitted[UPLINK]
        for agent in built.agents
        if agent.shared_channel is not None
    )
    assert uplink_submitted > 0
    assert "air_busiest_downlink" in metrics
