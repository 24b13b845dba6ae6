"""Validate the simulator against closed-form teletraffic/mobility
models: Erlang-B blocking, guard-channel blocking, and fluid-flow
handoff rates."""

import math

import numpy as np
import pytest

from repro.analysis import (
    circular_cell_crossing_rate,
    erlang_b,
    erlang_c,
    guard_channel_blocking,
    handoff_rate_linear_cells,
    location_update_cost,
    mean_cell_dwell_time,
)
from repro.multitier.basestation import GuardedChannelPool
from repro.sim import RandomStreams, Simulator


# ----------------------------------------------------------------------
# Formula sanity
# ----------------------------------------------------------------------
def test_erlang_b_known_values():
    # Classic table values.
    assert erlang_b(1, 1.0) == pytest.approx(0.5)
    assert erlang_b(2, 1.0) == pytest.approx(0.2)
    assert erlang_b(10, 5.0) == pytest.approx(0.0184, abs=2e-4)


def test_erlang_b_monotonic_in_load_and_servers():
    assert erlang_b(5, 4.0) > erlang_b(5, 2.0)
    assert erlang_b(10, 4.0) < erlang_b(5, 4.0)


def test_erlang_b_edge_cases():
    assert erlang_b(5, 0.0) == 0.0
    assert erlang_b(0, 3.0) == 1.0
    with pytest.raises(ValueError):
        erlang_b(-1, 1.0)
    with pytest.raises(ValueError):
        erlang_b(5, -1.0)


def test_erlang_c_exceeds_erlang_b():
    # Queueing probability >= clearing probability at equal load.
    assert erlang_c(5, 3.0) > erlang_b(5, 3.0)
    assert erlang_c(4, 4.5) == 1.0


def test_guard_channel_blocking_tradeoff():
    p_new_0, p_ho_0 = guard_channel_blocking(10, 0, 4.0, 2.0)
    p_new_2, p_ho_2 = guard_channel_blocking(10, 2, 4.0, 2.0)
    # Guard channels raise new-call blocking but cut handoff dropping.
    assert p_new_2 > p_new_0
    assert p_ho_2 < p_ho_0
    # With no guard, both classes see the same (Erlang-B) blocking.
    assert p_new_0 == pytest.approx(p_ho_0)
    assert p_new_0 == pytest.approx(erlang_b(10, 6.0), rel=1e-9)


def test_fluid_flow_formulas():
    # Circular cell: rate = 2 v / (pi r).
    assert circular_cell_crossing_rate(10.0, 400.0) == pytest.approx(
        2 * 10 / (math.pi * 400)
    )
    assert mean_cell_dwell_time(10.0, 400.0) == pytest.approx(
        math.pi * 400 / 20.0
    )
    assert handoff_rate_linear_cells(25.0, 700.0) == pytest.approx(25 / 700)
    assert location_update_cost(0.5, 4, 44) == pytest.approx(88.0)
    with pytest.raises(ValueError):
        circular_cell_crossing_rate(10.0, 0.0)


# ----------------------------------------------------------------------
# Simulation vs analysis
# ----------------------------------------------------------------------
def simulate_loss_system(servers, arrival_rate, mean_holding, duration, seed):
    """M/M/c/c loss system on the base stations' channel pool."""
    sim = Simulator()
    pool = GuardedChannelPool(capacity=servers, guard=0)
    streams = RandomStreams(seed)
    counts = {"offered": 0, "blocked": 0}

    def release_later(request, holding):
        def proc():
            yield sim.timeout(holding)
            pool.release(request)

        sim.process(proc())

    def arrivals():
        while True:
            yield sim.timeout(streams.exponential("gap", 1.0 / arrival_rate))
            counts["offered"] += 1
            request = pool.admit_new_call()
            if request is None:
                counts["blocked"] += 1
            else:
                release_later(request, streams.exponential("hold", mean_holding))

    sim.process(arrivals())
    sim.run(until=duration)
    return counts["blocked"] / max(counts["offered"], 1)


@pytest.mark.parametrize(
    "servers,load",
    [(4, 3.0), (8, 6.0), (2, 1.0)],
)
def test_simulated_blocking_matches_erlang_b(servers, load):
    analytic = erlang_b(servers, load)
    simulated = np.mean(
        [
            simulate_loss_system(
                servers,
                arrival_rate=load,
                mean_holding=1.0,
                duration=3000.0,
                seed=seed,
            )
            for seed in (1, 2, 3)
        ]
    )
    assert simulated == pytest.approx(analytic, rel=0.15)


def test_simulated_highway_handoff_rate_matches_fluid_flow():
    """A 25 m/s vehicle crossing 700 m-spaced micro cells must hand off
    at about v/d per second."""
    from repro.mobility import Highway
    from repro.multitier.architecture import WORLD_BOUNDS, MultiTierWorld
    from repro.policy import TierDecider
    from repro.radio.geometry import Point

    world = MultiTierWorld()
    mn = world.add_mobile("veh")
    model = Highway(Point(-2700, 0), WORLD_BOUNDS, None, speed=25.0, wrap=False)
    controller = world.add_controller(
        mn, model, policy=TierDecider(mode="always-micro"), sample_period=0.25
    )
    # Drive across B -> A -> C: 1400 m of contiguous micro coverage.
    duration = 1400 / 25.0
    world.sim.run(until=duration)
    expected = handoff_rate_linear_cells(25.0, 700.0) * duration  # = 2
    assert controller.handoffs == pytest.approx(expected, abs=1)


def test_simulated_dwell_time_matches_fluid_flow():
    """Straight-line mobiles starting uniformly inside a circular cell
    exit after ~ 8r/(3 pi v) on average (mean interior exit chord)."""
    from repro.analysis import mean_residual_dwell_time
    from repro.mobility import RandomDirection
    from repro.radio.cells import Cell, Tier
    from repro.radio.geometry import Point, Rectangle

    rng = np.random.default_rng(5)
    radius, speed = 400.0, 10.0
    cell = Cell("c", Point(0, 0), Tier.MICRO, radius=radius)
    bounds = Rectangle(-2000, -2000, 2000, 2000)
    dwell_times = []
    for _ in range(300):
        # Uniform point in the disc (sqrt law for the radial draw).
        rho = float(np.sqrt(rng.random())) * radius
        phi = float(rng.random()) * 2.0 * np.pi
        start = Point(rho * np.cos(phi), rho * np.sin(phi))
        model = RandomDirection(
            start, bounds, rng, speed=speed, redirect_mean_interval=1e9
        )
        elapsed = 0.0
        while cell.covers(model.position) and elapsed < 1000.0:
            model.advance(0.25)
            elapsed += 0.25
        dwell_times.append(elapsed)
    expected = mean_residual_dwell_time(speed, radius)
    assert np.mean(dwell_times) == pytest.approx(expected, rel=0.10)


def _locate(node, mobile):
    """Follow the cell tables' ``(mn, via)`` pointers down from ``node``
    (§3.1): ``(serving station or None, tables probed)``."""
    probes = 0
    for _hop in range(16):  # a trail longer than any tree is corrupt
        record, cost = node.tables.lookup(mobile)
        probes += cost
        if record is None:
            return None, probes
        if record.via is None:
            return node, probes
        node = record.via
    raise AssertionError("pointer trail does not end")


def test_locate_walks_pointer_chain():
    from repro.multitier.architecture import MultiTierWorld

    world = MultiTierWorld()
    d1 = world.domain1
    mn = world.add_mobile("mn")
    assert mn.initial_attach(d1["B"]) is None
    world.sim.run(until=1.0)

    serving, probes = _locate(d1.rsmc, mn.home_address)
    assert serving is d1["B"]
    # RSMC -> R3 -> R1 -> A -> B: five lookups, micro_table hits cost 1.
    assert 5 <= probes <= 10


def test_locate_cold_trail_returns_none():
    from repro.multitier.architecture import MultiTierWorld
    from repro.net import ip

    world = MultiTierWorld()
    ghost = ip("10.99.0.50")
    world.realm.register(ghost)
    serving, probes = _locate(world.domain1.rsmc, ghost)
    assert serving is None
    assert probes >= 1
