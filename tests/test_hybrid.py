"""The hybrid fluid/discrete layer: model, driver, channel claims.

Bottom-up coverage of :mod:`repro.fluid` — the overlap quadrature, the
per-cell analytic state, the config validation, the background claims
on :class:`~repro.radio.channel.SharedChannel`, the refresh driver —
ending at the ROADMAP acceptance check: a small all-discrete scenario
and the same scenario with part of its population converted to fluid
background must agree on tracked-cohort metrics within confidence
bounds.
"""

import math

import pytest

from repro.fluid import (
    CellBackgroundState,
    FluidBackground,
    FluidDriver,
    cell_background_state,
    disc_rect_overlap_fraction,
    fluid_channel_pairs,
    install_fluid_background,
)
from repro.fluid.config import HANDOFF_SIGNALLING_BYTES
from repro.metrics.stats import mean_confidence
from repro.radio.cells import Cell, Tier
from repro.radio.channel import DOWNLINK, UPLINK, SharedChannel
from repro.radio.geometry import Point, Rectangle
from repro.scenarios import get_scenario, run_scenario_spec
from repro.scenarios.builder import build_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.sim import Simulator

RECT = Rectangle(0.0, 0.0, 1000.0, 1000.0)


def _cell(radius=200.0, channels=8, center=(500.0, 500.0)):
    return Cell(
        name="c",
        center=Point(*center),
        tier=Tier.MICRO,
        radius=radius,
        channels=channels,
    )


# ----------------------------------------------------------------------
# Overlap quadrature
# ----------------------------------------------------------------------
def test_overlap_covering_disc_is_one_and_disjoint_disc_is_zero():
    assert disc_rect_overlap_fraction(Point(500, 500), 1e4, RECT) == 1.0
    assert disc_rect_overlap_fraction(Point(-5000, -5000), 100.0, RECT) == 0.0


def test_overlap_of_interior_disc_matches_area_ratio():
    exact = math.pi * 200.0**2 / (1000.0 * 1000.0)
    default = disc_rect_overlap_fraction(Point(500, 500), 200.0, RECT)
    assert abs(default - exact) < 0.03 * exact
    # And the quadrature converges: a finer grid tightens the answer.
    fine = disc_rect_overlap_fraction(Point(500, 500), 200.0, RECT, resolution=512)
    assert abs(fine - exact) < 0.005 * exact


def test_overlap_is_deterministic_and_rejects_bad_radius():
    args = (Point(420, 330), 150.0, RECT)
    assert disc_rect_overlap_fraction(*args) == disc_rect_overlap_fraction(*args)
    with pytest.raises(ValueError, match="radius"):
        disc_rect_overlap_fraction(Point(0, 0), 0.0, RECT)


# ----------------------------------------------------------------------
# Per-cell analytic state
# ----------------------------------------------------------------------
def test_cell_background_state_composes_erlang_and_fluid_flow():
    config = FluidBackground(
        population=1000, mean_speed=2.0, activity=0.1, per_mobile_bps=32e3
    )
    cell = _cell()
    state = cell_background_state(cell, config, RECT)
    assert isinstance(state, CellBackgroundState)
    overlap = disc_rect_overlap_fraction(cell.center, cell.radius, RECT)
    assert state.occupants == pytest.approx(1000 * overlap)
    assert state.offered_erlangs == pytest.approx(state.occupants * 0.1)
    assert 0.0 <= state.blocking <= 1.0
    assert state.carried_erlangs == pytest.approx(
        state.offered_erlangs * (1.0 - state.blocking)
    )
    # Crossing rate: 2 v / (pi r) per occupant.
    per_occupant = 2.0 * 2.0 / (math.pi * cell.radius)
    assert state.crossing_rate == pytest.approx(state.occupants * per_occupant)
    signalling = state.crossing_rate * HANDOFF_SIGNALLING_BYTES * 8.0
    assert state.downlink_bps == pytest.approx(
        state.carried_erlangs * 32e3 + signalling
    )
    assert state.uplink_bps == pytest.approx(
        state.carried_erlangs * 32e3 * config.uplink_fraction + signalling
    )


def test_cell_background_state_offset_moves_the_density():
    """The drift offset displaces the density frame: push it far enough
    and the cell sees no background at all."""
    config = FluidBackground(population=500)
    near = cell_background_state(_cell(), config, RECT)
    far = cell_background_state(_cell(), config, RECT, offset=(1e6, 0.0))
    assert near.occupants > 0
    assert far.occupants == 0.0
    assert far.downlink_bps == 0.0


def test_idle_background_still_costs_signalling():
    """activity=0 means no sessions, but the population still crosses
    cell boundaries — location management load, as in the paper."""
    state = cell_background_state(
        _cell(), FluidBackground(population=500, activity=0.0), RECT
    )
    assert state.offered_erlangs == 0.0
    assert state.blocking == 0.0
    assert state.crossing_rate > 0
    assert state.downlink_bps == pytest.approx(
        state.crossing_rate * HANDOFF_SIGNALLING_BYTES * 8.0
    )


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
def test_fluid_background_validates_eagerly():
    with pytest.raises(ValueError, match="population"):
        FluidBackground(population=-1)
    with pytest.raises(ValueError, match="activity"):
        FluidBackground(population=10, activity=1.5)
    with pytest.raises(ValueError, match="drift"):
        FluidBackground(population=10, drift=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="max_cell_load"):
        FluidBackground(population=10, max_cell_load=0.99)
    assert not FluidBackground(population=0).enabled
    assert FluidBackground(population=1).enabled


def test_spec_fluid_block_requires_channels_and_coerces_mappings():
    base = dict(
        name="hybrid-val",
        description="x",
        population=2,
        duration=4.0,
        mobility_mix={"waypoint": 1.0},
        traffic_mix={"cbr-voice": 1.0},
    )
    with pytest.raises(ValueError, match="shared\\s+channels"):
        ScenarioSpec(**base, fluid={"population": 100})
    spec = ScenarioSpec(
        **base, macro_channel_bandwidth=2e6, fluid={"population": 100}
    )
    assert isinstance(spec.fluid, FluidBackground)
    assert spec.fluid.population == 100
    # An empty block needs no channels — it is the legacy path.
    assert ScenarioSpec(**base, fluid={"population": 0}).fluid.enabled is False


# ----------------------------------------------------------------------
# SharedChannel background claims
# ----------------------------------------------------------------------
def test_set_background_stretches_airtime_and_restores_exactly():
    from repro.net.packet import Packet

    sim = Simulator()
    channel = SharedChannel(sim, "air-t", downlink_bps=1e6, uplink_bps=5e5)
    packet = Packet(src="10.0.0.1", dst="10.0.0.2", size=1000)
    free = channel.airtime(DOWNLINK, packet)
    channel.set_background(DOWNLINK, 5e5)
    assert channel.airtime(DOWNLINK, packet) == pytest.approx(2.0 * free)
    # Restoring to zero is exact float identity — the fluid-off
    # byte-identity contract at the channel level.
    channel.set_background(DOWNLINK, 0.0)
    assert channel.airtime(DOWNLINK, packet) == free


def test_set_background_clamps_to_max_fraction_and_validates():
    sim = Simulator()
    channel = SharedChannel(sim, "air-t", downlink_bps=1e6, uplink_bps=5e5)
    applied = channel.set_background(DOWNLINK, 1e9, max_fraction=0.9)
    assert applied == pytest.approx(0.9e6)
    assert channel.set_background(UPLINK, -5.0) == 0.0
    with pytest.raises(ValueError):
        channel.set_background("sideways", 1.0)


def test_background_claim_counts_against_admission():
    sim = Simulator()
    channel = SharedChannel(
        sim, "air-t", downlink_bps=1e6, uplink_bps=5e5, admission_factor=1.0
    )
    assert channel.admit(1, 600e3)
    channel.set_background(DOWNLINK, 500e3)
    assert not channel.admit(1, 600e3)
    assert channel.admit(1, 400e3)


# ----------------------------------------------------------------------
# FluidDriver
# ----------------------------------------------------------------------
def _driver(config, cells=1):
    sim = Simulator()
    pairs = [
        (
            _cell(center=(300.0 + 200.0 * index, 500.0)),
            SharedChannel(sim, f"air-{index}", 1e6, 5e5),
        )
        for index in range(cells)
    ]
    return sim, FluidDriver(sim, config, pairs, RECT)


def test_driver_refreshes_periodically_and_reports_metrics():
    sim, driver = _driver(
        FluidBackground(population=2000, update_period=1.0), cells=2
    )
    sim.run(until=4.5)
    assert driver.updates == 5  # t = 0, 1, 2, 3, 4
    for _cell_, channel in driver.pairs:
        assert channel.background[DOWNLINK] > 0
        assert channel.background[UPLINK] > 0
    metrics = driver.metrics()
    assert metrics["fluid.background_population"] == 2000.0
    assert metrics["fluid.updates"] == 5.0
    assert 0.0 < metrics["fluid.peak_cell_load"] <= 0.9
    assert 0.0 <= metrics["fluid.mean_blocking"] <= 1.0
    assert metrics["fluid.handoff_rate"] > 0
    assert all(isinstance(v, float) for v in metrics.values())


def test_driver_drift_makes_claims_time_varying():
    static_sim, static_driver = _driver(FluidBackground(population=2000))
    static_sim.run(until=5.0)
    drift_sim, drift_driver = _driver(
        FluidBackground(population=2000, drift=(150.0, 0.0))
    )
    first_claim = None

    def snapshot():
        nonlocal first_claim
        channel = drift_driver.pairs[0][1]
        if first_claim is None:
            first_claim = channel.background[DOWNLINK]

    drift_sim.call_later(0.5, snapshot)
    drift_sim.run(until=5.0)
    late_claim = drift_driver.pairs[0][1].background[DOWNLINK]
    # Static density: claims settle and stay put (cached evaluation).
    static_channel = static_driver.pairs[0][1]
    assert static_driver._static_states is not None
    assert static_channel.background[DOWNLINK] > 0
    # Drifting density: the same cell's claim changes over time.
    assert first_claim is not None and late_claim != first_claim


def test_driver_rejects_empty_background_or_no_cells():
    sim = Simulator()
    with pytest.raises(ValueError, match="population"):
        FluidDriver(sim, FluidBackground(population=0), [], RECT)
    with pytest.raises(ValueError, match="pair"):
        FluidDriver(sim, FluidBackground(population=10), [], RECT)


def test_install_fluid_background_is_a_noop_for_legacy_specs():
    spec = ScenarioSpec(
        name="hybrid-noop",
        description="x",
        population=2,
        duration=4.0,
        mobility_mix={"waypoint": 1.0},
        traffic_mix={"cbr-voice": 1.0},
        macro_channel_bandwidth=2e6,
    )
    sim = Simulator()
    assert install_fluid_background(sim, spec, [], RECT) is None
    assert install_fluid_background(
        sim, spec.replace(fluid={"population": 0}), [], RECT
    ) is None
    assert not sim._queue  # nothing scheduled


def test_fluid_channel_pairs_skips_stations_without_channels():
    class Station:
        def __init__(self, cell, channel):
            self.cell = cell
            self.shared_channel = channel

    cell = _cell()
    channel = SharedChannel(Simulator(), "air", 1e6, 5e5)
    pairs = fluid_channel_pairs([Station(cell, channel), Station(cell, None)])
    assert pairs == [(cell, channel)]


# ----------------------------------------------------------------------
# The metro-100k catalog scenario
# ----------------------------------------------------------------------
def test_metro_catalog_scenario_keeps_its_background_in_smoke_mode():
    spec = get_scenario("metro-100k")
    assert spec.fluid is not None and spec.fluid.population == 100_000
    assert spec.channels_enabled()
    smoke = spec.smoke()
    # smoke() shrinks the tracked cohort, never the background — the
    # CI smoke run still carries the full 100k analytic mobiles.
    assert smoke.population <= 6
    assert smoke.fluid.population == 100_000


def test_hybrid_run_emits_gated_fluid_metrics():
    spec = get_scenario("metro-100k").smoke()
    metrics = run_scenario_spec(spec, seed=spec.seeds[0])
    assert metrics["fluid.background_population"] == 100_000.0
    assert metrics["fluid.updates"] >= 1.0
    assert metrics["fluid.peak_cell_load"] > 0.0
    # The discrete cohort still produces full packet-level metrics.
    assert metrics["received"] > 0
    assert all(isinstance(v, float) for v in metrics.values())


# ----------------------------------------------------------------------
# ROADMAP acceptance: hybrid vs all-discrete equivalence
# ----------------------------------------------------------------------
COHORT = 4
CONVERTED = 4
EQ_SEEDS = (1, 2, 3)


def _equivalence_spec(population, fluid=None):
    # Single-entry mixes make the per-index model/kind assignment
    # independent of the population size, and the shared name keeps
    # every cohort stream (mn0..mn3) identical across both specs — so
    # the tracked cohort sees the same mobility and traffic in both
    # worlds, and only the *other* mobiles' representation differs.
    return ScenarioSpec(
        name="hybrid-eq",
        description="hybrid-vs-discrete equivalence harness",
        population=population,
        duration=8.0,
        mobility_mix={"waypoint": 1.0},
        traffic_mix={"onoff-voice": 1.0},
        seeds=EQ_SEEDS,
        # Tight enough that the converted mobiles' load is felt on the
        # air (cohort delay rises ~15% over an empty channel), loose
        # enough that voice stays deliverable in both representations.
        macro_channel_bandwidth=500e3,
        warmup=1.0,
        drain=2.0,
        fluid=fluid,
    )


def _cohort_stats(spec, seed):
    built = build_scenario(spec, seed)
    built.execute()
    wanted = {f"{spec.name}.mn{index}" for index in range(COHORT)}
    rows = [
        (source, sink)
        for plan, source, sink in zip(built.flow_plans, built.sources, built.sinks)
        if plan.flow_id in wanted
    ]
    assert len(rows) == COHORT
    sent = sum(source.packets_sent for source, _sink in rows)
    received = sum(sink.received for _source, sink in rows)
    delays = [delay for _source, sink in rows for delay in sink.delays]
    return sent, received, sum(delays) / len(delays)


def test_hybrid_background_matches_all_discrete_within_confidence():
    """The ROADMAP acceptance check: converting part of the population
    to analytic background must not change what the tracked cohort
    experiences, within confidence bounds across seeds.

    ``onoff-voice`` is ~64 kbit/s at ~50% duty cycle, so the converted
    mobiles reappear as a background block with ``activity=0.5`` and
    ``per_mobile_bps=64e3``; ``mean_speed`` is the waypoint models'
    mean walking speed.
    """
    discrete = _equivalence_spec(COHORT + CONVERTED)
    hybrid = _equivalence_spec(
        COHORT,
        fluid={
            "population": CONVERTED,
            "mean_speed": 1.4,
            "activity": 0.5,
            "per_mobile_bps": 64e3,
            "update_period": 1.0,
        },
    )
    received_d, received_h, delay_d, delay_h = [], [], [], []
    for seed in EQ_SEEDS:
        sent_d, rec_d, del_d = _cohort_stats(discrete, seed)
        sent_h, rec_h, del_h = _cohort_stats(hybrid, seed)
        # The cohort's *offered* traffic is identical by construction:
        # sources draw from the same named streams in both worlds.
        assert sent_d == sent_h
        received_d.append(float(rec_d))
        received_h.append(float(rec_h))
        delay_d.append(del_d)
        delay_h.append(del_h)

    def compatible(a_samples, b_samples, slack):
        a = mean_confidence(a_samples)
        b = mean_confidence(b_samples)
        gap = abs(a.mean - b.mean)
        return gap <= a.half_width + b.half_width or gap <= slack * max(
            a.mean, b.mean
        )

    # Delivery and delay must agree within the seeds' confidence
    # intervals (with a small relative floor for near-zero variance).
    assert compatible(received_d, received_h, slack=0.02)
    assert compatible(delay_d, delay_h, slack=0.10)
