"""E9 (tier-selection policy), T1 (signalling accounting), T2 (scale),
V1 (simulator-vs-analysis validation) and the design-choice ablations
listed in DESIGN.md §6."""

from __future__ import annotations

from functools import partial
from typing import Iterable, Optional

from repro.analysis import erlang_b, guard_channel_blocking
from repro.experiments import baselines
from repro.experiments.baselines import DEFAULT_SEEDS, ONE_SEED
from repro.experiments.exec import ExecutionBackend
from repro.experiments.runner import ExperimentResult, sweep
from repro.metrics.tables import diff_counts
from repro.mobility import Highway, RandomWaypoint
from repro.multitier.architecture import WORLD_BOUNDS, MultiTierWorld
from repro.multitier.basestation import GuardedChannelPool
from repro.net import drop_totals, protocol_hop_totals
from repro.policy.decider import TierDecider
from repro.radio.cells import Tier
from repro.radio.geometry import Point, Rectangle
from repro.sim import Simulator
from repro.sim.rng import RandomStreams


# ----------------------------------------------------------------------
# E9 — speed-aware tier selection vs baselines
# ----------------------------------------------------------------------
_E9_POLICIES = {
    "speed-aware (paper)": "speed-aware",
    "always-strongest": "always-strongest",
    "always-micro": "always-micro",
}


def _e9_scenario(
    policy: str, seed: int, duration: float, vehicles: int, pedestrians: int
) -> dict[str, float]:
    mode = _E9_POLICIES[policy]
    # One named stream per mobile: adding a vehicle (or a draw in
    # one model) cannot perturb any other mobile's trajectory.
    streams = RandomStreams(seed)
    world = MultiTierWorld()
    sim = world.sim
    vehicle_nodes = []
    for index in range(vehicles):
        mn = world.add_mobile(f"veh{index}")
        start_x = streams.uniform_once(f"veh{index}.start", -4000, -1000)
        model = Highway(
            Point(start_x, 0.0),
            WORLD_BOUNDS,
            streams.stream(f"veh{index}.mobility"),
            speed=25.0,
            wrap=False,
        )
        world.add_controller(mn, model, policy=TierDecider(mode=mode))
        vehicle_nodes.append(mn)
    pedestrian_nodes = []
    walk_area = Rectangle(-2500, -300, -1500, 300)
    for index in range(pedestrians):
        mn = world.add_mobile(f"ped{index}")
        model = RandomWaypoint(
            Point(-2000, 0),
            walk_area,
            streams.stream(f"ped{index}.mobility"),
            speed_range=(0.8, 1.8),
        )
        world.add_controller(mn, model, policy=TierDecider(mode=mode))
        pedestrian_nodes.append(mn)

    sim.run(until=duration)
    minutes = duration / 60.0
    vehicle_handoffs = sum(len(m.handoff_latencies) for m in vehicle_nodes)
    pedestrian_handoffs = sum(
        len(m.handoff_latencies) for m in pedestrian_nodes
    )
    on_macro = sum(
        1 for m in vehicle_nodes if m.serving_tier is Tier.MACRO
    )
    return {
        "vehicle_handoffs_per_min": vehicle_handoffs / vehicles / minutes,
        "pedestrian_handoffs_per_min": pedestrian_handoffs
        / max(pedestrians, 1)
        / minutes,
        "vehicles_on_macro": float(on_macro),
        "rejections": float(sum(
            count
            for (move, reason), count in world.decision_trace.refusals.items()
            if move == "handoff" and reason != "handoff-timeout"
        )),
    }


def experiment_e9(
    seeds: Iterable[int] = DEFAULT_SEEDS,
    duration: float = 120.0,
    vehicles: int = 3,
    pedestrians: int = 3,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """S3.2 speed factor: tier-selection policy ablation (vehicles vs pedestrians)."""
    return sweep(
        "E9",
        "E9 (§3.2): tier-selection policy ablation "
        f"({vehicles} vehicles @25 m/s, {pedestrians} pedestrians, {duration:.0f}s)",
        "policy",
        list(_E9_POLICIES),
        partial(
            _e9_scenario,
            duration=duration,
            vehicles=vehicles,
            pedestrians=pedestrians,
        ),
        seeds,
        {
            "vehicle_handoffs_per_min": "veh_handoffs/min",
            "pedestrian_handoffs_per_min": "ped_handoffs/min",
            "vehicles_on_macro": "vehicles_on_macro",
            "rejections": "rejections",
        },
        notes="The paper's speed factor parks vehicles on the macro tier, "
        "cutting their handoff rate versus signal-chasing policies, while "
        "pedestrians stay on the high-bandwidth micro tier either way.",
        backend=backend,
    )


# ----------------------------------------------------------------------
# T1 — signalling message-hops per handoff type
# ----------------------------------------------------------------------
_T1_PROTOCOLS = [
    "mt-update-location",
    "mt-delete-location",
    "mt-handoff-request",
    "mt-handoff-accept",
    "mt-handoff-begin",
    "mip-reg-request",
    "mnld-update",
    "mt-binding-notify",
]

#: handoff type -> (start station, target station, target in domain 2)
_T1_CASES = {
    "micro->micro (F->E)": ("F", "E", False),
    "macro->micro (R1->B)": ("R1", "B", False),
    "micro->macro (E->R2)": ("E", "R2", False),
    "inter same-upper (C->E)": ("C", "E", False),
    "inter diff-upper (F->G)": ("F", "G", True),
}


def _t1_scenario(case: str, seed: int) -> dict[str, int]:
    """Hop-count delta around one handoff, in an isolated world."""
    start, target, cross_domain = _T1_CASES[case]
    world = MultiTierWorld(second_domain=True)
    sim = world.sim
    mn = world.add_mobile("mn")
    start_bs = world.domain1[start]
    target_bs = world.domain2[target] if cross_domain else world.domain1[target]
    assert mn.initial_attach(start_bs) is None
    sim.run(until=1.0)
    # Freeze the periodic refresh so only handoff signalling counts.
    if mn._location_loop is not None and mn._location_loop.is_alive:
        mn._location_loop.interrupt("t1 accounting")
    sim.run(until=1.5)
    before = protocol_hop_totals(sim)
    outcomes = baselines.scripted_handoffs(sim, 0.0, [target_bs], mn.perform_handoff)
    sim.run(until=4.0)
    assert outcomes == [None]
    return diff_counts(before, protocol_hop_totals(sim), _T1_PROTOCOLS)


def experiment_t1(
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """Control message-hops consumed by one handoff of each type.

    Deterministic (one seed, unused): the periodic location-refresh loop
    is frozen and hop counts are differenced around the handoff over the
    world's hop tally (which also covers radio links that are torn
    down during the handoff).  Each case builds its own world and runs
    as one job on the execution backend.  RSMC authentication is a
    processing delay, not an on-wire message, so it has no column.
    """
    return sweep(
        "T1",
        "T1: control message-hops per handoff type",
        "handoff type",
        list(_T1_CASES),
        _t1_scenario,
        (0,),
        {protocol: protocol.replace("mt-", "") for protocol in _T1_PROTOCOLS},
        notes="Intra-domain handoffs touch only the changed branch; the "
        "different-upper case adds a home registration and an MNLD update "
        "(plus a binding notify when a correspondent is active). RSMC "
        "authentication is a processing delay at the RSMC, not a message.",
        backend=backend,
    )


# ----------------------------------------------------------------------
# T2 — scaling: hierarchy vs flat central registration
# ----------------------------------------------------------------------
T2_MOBILE_COUNTS = (8, 16, 32, 64)  # mobiles registered


def experiment_t2(
    seeds: Iterable[int] = ONE_SEED,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """T2: location-management scaling, hierarchy vs flat central registration."""
    return sweep(
        "T2",
        "T2: location-management scaling, hierarchy vs flat",
        "mobiles",
        list(T2_MOBILE_COUNTS),
        baselines.location_load,
        seeds,
        {
            "update_rate_per_s": "updates/s",
            "location_msgs_per_s": "hier_hops/s",
            "flat_central_msg_hops_per_s": "flat_hops/s",
            "max_station_load_per_s": "max_station_load/s",
            "table_records": "table_records",
        },
        notes="Both grow linearly in message count, but the hierarchy keeps "
        "per-station load bounded and localizes handoff updates, while the "
        "flat scheme concentrates everything on one server across the WAN.",
        backend=backend,
    )


# ----------------------------------------------------------------------
# V1 — simulated channel-pool blocking vs Erlang-B / guard-channel models
# ----------------------------------------------------------------------
#: case label -> (servers, guard, new_load, handoff_load)
_V1_CASES = {
    "c=4 g=0 a_n=3.0 a_h=0.0": (4, 0, 3.0, 0.0),
    "c=8 g=0 a_n=6.0 a_h=0.0": (8, 0, 6.0, 0.0),
    "c=8 g=2 a_n=4.0 a_h=2.0": (8, 2, 4.0, 2.0),
    "c=16 g=2 a_n=10.0 a_h=3.0": (16, 2, 10.0, 3.0),
}
V1_DURATION = 4000.0  # s simulated per case, for blocking rates to settle


def simulate_blocking(servers, guard, new_load, handoff_load, duration, seed):
    """Simulate a guarded loss system; returns (P_block_new, P_drop_ho)."""
    sim = Simulator()
    pool = GuardedChannelPool(capacity=servers, guard=guard)
    streams = RandomStreams(seed)
    counts = {"new": 0, "new_blocked": 0, "ho": 0, "ho_blocked": 0}

    def hold_then_release(request, holding):
        def proc():
            yield holding
            pool.release(request)

        sim.process(proc())

    def arrival_stream(kind, rate, admit):
        def proc():
            while True:
                yield streams.exponential(f"{kind}-gap", 1.0 / rate)
                counts[kind] += 1
                request = admit()
                if request is None:
                    counts[f"{kind}_blocked"] += 1
                else:
                    hold_then_release(
                        request, streams.exponential(f"{kind}-hold", 1.0)
                    )

        sim.process(proc())

    arrival_stream("new", new_load, pool.admit_new_call)
    if handoff_load > 0:
        arrival_stream("ho", handoff_load, pool.admit_handoff)
    sim.run(until=duration)
    p_new = counts["new_blocked"] / max(counts["new"], 1)
    p_ho = counts["ho_blocked"] / max(counts["ho"], 1) if handoff_load else 0.0
    return p_new, p_ho


def _v1_scenario(case: str, seed: int) -> dict[str, float]:
    servers, guard, new_load, handoff_load = _V1_CASES[case]
    if guard == 0 and handoff_load == 0.0:
        analytic_new = erlang_b(servers, new_load)
        analytic_ho = 0.0
    else:
        analytic_new, analytic_ho = guard_channel_blocking(
            servers, guard, new_load, handoff_load
        )
    sim_new, sim_ho = simulate_blocking(
        servers, guard, new_load, handoff_load, V1_DURATION, seed
    )
    return {
        "analytic_P_new": analytic_new,
        "sim_P_new": sim_new,
        "analytic_P_ho": analytic_ho,
        "sim_P_ho": sim_ho,
    }


def experiment_v1(
    seeds: Iterable[int] = DEFAULT_SEEDS,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """V1: channel-pool blocking, simulation vs Erlang-B / guard-channel closed forms."""
    return sweep(
        "V1",
        "V1: channel blocking, simulation vs closed form",
        "case",
        list(_V1_CASES),
        _v1_scenario,
        seeds,
        ["analytic_P_new", "sim_P_new", "analytic_P_ho", "sim_P_ho"],
        notes="The kernel's guarded channel pools reproduce classic "
        "teletraffic results, so E7/E7b blocking numbers are trustworthy.",
        backend=backend,
    )


# ----------------------------------------------------------------------
# Ablation: RSMC handoff buffer depth
# ----------------------------------------------------------------------
BUFFER_SIZES = (1, 2, 4, 8, 32)  # RSMC handoff buffer depths, in packets
AB1_HOME_DELAY = 0.100  # s, one way to the home network


def _ab1_scenario(size: int, seed: int) -> dict[str, float]:
    world = MultiTierWorld(
        second_domain=True,
        home_delay=AB1_HOME_DELAY,
        domain_kwargs={"buffer_size": size},
    )
    metrics = baselines.roam(
        baselines.multitier_scheme(world, [world.domain1["F"], world.domain2["G"]]),
        1, 2.0, 6.0, drain=5.0,
    )
    drops = drop_totals(world.sim)
    return {
        "loss_rate": metrics["loss_rate"],
        "max_gap": metrics["max_gap"],
        "buffered": float(world.domain1.rsmc.buffered_packets),
        "overflows": float(  # the three buffer-* causes
            sum(n for cause, n in drops.items() if cause.startswith("buffer-"))
        ),
    }


def ablation_buffer_size(
    seeds: Iterable[int] = ONE_SEED,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """Inter-domain handoff (Fig 3.3): the *old* RSMC must hold roughly
    a home-network round trip's worth of packets before the HA tells it
    where to forward them.  Intra-domain handoffs barely need the
    buffer (resource switching drains the old branch), so this is the
    regime where depth matters."""
    return sweep(
        "AB1",
        "Ablation: RSMC handoff buffer depth, inter-domain handoff "
        f"(home RTT ~{2 * AB1_HOME_DELAY * 1e3:.0f} ms, 50 pkt/s)",
        "buffer_size_packets",
        list(BUFFER_SIZES),
        _ab1_scenario,
        seeds,
        ["loss_rate", "max_gap", "buffered", "overflows"],
        notes="The old RSMC buffers packets until the home agent reports "
        "the new domain; a buffer smaller than home-RTT x packet-rate "
        "overflows and loses packets, after which extra depth buys nothing.",
        backend=backend,
    )


# ----------------------------------------------------------------------
# Ablation: location record lifetime / refresh period ratio
# ----------------------------------------------------------------------
LIFETIME_RATIOS = (1.2, 2.0, 4.0, 8.0)  # record lifetime / refresh period
AB2_UPDATE_PERIOD = 1.0  # s between location refreshes
AB2_DURATION = 20.0  # s of streaming


def _ab2_scenario(ratio: float, seed: int) -> dict[str, float]:
    world = MultiTierWorld(
        domain_kwargs={
            "record_lifetime": AB2_UPDATE_PERIOD * ratio,
            "location_update_period": AB2_UPDATE_PERIOD,
        }
    )
    sim = world.sim
    d1 = world.domain1
    mn = world.add_mobile("mn")
    assert mn.initial_attach(d1["B"]) is None
    sim.run(until=1.0)
    source, sink = baselines.cbr_to_mobile(world, mn, 40e3, AB2_DURATION)
    sim.run(until=AB2_DURATION + 3.0)
    return {
        "loss_rate": sink.loss_rate(source.packets_sent),
        "records_at_root": float(d1.rsmc.tables.total_records()),
        "location_msgs_per_s": d1.domain.total_location_messages() / AB2_DURATION,
    }


def ablation_record_lifetime(
    seeds: Iterable[int] = ONE_SEED,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """Ablation: location record lifetime as a multiple of the refresh period."""
    return sweep(
        "AB2",
        "Ablation: record lifetime as a multiple of the refresh period",
        "lifetime/period",
        list(LIFETIME_RATIOS),
        _ab2_scenario,
        seeds,
        ["loss_rate", "records_at_root", "location_msgs_per_s"],
        notes="Lifetimes barely above the refresh period risk expiry between "
        "refreshes (losses); larger ratios only delay stale-record cleanup.",
        backend=backend,
    )
