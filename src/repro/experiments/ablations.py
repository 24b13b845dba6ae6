"""E9 (tier-selection policy), T1 (signalling accounting), T2 (scale)
and the design-choice ablations listed in DESIGN.md §6."""

from __future__ import annotations

from functools import partial
from typing import Iterable, Optional

from repro.experiments.exec import ExecutionBackend, SerialBackend
from repro.experiments.runner import ExperimentResult, replicate_grid, sweep
from repro.metrics.tables import diff_counts, format_table
from repro.mobility import Highway, RandomWaypoint
from repro.multitier.architecture import WORLD_BOUNDS, MultiTierWorld
from repro.policy.decider import TierDecider
from repro.radio.cells import Tier
from repro.sim.rng import RandomStreams
from repro.radio.geometry import Point, Rectangle
from repro.traffic import CBRSource, FlowSink

DEFAULT_SEEDS = (1, 2, 3)


# ----------------------------------------------------------------------
# E9 — speed-aware tier selection vs baselines
# ----------------------------------------------------------------------
def experiment_e9(
    seeds: Iterable[int] = DEFAULT_SEEDS,
    duration: float = 120.0,
    vehicles: int = 3,
    pedestrians: int = 3,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """S3.2 speed factor: tier-selection policy ablation (vehicles vs pedestrians)."""
    policies = {
        "speed-aware (paper)": "speed-aware",
        "always-strongest": "always-strongest",
        "always-micro": "always-micro",
    }

    def make_policy_scenario(mode):
        def scenario(seed: int) -> dict[str, float]:
            # One named stream per mobile: adding a vehicle (or a draw in
            # one model) cannot perturb any other mobile's trajectory.
            streams = RandomStreams(seed)
            world = MultiTierWorld()
            sim = world.sim
            vehicle_nodes = []
            for index in range(vehicles):
                mn = world.add_mobile(f"veh{index}")
                start_x = streams.uniform(f"veh{index}.start", -4000, -1000)
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
            vehicle_handoffs = sum(m.handoffs_completed for m in vehicle_nodes)
            pedestrian_handoffs = sum(m.handoffs_completed for m in pedestrian_nodes)
            on_macro = sum(
                1 for m in vehicle_nodes if m.serving_tier is Tier.MACRO
            )
            return {
                "vehicle_handoffs_per_min": vehicle_handoffs / vehicles / minutes,
                "pedestrian_handoffs_per_min": pedestrian_handoffs
                / max(pedestrians, 1)
                / minutes,
                "vehicles_on_macro": float(on_macro),
                "rejections": float(
                    sum(m.handoffs_rejected for m in vehicle_nodes + pedestrian_nodes)
                ),
            }

        return scenario

    replications = replicate_grid(
        [make_policy_scenario(mode) for mode in policies.values()],
        seeds,
        backend=backend,
    )
    rows = []
    for label, replication in zip(policies, replications):
        rows.append(
            [
                label,
                replication.mean("vehicle_handoffs_per_min"),
                replication.mean("pedestrian_handoffs_per_min"),
                replication.mean("vehicles_on_macro"),
                replication.mean("rejections"),
            ]
        )
    text = format_table(
        [
            "policy",
            "veh_handoffs/min",
            "ped_handoffs/min",
            "vehicles_on_macro",
            "rejections",
        ],
        rows,
        title="E9 (§3.2): tier-selection policy ablation "
        f"({vehicles} vehicles @25 m/s, {pedestrians} pedestrians, {duration:.0f}s)",
    )
    return ExperimentResult(
        experiment_id="E9",
        title="Tier-selection policy ablation",
        x_label="policy",
        x_values=list(policies),
        series={
            "veh_handoffs_per_min": [row[1] for row in rows],
            "ped_handoffs_per_min": [row[2] for row in rows],
            "vehicles_on_macro": [row[3] for row in rows],
        },
        text=text,
        notes="The paper's speed factor parks vehicles on the macro tier, "
        "cutting their handoff rate versus signal-chasing policies, while "
        "pedestrians stay on the high-bandwidth micro tier either way.",
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


def _t1_case(start: str, target: str, cross_domain: bool) -> dict[str, int]:
    """Hop-count delta around one handoff, in an isolated world."""
    world = MultiTierWorld(second_domain=True)
    sim = world.sim
    mn = world.add_mobile("mn")
    start_bs = world.domain1[start]
    target_bs = world.domain2[target] if cross_domain else world.domain1[target]
    assert mn.initial_attach(start_bs)
    sim.run(until=1.0)
    # Freeze the periodic refresh so only handoff signalling counts.
    if mn._location_loop is not None and mn._location_loop.is_alive:
        mn._location_loop.interrupt("t1 accounting")
    sim.run(until=1.5)
    before = world.protocol_hop_totals()

    def handoff():
        ok = yield from mn.perform_handoff(target_bs)
        assert ok

    sim.process(handoff())
    sim.run(until=4.0)
    return diff_counts(before, world.protocol_hop_totals(), _T1_PROTOCOLS)


def experiment_t1(
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """Control message-hops consumed by one handoff of each type.

    Deterministic (no seeds needed): the periodic location-refresh loop
    is frozen and hop counts are differenced around the handoff over the
    world's link registry (which also covers radio links that are torn
    down during the handoff).  Each case builds its own world and runs
    as one job on the execution backend.  RSMC authentication is a
    processing delay, not an on-wire message, so it has no column.
    """
    cases = {
        "micro->micro (F->E)": ("F", "E", False),
        "macro->micro (R1->B)": ("R1", "B", False),
        "micro->macro (E->R2)": ("E", "R2", False),
        "inter same-upper (C->E)": ("C", "E", False),
        "inter diff-upper (F->G)": ("F", "G", True),
    }
    if backend is None:
        backend = SerialBackend()
    deltas = backend.run(
        [
            partial(_t1_case, start, target, cross_domain)
            for start, target, cross_domain in cases.values()
        ]
    )
    rows = [
        [label] + [delta[protocol] for protocol in _T1_PROTOCOLS]
        for label, delta in zip(cases, deltas)
    ]

    headers = ["handoff type"] + [p.replace("mt-", "") for p in _T1_PROTOCOLS]
    text = format_table(
        headers, rows, title="T1: control message-hops per handoff type"
    )
    return ExperimentResult(
        experiment_id="T1",
        title="Signalling cost per handoff type",
        x_label="handoff type",
        x_values=list(cases),
        series={
            headers[index + 1]: [row[index + 1] for row in rows]
            for index in range(len(_T1_PROTOCOLS))
        },
        text=text,
        notes="Intra-domain handoffs touch only the changed branch; the "
        "different-upper case adds a home registration and an MNLD update "
        "(plus a binding notify when a correspondent is active). RSMC "
        "authentication is a processing delay at the RSMC, not a message.",
    )


# ----------------------------------------------------------------------
# T2 — scaling: hierarchy vs flat central registration
# ----------------------------------------------------------------------
def experiment_t2(
    seeds: Iterable[int] = (1,),
    mobile_counts=(8, 16, 32, 64),
    duration: float = 20.0,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """T2: location-management scaling, hierarchy vs flat central registration."""

    def make_scenario(count):
        def scenario(seed: int) -> dict[str, float]:
            world = MultiTierWorld()
            d1 = world.domain1
            leaves = [d1["B"], d1["C"], d1["E"], d1["F"]]
            for index in range(count):
                mn = world.add_mobile(f"mn{index}")
                mn.initial_attach(leaves[index % len(leaves)])
            world.sim.run(until=duration)
            domain = d1.domain
            rate = count / domain.location_update_period
            # Hierarchy: measured message-hops/s (each refresh climbs its
            # branch only).  Flat central: every refresh must cross
            # BS -> RSMC -> Internet -> HA, and one server absorbs all of it.
            hierarchy_hops = domain.total_location_messages() / duration
            branch_depth = 4  # leaf -> aggregation -> macro -> R3 -> RSMC
            flat_hops = rate * (branch_depth + 2)
            return {
                "update_rate_per_s": rate,
                "hierarchy_msg_hops_per_s": hierarchy_hops,
                "flat_central_msg_hops_per_s": flat_hops,
                "central_server_load_per_s": rate,
                "max_station_load_per_s": max(
                    bs.location_messages_seen for bs in domain.base_stations
                )
                / duration,
                "table_records": float(domain.total_table_records()),
            }

        return scenario

    # One batch over the whole (count, seed) grid so a parallel backend
    # overlaps the sweep points, not just the (often single) seeds.
    replications = replicate_grid(
        [make_scenario(count) for count in mobile_counts], seeds, backend=backend
    )
    rows = []
    for count, replication in zip(mobile_counts, replications):
        rows.append(
            [
                count,
                replication.mean("update_rate_per_s"),
                replication.mean("hierarchy_msg_hops_per_s"),
                replication.mean("flat_central_msg_hops_per_s"),
                replication.mean("max_station_load_per_s"),
                replication.mean("table_records"),
            ]
        )
    headers = [
        "mobiles",
        "updates/s",
        "hier_hops/s",
        "flat_hops/s",
        "max_station_load/s",
        "table_records",
    ]
    text = format_table(
        headers, rows, title="T2: location-management scaling, hierarchy vs flat"
    )
    return ExperimentResult(
        experiment_id="T2",
        title="Scaling of location management",
        x_label="mobiles",
        x_values=list(mobile_counts),
        series={
            headers[index]: [row[index] for row in rows]
            for index in range(1, len(headers))
        },
        text=text,
        notes="Both grow linearly in message count, but the hierarchy keeps "
        "per-station load bounded and localizes handoff updates, while the "
        "flat scheme concentrates everything on one server across the WAN.",
    )


# ----------------------------------------------------------------------
# Ablation: RSMC handoff buffer depth
# ----------------------------------------------------------------------
def ablation_buffer_size(
    seeds: Iterable[int] = DEFAULT_SEEDS,
    buffer_sizes=(1, 2, 4, 8, 32),
    home_delay: float = 0.100,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """Inter-domain handoff (Fig 3.3): the *old* RSMC must hold roughly
    a home-network round trip's worth of packets before the HA tells it
    where to forward them.  Intra-domain handoffs barely need the
    buffer (resource switching drains the old branch), so this is the
    regime where depth matters."""

    def make_scenario(size):
        def scenario(seed: int) -> dict[str, float]:
            world = MultiTierWorld(
                second_domain=True,
                home_delay=home_delay,
                domain_kwargs={"buffer_size": size},
            )
            sim = world.sim
            mn = world.add_mobile("mn")
            assert mn.initial_attach(world.domain1["F"])
            sim.run(until=1.0)
            sink = FlowSink()
            mn.on_data.append(sink.bind(sim))
            source = CBRSource(
                sim,
                lambda p: world.cn.send_to_mobile(
                    mn.home_address, size=p.size, flow_id=p.flow_id,
                    seq=p.seq, created_at=p.created_at,
                ),
                world.cn.address,
                mn.home_address,
                rate_bps=200e3,
                packet_size=500,
                duration=6.0,
            ).start()
            sink.flow_id = source.flow_id

            def mover():
                yield sim.timeout(2.0)
                yield from mn.perform_handoff(world.domain2["G"])

            sim.process(mover())
            sim.run(until=12.0)
            rsmc1 = world.domain1.rsmc
            return {
                "loss_rate": sink.loss_rate(source.packets_sent),
                "max_gap": sink.max_gap(),
                "buffered": float(rsmc1.buffered_packets),
                "overflows": float(rsmc1.buffer_overflows),
            }

        return scenario

    return sweep(
        "AB1",
        "Ablation: RSMC handoff buffer depth, inter-domain handoff "
        f"(home RTT ~{2 * home_delay * 1e3:.0f} ms, 50 pkt/s)",
        "buffer_size_packets",
        list(buffer_sizes),
        make_scenario,
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
def ablation_record_lifetime(
    seeds: Iterable[int] = DEFAULT_SEEDS,
    lifetime_ratios=(1.2, 2.0, 4.0, 8.0),
    update_period: float = 1.0,
    duration: float = 20.0,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """Ablation: location record lifetime as a multiple of the refresh period."""
    def make_scenario(ratio):
        def scenario(seed: int) -> dict[str, float]:
            world = MultiTierWorld(
                domain_kwargs={
                    "record_lifetime": update_period * ratio,
                    "location_update_period": update_period,
                }
            )
            sim = world.sim
            d1 = world.domain1
            mn = world.add_mobile("mn")
            assert mn.initial_attach(d1["B"])
            sim.run(until=1.0)
            sink = FlowSink()
            mn.on_data.append(sink.bind(sim))
            source = CBRSource(
                sim,
                lambda p: world.cn.send_to_mobile(
                    mn.home_address, size=p.size, flow_id=p.flow_id,
                    seq=p.seq, created_at=p.created_at,
                ),
                world.cn.address,
                mn.home_address,
                rate_bps=40e3,
                packet_size=500,
                duration=duration,
            ).start()
            sink.flow_id = source.flow_id
            sim.run(until=duration + 3.0)
            return {
                "loss_rate": sink.loss_rate(source.packets_sent),
                "records_at_root": float(d1.rsmc.tables.total_records()),
                "location_msgs_per_s": world.domain1.domain.total_location_messages()
                / duration,
            }

        return scenario

    return sweep(
        "AB2",
        "Ablation: record lifetime as a multiple of the refresh period",
        "lifetime/period",
        list(lifetime_ratios),
        make_scenario,
        seeds,
        ["loss_rate", "records_at_root", "location_msgs_per_s"],
        notes="Lifetimes barely above the refresh period risk expiry between "
        "refreshes (losses); larger ratios only delay stale-record cleanup.",
        backend=backend,
    )
