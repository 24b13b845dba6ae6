"""One function per reproduced figure (E1-E8b, E10, E11).

The paper has no quantitative evaluation section; every architecture
figure is reproduced as an executable scenario, and every qualitative
claim ("improve QoS", "reduce data packet loss", "overhead ...
decreased") becomes a measured comparison.  See DESIGN.md §4 for the
index and expected shapes.

Every experiment is a module-level ``scenario(x, seed) -> dict`` plus
one :func:`repro.experiments.runner.sweep` call, and returns the
:class:`~repro.experiments.runner.ExperimentResult` whose ``text`` is
the printable table.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Optional

from repro.cellularip import CIPMobileHost
from repro.experiments import baselines
from repro.experiments.baselines import DEFAULT_SEEDS, ONE_SEED
from repro.experiments.exec import ExecutionBackend
from repro.experiments.runner import ExperimentResult, sweep
from repro.multitier.architecture import MultiTierWorld
from repro.net import Packet
from repro.net import ip as make_ip
from repro.sim.rng import RandomStreams
from repro.traffic import FlowSink, PoissonSource


def _first(values: list) -> float:
    return values[0] if values else float("nan")


# ----------------------------------------------------------------------
# E1 — Fig 2.2: Mobile IP registration latency and triangle routing
# ----------------------------------------------------------------------
BACKBONE_DELAYS = (0.005, 0.010, 0.025, 0.050, 0.100)  # s, home to visited


def _e1_scenario(delay: float, seed: int) -> dict[str, float]:
    sim, core, cn, _agents, mn = baselines.build_mobileip_world(1, delay, delay, 0.002)
    sim.run(until=5.0)

    down_delay = []
    up_delay = []
    mn.on_protocol(
        "data", lambda p, l: down_delay.append(sim.now - p.created_at)
    )
    cn.on_protocol(
        "data", lambda p, l: up_delay.append(sim.now - p.created_at)
    )
    core.receive(
        Packet(src=cn.address, dst=mn.home_address, size=1000, created_at=sim.now)
    )
    mn.originate(
        Packet(src=mn.home_address, dst=cn.address, size=1000, created_at=sim.now)
    )
    sim.run(until=10.0)
    stretch = (
        down_delay[0] / up_delay[0] if down_delay and up_delay else float("nan")
    )
    return {
        "registration_latency": mn.registration_latencies[0],
        "downlink_delay": _first(down_delay),
        "uplink_delay": _first(up_delay),
        "triangle_stretch": stretch,
    }


def experiment_e1(
    seeds: Iterable[int] = ONE_SEED,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """Fig 2.2: Mobile IP registration latency & triangle routing vs HA distance."""
    return sweep(
        "E1",
        "E1 (Fig 2.2): Mobile IP registration latency & triangle routing vs backbone delay",
        "backbone_delay_s",
        list(BACKBONE_DELAYS),
        _e1_scenario,
        seeds,
        ["registration_latency", "downlink_delay", "uplink_delay", "triangle_stretch"],
        notes="Registration latency and CN->MN delay grow with the HA distance; "
        "triangle stretch > 1 shows the downlink detour through the HA.",
        backend=backend,
    )


# ----------------------------------------------------------------------
# E2 — Fig 2.3: Cellular IP routing-cache maintenance
# ----------------------------------------------------------------------
ROUTE_UPDATE_PERIODS = (0.25, 0.5, 1.0, 2.0, 4.0)  # s, past the route timeout
E2_ROUTE_TIMEOUT = 1.5  # s a routing-cache entry lives unrefreshed
E2_DURATION = 30.0  # s of downlink probes


def _e2_scenario(period: float, seed: int) -> dict[str, float]:
    sim, domain, gw, leaves, internet, cn, mn = baselines.build_cip_world()
    domain.route_update_time = period
    domain.route_timeout = E2_ROUTE_TIMEOUT
    domain.broadcast_paging = False
    for bs in domain.base_stations:
        bs.routing_cache.timeout = E2_ROUTE_TIMEOUT
        bs.paging_cache.timeout = E2_ROUTE_TIMEOUT  # isolate route caches
    mn.attach_to(leaves[0])
    # Keep the mobile nominally active but silent so only timed
    # route updates refresh the caches.
    mn._last_activity = float("inf")

    # Fine-grained downlink probes, started after a warmup so the
    # startup transient does not pollute the miss rate.
    probe_interval = 0.3
    sim.run(until=1.0)
    source, sink = baselines.cbr_stream(
        sim, lambda p: internet.receive(p) or True, cn, mn, mn.address,
        E2_DURATION, rate_bps=500 * 8 / probe_interval, packet_size=500,
    )
    sim.run(until=1.0 + E2_DURATION + 2.0)
    control = domain.total_control_packets()
    return {
        "control_packets_per_s": control / E2_DURATION,
        "miss_rate": sink.loss_rate(source.packets_sent),
        "cache_refreshes": float(gw.routing_cache.refreshes),
    }


def experiment_e2(
    seeds: Iterable[int] = ONE_SEED,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """Fig 2.3: Cellular IP signalling vs route-update period, and the cache-miss cliff."""
    return sweep(
        "E2",
        "E2 (Fig 2.3): Cellular IP signalling vs route-update period "
        f"(route_timeout={E2_ROUTE_TIMEOUT}s)",
        "route_update_period_s",
        list(ROUTE_UPDATE_PERIODS),
        _e2_scenario,
        seeds,
        ["control_packets_per_s", "miss_rate", "cache_refreshes"],
        notes="Faster updates cost linearly more signalling; once the period "
        "exceeds the route timeout the downlink cache-miss rate jumps.",
        backend=backend,
    )


# ----------------------------------------------------------------------
# E3 — Fig 2.4: Cellular IP hard vs semisoft handoff
# ----------------------------------------------------------------------
HANDOFF_INTERVALS = (0.5, 1.0, 2.0, 4.0)  # s between handoffs
E3_DURATION = 16.0  # s of streaming


def _e3_scenario(interval: float, seed: int) -> dict[str, float]:
    handoffs = int(E3_DURATION / interval) - 1
    hard, semisoft = (
        baselines.roam(
            baselines.cip_scheme(semisoft), handoffs, interval, E3_DURATION
        )
        for semisoft in (False, True)
    )
    return {
        "hard_loss_rate": hard["loss_rate"],
        "semisoft_loss_rate": semisoft["loss_rate"],
        "hard_lost_per_handoff": hard["lost"] / hard["handoff_count"],
        "semisoft_duplicates": semisoft["duplicates"],
    }


def experiment_e3(
    seeds: Iterable[int] = ONE_SEED,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """Fig 2.4: hard vs semisoft Cellular IP handoff loss across handoff rates."""
    return sweep(
        "E3",
        "E3 (Fig 2.4): hard vs semisoft Cellular IP handoff",
        "handoff_interval_s",
        list(HANDOFF_INTERVALS),
        _e3_scenario,
        seeds,
        [
            "hard_loss_rate",
            "semisoft_loss_rate",
            "hard_lost_per_handoff",
            "semisoft_duplicates",
        ],
        notes="Hard handoff loses packets proportional to handoff rate; "
        "semisoft trades losses for duplicated packets.",
        backend=backend,
    )


# ----------------------------------------------------------------------
# E4 — Fig 3.1: hierarchical location management
# ----------------------------------------------------------------------
LOCATION_MOBILE_COUNTS = (4, 8, 16, 32)  # mobiles in the location hierarchy


def experiment_e4(
    seeds: Iterable[int] = ONE_SEED,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """Fig 3.1: hierarchical location-management load vs number of mobiles."""
    return sweep(
        "E4",
        "E4 (Fig 3.1): location-management load vs number of mobiles",
        "mobiles",
        list(LOCATION_MOBILE_COUNTS),
        baselines.location_load,
        seeds,
        [
            "location_msgs_per_s",
            "root_load_per_s",
            "max_station_load_per_s",
            "table_records",
            "records_per_station",
        ],
        notes="Total signalling grows linearly with N but is spread over the "
        "hierarchy: per-station load stays a small multiple of the root's.",
        backend=backend,
    )


# ----------------------------------------------------------------------
# E5 / E6 — Figs 3.2 / 3.3: inter-domain handoff latency
# ----------------------------------------------------------------------
HOME_DELAYS = (0.010, 0.025, 0.050, 0.100)  # s, one way to the home network


def _interdomain_handoff(different_upper: bool, home_delay: float) -> dict[str, float]:
    world = MultiTierWorld(second_domain=True, home_delay=home_delay)
    d1, d2 = world.domain1, world.domain2
    start, target = (d1["F"], d2["G"]) if different_upper else (d1["C"], d1["E"])
    scheme = baselines.multitier_scheme(world, [start, target])
    metrics = baselines.roam(scheme, 1, 2.0, 6.0, drain=5.0)
    return {
        "latency": _first(scheme.mn.handoff_latencies),
        "gap": metrics["max_gap"],
        "ha_involved": 1.0 if world.ha.registrations_accepted > 1 else 0.0,
    }


def _e5_e6_scenario(home_delay: float, seed: int) -> dict[str, float]:
    same = _interdomain_handoff(False, home_delay)
    diff = _interdomain_handoff(True, home_delay)
    return {
        "same_upper_latency": same["latency"],
        "diff_upper_latency": diff["latency"],
        "same_upper_gap": same["gap"],
        "diff_upper_gap": diff["gap"],
        "diff_ha_involved": diff["ha_involved"],
    }


def experiment_e5_e6(
    seeds: Iterable[int] = ONE_SEED,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """Figs 3.2/3.3: inter-domain handoff, same vs different upper BS."""
    return sweep(
        "E5/E6",
        "E5/E6 (Figs 3.2/3.3): inter-domain handoff, same vs different upper BS",
        "home_delay_s",
        list(HOME_DELAYS),
        _e5_e6_scenario,
        seeds,
        [
            "same_upper_latency",
            "diff_upper_latency",
            "same_upper_gap",
            "diff_upper_gap",
            "diff_ha_involved",
        ],
        notes="Same-upper handoffs never involve the home network, so their "
        "latency is flat; different-upper handoffs pay authentication plus "
        "the home registration and grow with home delay.",
        backend=backend,
    )


# ----------------------------------------------------------------------
# E7 — Fig 3.4: the three intra-domain handoff cases + overflow
# ----------------------------------------------------------------------
_E7_CASES = {
    "micro->micro (F->E)": ("F", "E"),
    "macro->micro (R1->B)": ("R1", "B"),
    "micro->macro (E->R2)": ("E", "R2"),
}
RESIDENT_LOADS = (4, 8, 12, 16, 20)  # E7b: residents in the target cell
E7B_CHANNELS = 8  # the target micro cell's channel count


def _e7_scenario(case: str, seed: int) -> dict[str, float]:
    world = MultiTierWorld()
    start, target = (world.domain1[name] for name in _E7_CASES[case])
    scheme = baselines.multitier_scheme(world, [start, target])
    metrics = baselines.roam(scheme, 1, 1.5, 4.0, drain=3.0)
    return {
        "latency": _first(scheme.mn.handoff_latencies),
        "interruption": metrics["max_gap"],
        "loss_rate": metrics["loss_rate"],
    }


def experiment_e7(
    seeds: Iterable[int] = ONE_SEED,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """Fig 3.4: the three intra-domain handoff cases (latency, interruption, loss)."""
    return sweep(
        "E7",
        "E7 (Fig 3.4): intra-domain handoff cases",
        "case",
        list(_E7_CASES),
        _e7_scenario,
        seeds,
        {
            "latency": "latency_s",
            "interruption": "interruption_s",
            "loss_rate": "loss_rate",
        },
        notes="All three §3.2 cases complete with sub-100ms interruption; "
        "crossing tiers costs no more than staying within one.",
        backend=backend,
    )


def _e7b_scenario(load: int, seed: int) -> dict[str, float]:
    outcomes = {"with": 0, "without": 0}
    for overflow in (True, False):
        world = MultiTierWorld(
            domain_kwargs={"guard_channels": 0}
        )
        sim = world.sim
        d1 = world.domain1
        target = d1["E"]
        target.channels.capacity = E7B_CHANNELS
        # Residents occupy the target cell up to its capacity.
        for index in range(load):
            resident = world.add_mobile(f"res{index}")
            resident.initial_attach(target)
        sim.run(until=0.5)
        mover = world.add_mobile("mover")
        assert mover.initial_attach(d1["F"]) is None
        sim.run(until=1.0)

        refusals = []

        def attempt():
            refusal = yield from mover.perform_handoff(target)
            if refusal is not None and overflow:
                refusal = yield from mover.perform_handoff(d1["R2"])
            refusals.append(refusal)

        sim.process(attempt())
        sim.run(until=4.0)
        key = "with" if overflow else "without"
        outcomes[key] = 1 if refusals == [None] else 0
    return {
        "success_with_overflow": float(outcomes["with"]),
        "success_without_overflow": float(outcomes["without"]),
    }


def experiment_e7_blocking(
    seeds: Iterable[int] = ONE_SEED,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """Channel overflow: handoffs into a small micro cell, with and
    without the paper's fallback to the macro tier."""
    return sweep(
        "E7b",
        f"E7b (Fig 3.4 case c): handoff success vs load ({E7B_CHANNELS} channels)",
        "resident_mobiles",
        list(RESIDENT_LOADS),
        _e7b_scenario,
        seeds,
        ["success_with_overflow", "success_without_overflow"],
        notes="Once the micro cell fills, handoffs without macro overflow are "
        "blocked; the paper's fallback keeps success at 1.0.",
        backend=backend,
    )


# ----------------------------------------------------------------------
# E8 — Fig 4.1: the headline scheme comparison
# ----------------------------------------------------------------------
E8_HANDOFFS = 6  # moves per roam, E8 and E8b
E8_HANDOFF_INTERVAL = 2.0  # s between moves
E8_DURATION = 16.0  # s of streaming


def _e8_scenario(scheme: str, seed: int, elastic: bool = False) -> dict[str, float]:
    return baselines.roam(
        baselines.SCHEMES[scheme](), E8_HANDOFFS, E8_HANDOFF_INTERVAL,
        E8_DURATION, elastic=elastic,
    )


def experiment_e8(
    seeds: Iterable[int] = ONE_SEED,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """Fig 4.1: headline scheme comparison (Mobile IP / CIP hard / semisoft / RSMC)."""
    return sweep(
        "E8",
        "E8 (Fig 4.1): CBR video to a roaming MN, "
        f"{E8_HANDOFFS} handoffs @ {E8_HANDOFF_INTERVAL}s",
        "scheme",
        list(baselines.SCHEMES),
        _e8_scenario,
        seeds,
        {
            "loss_rate": "loss_rate",
            "mean_delay": "mean_delay_s",
            "jitter": "jitter_s",
            "max_gap": "max_gap_s",
            "duplicates": "duplicates",
        },
        notes="Expected shape: loss(MobileIP) > loss(CIP hard) > "
        "loss(semisoft) ~= loss(RSMC) ~= 0; Mobile IP also pays triangle "
        "delay, semisoft pays duplicates, RSMC pays a small buffer-flush "
        "delay spike instead.",
        backend=backend,
    )


# ----------------------------------------------------------------------
# E8b — elastic (TCP-like) traffic under handoffs, per scheme
# ----------------------------------------------------------------------
def experiment_e8b(
    seeds: Iterable[int] = ONE_SEED,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """E8b: elastic AIMD goodput under handoffs (CIP hard vs semisoft vs RSMC).

    The multimedia story (E8) uses CBR; elastic AIMD traffic reacts to
    the same handoff losses by collapsing its window, so schemes that
    lose packets lose *throughput* disproportionately — the classic
    motivation for loss-free handoff ("providing improved TCP and UDP
    performance over hard handoff", §2.2.2).
    """
    return sweep(
        "E8b",
        "E8b: elastic (AIMD) traffic under handoffs, "
        f"{E8_HANDOFFS} handoffs @ {E8_HANDOFF_INTERVAL}s",
        "scheme",
        list(baselines.SCHEMES)[1:],
        partial(_e8_scenario, elastic=True),
        seeds,
        ["goodput_bps", "lossy_windows", "final_window"],
        notes="Handoff losses make AIMD halve its window: hard handoff shows "
        "lossy windows and reduced goodput, while semisoft and the RSMC keep "
        "the window growing through every handoff.",
        backend=backend,
    )


# ----------------------------------------------------------------------
# E10 — paging / idle efficiency (Cellular IP + §4 claim)
# ----------------------------------------------------------------------
IDLE_MOBILE_COUNTS = (2, 4, 8, 16)  # idle mobiles per population
E10_DURATION = 30.0  # s the idle population is maintained


def _idle_population(count: int, with_paging: bool) -> dict[str, float]:
    sim, domain, gw, leaves, internet, cn, _mn = baselines.build_cip_world()
    domain.route_update_time = 0.5
    domain.active_state_timeout = 1.0
    # Without paging support, idle mobiles must refresh at the fast
    # route cadence to stay reachable.
    domain.paging_update_time = 5.0 if with_paging else 0.5

    hosts = []
    for index in range(count):
        host = CIPMobileHost(
            sim, f"mn{index}", make_ip(f"10.200.1.{index + 1}"), domain
        )
        host.attach_to(leaves[index % len(leaves)])
        hosts.append(host)
    sim.run(until=E10_DURATION)
    control = domain.total_control_packets()

    # First-packet delay to one idle host (found via paging caches).
    target = hosts[-1]
    sink = FlowSink()
    target.on_data.append(sink.bind(sim))
    probe = Packet(
        src=cn.address, dst=target.address, size=300,
        created_at=sim.now, protocol="data", flow_id="probe", seq=0,
    )
    sink.flow_id = "probe"
    internet.receive(probe)
    sim.run(until=E10_DURATION + 3.0)
    return {
        "control_per_s": control / E10_DURATION,
        "first_packet_delay": _first(sink.delays),
    }


def _e10_scenario(count: int, seed: int) -> dict[str, float]:
    paging = _idle_population(count, True)
    forced = _idle_population(count, False)
    return {
        "paging_control_per_s": paging["control_per_s"],
        "no_paging_control_per_s": forced["control_per_s"],
        "paging_first_packet_delay": paging["first_packet_delay"],
        "savings_factor": forced["control_per_s"]
        / max(paging["control_per_s"], 1e-9),
    }


def experiment_e10(
    seeds: Iterable[int] = ONE_SEED,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """Idle-mode economy: a population of idle mobiles maintained by slow
    paging-updates versus one forced to keep route caches alive at the
    route-update cadence (no paging support)."""
    return sweep(
        "E10",
        "E10: idle-mode paging economy (paging-update 5s vs forced route-update 0.5s)",
        "idle_mobiles",
        list(IDLE_MOBILE_COUNTS),
        _e10_scenario,
        seeds,
        [
            "paging_control_per_s",
            "no_paging_control_per_s",
            "paging_first_packet_delay",
            "savings_factor",
        ],
        notes="Paging cuts idle-mode control traffic by roughly the period "
        "ratio (~10x) while the first downlink packet still arrives (it "
        "follows the paging caches), paying only a small extra delay.",
        backend=backend,
    )


# ----------------------------------------------------------------------
# E11 — multimedia QoS under background load (§4 capability d)
# ----------------------------------------------------------------------
#: Backhaul bottleneck: ~2x E1 (era-appropriate microwave/leased line).
BACKHAUL_BPS = 3e6
BACKGROUND_FLOWS = (0, 2, 4, 6, 8, 10)  # flows sharing the backhaul
E11_FOREGROUND_BPS = 200e3  # the foreground video stream
E11_BACKGROUND_PPS = 40.0  # 1000-byte packets per background flow
E11_DURATION = 10.0  # s of foreground streaming


def _e11_scenario(flows: int, seed: int) -> dict[str, float]:
    # One named stream per background flow (sim/rng.py's
    # variance-reduction discipline): flow k's arrivals are the
    # same whether 2 or 10 flows are configured.
    streams = RandomStreams(seed)
    world = MultiTierWorld(
        domain_kwargs={"wired_bandwidth": BACKHAUL_BPS}
    )
    sim = world.sim
    cell = world.domain1["B"]

    viewer = world.add_mobile("viewer")
    assert viewer.initial_attach(cell) is None

    # Background: Poisson data to other mobiles in the same
    # cell; every flow shares the R1->A->B backhaul.
    for index in range(flows):
        other = world.add_mobile(f"bg{index}")
        assert other.initial_attach(cell) is None
        PoissonSource(
            sim,
            world.cn.send,
            src=world.cn.address,
            dst=other.home_address,
            rng=streams.stream(f"background{index}.arrivals"),
            mean_rate_pps=E11_BACKGROUND_PPS,
            packet_size=1000,
            duration=E11_DURATION + 2.0,
        ).start()
    sim.run(until=1.0)

    source, sink = baselines.cbr_to_mobile(
        world, viewer, E11_FOREGROUND_BPS, E11_DURATION
    )
    sim.run(until=1.0 + E11_DURATION + 3.0)
    offered = (
        E11_FOREGROUND_BPS + flows * E11_BACKGROUND_PPS * 1000 * 8
    ) / BACKHAUL_BPS
    return {
        "offered_load": offered,
        "loss_rate": sink.loss_rate(source.packets_sent),
        "mean_delay": sink.mean_delay(),
        "jitter": sink.jitter(),
    }


def experiment_e11(
    seeds: Iterable[int] = DEFAULT_SEEDS,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """E11: foreground video QoS vs background load on the cell backhaul.

    The paper's architecture promises "Multimedia Quality of Service".
    This experiment loads one micro cell's *backhaul* (a 3 Mbit/s
    era-appropriate E1-class link into the cell) with competing
    background flows and measures the QoS-degradation curve of one
    foreground video stream: queueing delay and jitter rise as the
    offered load approaches the bottleneck, then drop-tail loss appears
    past saturation.

    Note on scope: radio links in this world are per-mobile (no shared
    air-interface model), so contention is created where the era's
    systems actually concentrated it — the wired backhaul shared by
    every mobile in the cell.
    """
    return sweep(
        "E11",
        "E11 (§4d): foreground video QoS vs background load "
        f"({BACKHAUL_BPS/1e6:g} Mbit/s backhaul, "
        f"{E11_BACKGROUND_PPS:.0f} pkt/s x 1000 B per background flow)",
        "background_flows",
        list(BACKGROUND_FLOWS),
        _e11_scenario,
        seeds,
        ["offered_load", "loss_rate", "mean_delay", "jitter"],
        notes="Queueing delay and jitter climb as offered load approaches "
        "the backhaul rate; once past ~1.0 the drop-tail queue sheds video "
        "packets — the QoS cliff the paper's admission control exists to "
        "stay clear of.",
        backend=backend,
    )
