"""The comparable mobility schemes for the headline experiments (E8 and
E8b, paper Fig 4.1) and the scenario pieces every E-series table is
built from: the downlink probe (:func:`cbr_to_mobile`), the scripted
mover (:func:`scripted_handoffs`) and the small worlds.

Each ``run_*`` function builds its own world, streams a downlink flow
from a correspondent to one mobile while the mobile performs a fixed
schedule of handoffs, and returns a metric dict.  The CBR runs share

``loss_rate, mean_delay, jitter, max_gap, duplicates, handoff_count``

* ``run_mobileip``   — plain Mobile IP, one FA per cell, every move is
  a full home registration (losses during the registration RTT).
* ``run_cip_hard``   — flat Cellular IP, hard handoff.
* ``run_cip_semisoft`` — flat Cellular IP, semisoft handoff.
* ``run_multitier_rsmc`` — the paper's scheme.

``run_elastic`` roams the same Cellular IP and multi-tier worlds under
a TCP-like AIMD flow instead (E8b).
"""

from __future__ import annotations

import inspect
from functools import partial
from typing import Optional

from repro.cellularip import CIPBaseStation, CIPDomain, CIPGateway, CIPMobileHost
from repro.mobileip import ForeignAgent, HomeAgent, MobileIPNode, install_home_prefix_routes
from repro.multitier.architecture import MultiTierWorld
from repro.net import Network, Router, ip
from repro.sim import Simulator
from repro.traffic import CBRSource, ElasticSource, FlowSink, make_ack_hook

#: Seeds every E-series experiment replicates over unless told otherwise.
DEFAULT_SEEDS = (1, 2, 3)

#: Stream parameters shared by every scheme in E8.
DEFAULT_RATE_BPS = 200e3
DEFAULT_PACKET_SIZE = 500


# ----------------------------------------------------------------------
# The downlink probe and the scripted mover
# ----------------------------------------------------------------------
def measured(sim: Simulator, hooks: list, source) -> tuple:
    """Start ``source`` with a sink for its flow attached via ``hooks``."""
    sink = FlowSink()
    hooks.append(sink.bind(sim))
    sink.flow_id = source.flow_id
    return source.start(), sink


def cbr_stream(
    sim, send, cn, mn, dst, duration,
    rate_bps: float = DEFAULT_RATE_BPS,
    packet_size: int = DEFAULT_PACKET_SIZE,
) -> tuple[CBRSource, FlowSink]:
    """A measured CBR downlink flow from ``cn`` to the mobile at ``dst``."""
    source = CBRSource(
        sim, send, cn.address, dst,
        rate_bps=rate_bps, packet_size=packet_size, duration=duration,
    )
    return measured(sim, mn.on_data, source)


def elastic_stream(sim, send, cn, mn, dst, duration) -> tuple[ElasticSource, FlowSink]:
    """A measured AIMD downlink flow; the mobile acks over its uplink."""
    source, sink = measured(
        sim, mn.on_data,
        ElasticSource(sim, send, src=cn.address, dst=dst, duration=duration),
    )
    mn.on_data.append(make_ack_hook(sim, mn.originate))
    cn.on_protocol("ack", lambda packet, link: source.acknowledge(packet.payload))
    return source, sink


def cbr_to_mobile(
    world: MultiTierWorld, mn, rate_bps: float, duration: float
) -> tuple[CBRSource, FlowSink]:
    """CBR (500-byte packets) from the CN to a multi-tier mobile, measured."""
    return cbr_stream(
        world.sim, world.cn.send, world.cn, mn, mn.home_address,
        duration, rate_bps,
    )


def scripted_handoffs(sim: Simulator, interval: float, targets, handoff) -> list:
    """Script a mobile's moves: every ``interval`` seconds call
    ``handoff(target)`` for the next of ``targets``, waiting for it to
    finish when it is a procedure (a generator).  Returns the list the
    outcomes are appended to."""
    outcomes = []

    def mover():
        for target in targets:
            yield sim.timeout(interval)
            step = handoff(target)
            outcomes.append(
                (yield from step) if inspect.isgenerator(step) else step
            )

    sim.process(mover())
    return outcomes


def _round_robin(cells: list, handoffs: int) -> list:
    """The cells a roaming mobile that starts in ``cells[0]`` visits."""
    return [cells[(index + 1) % len(cells)] for index in range(handoffs)]


def handoff_under_stream(
    world: MultiTierWorld, start, target, handoff_at: float,
    stream_s: float, until: float,
):
    """One scripted handoff ``start`` -> ``target`` while a 200 kbit/s
    stream flows to the mobile; returns ``(mn, source, sink)``."""
    sim = world.sim
    mn = world.add_mobile("mn")
    assert mn.initial_attach(start)
    sim.run(until=1.0)
    source, sink = cbr_to_mobile(world, mn, DEFAULT_RATE_BPS, stream_s)
    scripted_handoffs(sim, handoff_at, [target], mn.perform_handoff)
    sim.run(until=until)
    return mn, source, sink


def location_load(count: int, seed: int, duration: float) -> dict[str, float]:
    """``count`` stationary mobiles refreshing their location records in
    the Fig 3.1 hierarchy for ``duration`` seconds (E4 and T2)."""
    world = MultiTierWorld()
    d1 = world.domain1
    leaves = [d1["B"], d1["C"], d1["E"], d1["F"]]
    for index in range(count):
        mn = world.add_mobile(f"mn{index}")
        mn.initial_attach(leaves[index % len(leaves)])
    world.sim.run(until=duration)
    domain = d1.domain
    rate = count / domain.location_update_period
    # Hierarchy: measured message-hops/s (each refresh climbs its branch
    # only, depth 4-5).  Flat central: every refresh must cross
    # BS -> RSMC -> Internet -> HA, and one server absorbs all of it.
    branch_depth = 4  # leaf -> aggregation -> macro -> R3 -> RSMC
    return {
        "update_rate_per_s": rate,
        "location_msgs_per_s": domain.total_location_messages() / duration,
        "flat_central_msg_hops_per_s": rate * (branch_depth + 2),
        "root_load_per_s": d1.rsmc.location_messages_seen / duration,
        "max_station_load_per_s": max(
            bs.location_messages_seen for bs in domain.base_stations
        )
        / duration,
        "table_records": float(domain.total_table_records()),
        "records_per_station": domain.total_table_records()
        / len(domain.base_stations),
    }


def _metrics(source: CBRSource, sink: FlowSink, handoffs: int) -> dict[str, float]:
    return {
        "loss_rate": sink.loss_rate(source.packets_sent),
        "lost": float(sink.lost(source.packets_sent)),
        "mean_delay": sink.mean_delay(),
        "jitter": sink.jitter(),
        "max_gap": sink.max_gap(),
        "duplicates": float(sink.duplicates),
        "received": float(sink.received),
        "sent": float(source.packets_sent),
        "handoff_count": float(handoffs),
    }


# ----------------------------------------------------------------------
# Scheme 1: pure Mobile IP
# ----------------------------------------------------------------------
def build_mobileip_world(
    agent_count: int, home_delay: float, agent_delay: float, cn_delay: float
):
    """A core router joining the CN, the HA and ``agent_count`` foreign
    agents (one per cell), with the mobile registered at the first."""
    sim = Simulator()
    network = Network(sim)
    core = network.router("core")
    cn = network.host("cn")
    ha = HomeAgent(sim, "ha", network.allocator.allocate(), "10.99.0.0/16")
    agents = []
    for index in range(agent_count):
        agent = ForeignAgent(sim, f"fa{index}", network.allocator.allocate())
        network.add(agent)
        network.connect(agent, core, delay=agent_delay)
        agents.append(agent)
    network.add(ha)
    network.connect(cn, core, delay=cn_delay)
    network.connect(ha, core, delay=home_delay)
    network.install_routes()
    install_home_prefix_routes(network, ha)

    mn = MobileIPNode(
        sim, "mn", home_address="10.99.0.5", home_agent_address=ha.address
    )
    agents[0].attach_mobile(mn)
    return sim, core, cn, agents, mn


def run_mobileip(
    seed: int = 0,
    handoffs: int = 6,
    handoff_interval: float = 2.0,
    duration: float = 16.0,
    home_delay: float = 0.025,
    rate_bps: float = DEFAULT_RATE_BPS,
    packet_size: int = DEFAULT_PACKET_SIZE,
) -> dict[str, float]:
    """One FA per cell; every cell change re-registers with the HA."""
    sim, core, cn, agents, mn = build_mobileip_world(4, home_delay, 0.005, 0.005)
    sim.run(until=1.0)

    source, sink = measured(
        sim,
        mn.on_data,
        CBRSource(
            sim, lambda packet: core.receive(packet) or True,
            cn.address, mn.home_address,
            rate_bps=rate_bps, packet_size=packet_size, duration=duration,
        ),
    )
    serving = agents[0]

    def reattach(new):
        nonlocal serving
        serving.detach_mobile(mn)
        new.attach_mobile(mn)
        serving = new

    scripted_handoffs(sim, handoff_interval, _round_robin(agents, handoffs), reattach)
    sim.run(until=1.0 + duration + 4.0)
    return _metrics(source, sink, handoffs)


# ----------------------------------------------------------------------
# Schemes 2 & 3: flat Cellular IP (hard / semisoft)
# ----------------------------------------------------------------------
def build_cip_world(
    route_timeout: float = 5.0,
    semisoft_delay: float = 0.05,
    wired_delay: float = 0.005,
):
    """Gateway over two relays over four leaf base stations."""
    sim = Simulator()
    domain = CIPDomain(
        sim,
        route_timeout=route_timeout,
        semisoft_delay=semisoft_delay,
        wired_delay=wired_delay,
    )
    network = Network(sim)
    gw = CIPGateway(sim, "gw", network.allocator.allocate(), domain)
    relays = [
        CIPBaseStation(sim, f"m{index}", network.allocator.allocate(), domain)
        for index in range(2)
    ]
    leaves = [
        CIPBaseStation(sim, f"bs{index}", network.allocator.allocate(), domain)
        for index in range(4)
    ]
    for node in [gw, *relays, *leaves]:
        network.add(node)
    domain.link(gw, relays[0])
    domain.link(gw, relays[1])
    domain.link(relays[0], leaves[0])
    domain.link(relays[0], leaves[1])
    domain.link(relays[1], leaves[2])
    domain.link(relays[1], leaves[3])

    internet = Router(sim, "internet", network.allocator.allocate())
    cn = network.host("cn")
    network.add(internet)
    network.connect(cn, internet, delay=0.005)
    gw.connect_internet(internet, delay=0.005)
    internet.add_route("10.200.0.0/16", gw)
    internet.add_host_route(cn.address, cn)
    mn = CIPMobileHost(sim, "mn", ip("10.200.0.1"), domain)
    return sim, domain, gw, leaves, internet, cn, mn


def _roam_cip(semisoft: bool, handoffs, handoff_interval, duration, open_stream):
    """Roam the four CIP leaves under ``open_stream``'s flow."""
    sim, domain, gw, leaves, internet, cn, mn = build_cip_world()
    mn.attach_to(leaves[0])
    sim.run(until=1.0)
    source, sink = open_stream(
        sim, lambda packet: internet.receive(packet) or True,
        cn, mn, mn.address, duration,
    )
    scripted_handoffs(
        sim, handoff_interval, _round_robin(leaves, handoffs),
        mn.handoff_semisoft if semisoft else mn.handoff_hard,
    )
    sim.run(until=1.0 + duration + 4.0)
    return source, sink


def _run_cip(
    semisoft: bool,
    seed: int = 0,
    handoffs: int = 6,
    handoff_interval: float = 2.0,
    duration: float = 16.0,
    rate_bps: float = DEFAULT_RATE_BPS,
    packet_size: int = DEFAULT_PACKET_SIZE,
) -> dict[str, float]:
    source, sink = _roam_cip(
        semisoft, handoffs, handoff_interval, duration,
        partial(cbr_stream, rate_bps=rate_bps, packet_size=packet_size),
    )
    return _metrics(source, sink, handoffs)


run_cip_hard = partial(_run_cip, False)
run_cip_semisoft = partial(_run_cip, True)


# ----------------------------------------------------------------------
# Scheme 4: the paper's multi-tier + RSMC
# ----------------------------------------------------------------------
def _roam_multitier(handoffs, handoff_interval, duration, open_stream, **world_kwargs):
    """Roam cells B, C, E, F of the Fig 3.1 domain under ``open_stream``'s flow."""
    world = MultiTierWorld(**world_kwargs)
    sim = world.sim
    d1 = world.domain1
    cells = [d1["B"], d1["C"], d1["E"], d1["F"]]
    mn = world.add_mobile("mn")
    assert mn.initial_attach(cells[0])
    sim.run(until=1.0)
    source, sink = open_stream(
        sim, world.cn.send, world.cn, mn, mn.home_address, duration
    )
    scripted_handoffs(
        sim, handoff_interval, _round_robin(cells, handoffs), mn.perform_handoff
    )
    sim.run(until=1.0 + duration + 4.0)
    return source, sink, world, mn


def run_multitier_rsmc(
    seed: int = 0,
    handoffs: int = 6,
    handoff_interval: float = 2.0,
    duration: float = 16.0,
    home_delay: float = 0.025,
    rate_bps: float = DEFAULT_RATE_BPS,
    packet_size: int = DEFAULT_PACKET_SIZE,
    domain_kwargs: Optional[dict] = None,
) -> dict[str, float]:
    source, sink, world, mn = _roam_multitier(
        handoffs, handoff_interval, duration,
        partial(cbr_stream, rate_bps=rate_bps, packet_size=packet_size),
        home_delay=home_delay, domain_kwargs=domain_kwargs,
    )
    metrics = _metrics(source, sink, handoffs)
    metrics["buffered"] = float(world.domain1.rsmc.buffered_packets)
    metrics["handoff_latency"] = (
        sum(mn.handoff_latencies) / len(mn.handoff_latencies)
        if mn.handoff_latencies
        else float("nan")
    )
    return metrics


def run_elastic(
    roam,
    seed: int = 0,
    handoffs: int = 6,
    handoff_interval: float = 2.0,
    duration: float = 16.0,
) -> dict[str, float]:
    """Roam one of the worlds above under a TCP-like AIMD flow whose acks
    travel the real uplink as packets; nothing is short-circuited."""
    source, sink = roam(handoffs, handoff_interval, duration, elastic_stream)[:2]
    return {
        "goodput_bps": sink.bytes_received * 8.0 / duration,
        "lossy_windows": float(source.windows_lossy),
        "clean_windows": float(source.windows_clean),
        "final_window": source.window,
    }


#: Registry used by E8 and the examples.
SCHEMES = {
    "mobile-ip": run_mobileip,
    "cip-hard": run_cip_hard,
    "cip-semisoft": run_cip_semisoft,
    "multitier-rsmc": run_multitier_rsmc,
}

#: The loss-sensitive subset E8b runs under elastic traffic.
ELASTIC_SCHEMES = {
    "cip-hard": partial(run_elastic, partial(_roam_cip, False)),
    "cip-semisoft": partial(run_elastic, partial(_roam_cip, True)),
    "multitier-rsmc": partial(run_elastic, _roam_multitier),
}


def run_scheme(name: str, seed: int = 0, **kwargs) -> dict[str, float]:
    """Run one named scheme — the execution-engine job entry point used
    by E8's scheme-comparison grid."""
    try:
        runner = SCHEMES[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; available: {', '.join(SCHEMES)}"
        ) from None
    return runner(seed, **kwargs)
