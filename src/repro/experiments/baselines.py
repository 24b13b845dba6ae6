"""The scenario pieces every E-series table is built from — the downlink
probes (:func:`cbr_stream`, :func:`cbr_to_mobile`), the scripted mover
(:func:`scripted_handoffs`) and the small worlds — and the comparable
mobility schemes of the headline experiments (E8 and E8b, paper
Fig 4.1).

A scheme is a builder that returns a :class:`Scheme`: the simulator,
the downlink entry (``send``, the correspondent ``cn``, the destination
``dst``), the attached mobile, the cells it tours from ``cells[0]`` and
its ``move(target)``.  :func:`roam` is the one script every scheme runs
under: stream from t = 1 s, move round the cells every
``handoff_interval`` seconds, drain, and return the probe's metrics —
for the CBR probe

``loss_rate, lost, mean_delay, jitter, max_gap, duplicates, received,
sent, handoff_count``

* :func:`mobileip_scheme` — plain Mobile IP, one FA per cell, every move
  is a full home registration (losses during the registration RTT).
* :func:`cip_scheme` — flat Cellular IP, hard or semisoft handoff.
* :func:`multitier_scheme` — the paper's scheme; it also attaches at a
  given station of a caller's world (E5/E6, E7, AB1).

E8b roams the last three under a TCP-like AIMD flow instead.
"""

from __future__ import annotations

import inspect
from functools import partial
from typing import Callable, NamedTuple, Optional

from repro.cellularip import CIPBaseStation, CIPDomain, CIPGateway, CIPMobileHost
from repro.mobileip import ForeignAgent, HomeAgent, MobileIPNode, install_home_prefix_routes
from repro.multitier.architecture import MultiTierWorld
from repro.net import Network, Router, ip
from repro.sim import Simulator
from repro.traffic import CBRSource, ElasticSource, FlowSink, make_ack_hook

#: Seeds an E-series experiment that draws a random stream replicates over.
DEFAULT_SEEDS = (1, 2, 3)

#: The seed of an experiment that draws no random stream: every seed
#: runs the same world, so one run is the whole replication.
ONE_SEED = (1,)

#: Stream parameters shared by every scheme in E8.
DEFAULT_RATE_BPS = 200e3
DEFAULT_PACKET_SIZE = 500


# ----------------------------------------------------------------------
# The downlink probes and the scripted mover
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
            yield interval
            step = handoff(target)
            outcomes.append(
                (yield from step) if inspect.isgenerator(step) else step
            )

    sim.process(mover())
    return outcomes


#: Simulated seconds of location refreshes in E4 and T2.
LOCATION_DURATION = 20.0


def location_load(count: int, seed: int) -> dict[str, float]:
    """``count`` stationary mobiles refreshing their location records in
    the Fig 3.1 hierarchy for :data:`LOCATION_DURATION` seconds (E4 and
    T2)."""
    world = MultiTierWorld()
    d1 = world.domain1
    leaves = [d1["B"], d1["C"], d1["E"], d1["F"]]
    for index in range(count):
        mn = world.add_mobile(f"mn{index}")
        mn.initial_attach(leaves[index % len(leaves)])
    world.sim.run(until=LOCATION_DURATION)
    domain = d1.domain
    rate = count / domain.location_update_period
    # Hierarchy: measured message-hops/s (each refresh climbs its branch
    # only, depth 4-5).  Flat central: every refresh must cross
    # BS -> RSMC -> Internet -> HA, and one server absorbs all of it.
    branch_depth = 4  # leaf -> aggregation -> macro -> R3 -> RSMC
    return {
        "update_rate_per_s": rate,
        "location_msgs_per_s": domain.total_location_messages()
        / LOCATION_DURATION,
        "flat_central_msg_hops_per_s": rate * (branch_depth + 2),
        "root_load_per_s": d1.rsmc.location_messages_seen / LOCATION_DURATION,
        "max_station_load_per_s": max(
            bs.location_messages_seen for bs in domain.base_stations
        )
        / LOCATION_DURATION,
        "table_records": float(domain.total_table_records()),
        "records_per_station": domain.total_table_records()
        / len(domain.base_stations),
    }


# ----------------------------------------------------------------------
# One scheme = one world and its move; one roam drives them all
# ----------------------------------------------------------------------
class Scheme(NamedTuple):
    """What :func:`roam` needs of one scheme's world."""

    sim: Simulator
    #: Injects a downlink packet at the correspondent's side.
    send: Callable
    cn: object
    dst: object
    mn: object
    #: The cells the mobile tours; it is attached at ``cells[0]``.
    cells: list
    #: ``move(target)``: one handoff, a value or a generator procedure.
    move: Callable


def roam(
    scheme: Scheme,
    handoffs: int,
    handoff_interval: float,
    duration: float,
    drain: float = 4.0,
    elastic: bool = False,
) -> dict[str, float]:
    """Stream to ``scheme``'s mobile from t = 1 s for ``duration``
    seconds while it makes ``handoffs`` moves round its cells, one every
    ``handoff_interval`` seconds; run ``drain`` seconds more and return
    the CBR probe's metrics, or with ``elastic`` the AIMD flow's (its
    acks travel the real uplink as packets; nothing is short-circuited)."""
    sim, cells = scheme.sim, scheme.cells
    sim.run(until=1.0)
    source, sink = (elastic_stream if elastic else cbr_stream)(
        sim, scheme.send, scheme.cn, scheme.mn, scheme.dst, duration
    )
    targets = [cells[(index + 1) % len(cells)] for index in range(handoffs)]
    scripted_handoffs(sim, handoff_interval, targets, scheme.move)
    sim.run(until=1.0 + duration + drain)
    if elastic:
        return {
            "goodput_bps": sink.bytes_received * 8.0 / duration,
            "lossy_windows": float(source.windows_lossy),
            "clean_windows": float(source.windows_clean),
            "final_window": source.window,
        }
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


def mobileip_scheme() -> Scheme:
    """Four FAs, one per cell; every cell change re-registers with the HA."""
    sim, core, cn, agents, mn = build_mobileip_world(4, 0.025, 0.005, 0.005)
    serving = agents[0]

    def reattach(new):
        nonlocal serving
        serving.detach_mobile(mn)
        new.attach_mobile(mn)
        serving = new

    return Scheme(
        sim, lambda packet: core.receive(packet) or True,
        cn, mn.home_address, mn, agents, reattach,
    )


# ----------------------------------------------------------------------
# Schemes 2 & 3: flat Cellular IP (hard / semisoft)
# ----------------------------------------------------------------------
def build_cip_world(route_timeout: float = 5.0):
    """Gateway over two relays over four leaf base stations."""
    sim = Simulator()
    domain = CIPDomain(
        sim, route_timeout=route_timeout, semisoft_delay=0.05, wired_delay=0.005
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


def cip_scheme(semisoft: bool) -> Scheme:
    """The four CIP leaves, toured with semisoft or hard handoffs."""
    sim, _domain, _gw, leaves, internet, cn, mn = build_cip_world()
    mn.attach_to(leaves[0])
    return Scheme(
        sim, lambda packet: internet.receive(packet) or True,
        cn, mn.address, mn, leaves,
        mn.handoff_semisoft if semisoft else mn.handoff_hard,
    )


# ----------------------------------------------------------------------
# Scheme 4: the paper's multi-tier + RSMC
# ----------------------------------------------------------------------
def multitier_scheme(
    world: Optional[MultiTierWorld] = None, cells: Optional[list] = None
) -> Scheme:
    """A mobile attached at ``cells[0]`` of ``world``; by default a fresh
    Fig 3.1 world and its cells B, C, E, F."""
    if world is None:
        world = MultiTierWorld()
    if cells is None:
        d1 = world.domain1
        cells = [d1["B"], d1["C"], d1["E"], d1["F"]]
    mn = world.add_mobile("mn")
    assert mn.initial_attach(cells[0]) is None
    return Scheme(
        world.sim, world.cn.send, world.cn, mn.home_address, mn, cells,
        mn.perform_handoff,
    )


#: The four schemes of Fig 4.1 (E8); E8b roams the last three.
SCHEMES = {
    "mobile-ip": mobileip_scheme,
    "cip-hard": partial(cip_scheme, False),
    "cip-semisoft": partial(cip_scheme, True),
    "multitier-rsmc": multitier_scheme,
}
