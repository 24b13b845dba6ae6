"""Integration tests for the Cellular IP access network: routing,
paging, idle/active states and both handoff styles.

Topology (paper Fig 2.3 / 2.4): a gateway over a two-level tree.

                 gw
               /    \\
             m1      m2
            /  \\    /  \\
          bs1  bs2 bs3  bs4
"""

import pytest

from repro.cellularip import (
    CIPBaseStation,
    CIPDomain,
    CIPGateway,
    CIPMobileHost,
)
from repro.net import Network, Packet, Router, drop_totals, ip, protocol_hop_totals
from repro.sim import Simulator


def build_cip_tree(**domain_kwargs):
    sim = Simulator()
    domain = CIPDomain(sim, **domain_kwargs)
    network = Network(sim, prefix="10.0.0.0/8")

    gw = CIPGateway(sim, "gw", network.allocator.allocate(), domain)
    m1 = CIPBaseStation(sim, "m1", network.allocator.allocate(), domain)
    m2 = CIPBaseStation(sim, "m2", network.allocator.allocate(), domain)
    bs = {}
    for index in range(1, 5):
        bs[index] = CIPBaseStation(
            sim, f"bs{index}", network.allocator.allocate(), domain
        )
    for node in [gw, m1, m2, *bs.values()]:
        network.add(node)
    domain.link(gw, m1)
    domain.link(gw, m2)
    domain.link(m1, bs[1])
    domain.link(m1, bs[2])
    domain.link(m2, bs[3])
    domain.link(m2, bs[4])

    internet = Router(sim, "internet", network.allocator.allocate())
    cn = network.host("cn")
    network.add(internet)
    network.connect(cn, internet, delay=0.002)
    gw.connect_internet(internet, delay=0.005)
    # The Internet routes the whole mobile prefix at the gateway.
    internet.add_route("10.200.0.0/16", gw)
    internet.add_host_route(cn.address, cn)

    mn = CIPMobileHost(sim, "mn", ip("10.200.0.1"), domain)
    return sim, domain, network, gw, m1, m2, bs, internet, cn, mn


def stream_downlink(sim, cn, internet, mn_address, count, interval, size=500, start=0.0):
    """Schedule a CBR burst from the CN toward the mobile.

    ``start`` is a delay relative to the current simulation time.
    """
    sent = []

    def send_one(seq):
        packet = Packet(
            src=cn.address,
            dst=mn_address,
            size=size,
            seq=seq,
            flow_id="down",
            created_at=sim.now,
        )
        sent.append(packet)
        internet.receive(packet)

    for seq in range(count):
        sim.call_later(start + seq * interval, send_one, seq)
    return sent


def test_uplink_data_reaches_cn_and_refreshes_caches():
    sim, domain, network, gw, m1, m2, bs, internet, cn, mn = build_cip_tree()
    mn.attach_to(bs[1])
    received = []
    cn.on_protocol("data", lambda packet, link: received.append(packet))
    sim.call_later(0.1, lambda: mn.originate(
        Packet(src=mn.address, dst=cn.address, size=400, created_at=sim.now)
    ))
    sim.run(until=1.0)
    assert len(received) == 1
    # Caches along bs1 -> m1 -> gw all know the mobile now.
    assert mn.address in bs[1].routing_cache
    assert mn.address in m1.routing_cache
    assert mn.address in gw.routing_cache


def test_downlink_follows_cached_path():
    sim, domain, network, gw, m1, m2, bs, internet, cn, mn = build_cip_tree()
    mn.attach_to(bs[2])
    sim.run(until=0.5)

    got = []
    mn.on_data.append(lambda packet: got.append(packet.seq))
    stream_downlink(sim, cn, internet, mn.address, count=5, interval=0.05, start=0.5)
    sim.run(until=2.0)
    assert got == [0, 1, 2, 3, 4]
    # internet -> gw -> m1 -> bs2 -> mn per packet: the cached path, no
    # paging flood and no detour.
    assert protocol_hop_totals(sim)["data"] == 5 * 4


def test_route_update_consumed_at_gateway():
    sim, domain, network, gw, m1, m2, bs, internet, cn, mn = build_cip_tree()
    mn.attach_to(bs[1])
    sim.run(until=0.3)
    # The gateway must not leak control packets to the Internet: every
    # hop is a route update on mn -> bs1 -> m1 -> gw, none goes on.
    assert mn.route_updates_sent == 1
    assert protocol_hop_totals(sim) == {"cip-route-update": 3}


def test_hard_handoff_loses_in_flight_packets():
    sim, domain, network, gw, m1, m2, bs, internet, cn, mn = build_cip_tree(
        route_timeout=5.0
    )
    mn.attach_to(bs[1])
    sim.run(until=0.5)
    got = []
    mn.on_data.append(lambda packet: got.append(packet.seq))

    # 50 packets at 5 ms spacing; handoff bs1 -> bs4 mid-stream.
    stream_downlink(sim, cn, internet, mn.address, count=50, interval=0.005, start=0.5)
    sim.call_later(0.56, mn.handoff_hard, bs[4])
    sim.run(until=3.0)

    lost = set(range(50)) - set(got)
    # Hard handoff: the packets already below the crossover (gw here)
    # when the radio switched are gone; the stream then resumes.
    assert lost, "hard handoff should lose at least one packet"
    assert len(lost) < 10
    # Each lost packet died on bs1's mapping to the departed radio link.
    assert drop_totals(sim) == {"stale-mapping": len(lost)} == {"stale-mapping": 2}
    assert mn.serving_bs is bs[4]


def test_semisoft_handoff_avoids_losses():
    sim, domain, network, gw, m1, m2, bs, internet, cn, mn = build_cip_tree(
        route_timeout=5.0, semisoft_delay=0.05
    )
    mn.attach_to(bs[1])
    sim.run(until=0.5)
    got = []
    mn.on_data.append(lambda packet: got.append(packet.seq))

    stream_downlink(sim, cn, internet, mn.address, count=50, interval=0.005, start=0.5)
    sim.call_later(0.56, lambda: sim.process(mn.handoff_semisoft(bs[4])))
    sim.run(until=3.0)

    lost = set(range(50)) - set(got)
    assert lost == set(), f"semisoft handoff lost {sorted(lost)}"
    # The dual-path interval produced duplicates which were discarded.
    assert mn.duplicates_discarded > 0


def test_handoff_between_sibling_cells_has_lower_crossover():
    """bs1 -> bs2 handoff crosses over at m1, not at the gateway: the
    caches above m1 never change."""
    sim, domain, network, gw, m1, m2, bs, internet, cn, mn = build_cip_tree(
        route_timeout=5.0
    )
    mn.attach_to(bs[1])
    sim.run(until=0.5)
    gw_hops_before = gw.routing_cache.lookup(mn.address)
    sim.call_later(0.1, mn.handoff_hard, bs[2])  # at t=0.6
    sim.run(until=1.0)
    assert m1.routing_cache.lookup(mn.address) == [bs[2]]
    assert gw.routing_cache.lookup(mn.address) == gw_hops_before


def test_mobile_goes_idle_and_sends_paging_updates():
    sim, domain, network, gw, m1, m2, bs, internet, cn, mn = build_cip_tree(
        active_state_timeout=1.0, paging_update_time=2.0, route_update_time=0.5
    )
    mn.attach_to(bs[3])
    sim.call_later(0.1, lambda: mn.originate(
        Packet(src=mn.address, dst=cn.address, size=100, created_at=sim.now)
    ))
    sim.run(until=0.5)
    assert mn.is_active
    sim.run(until=10.0)
    assert not mn.is_active
    assert mn.paging_updates_sent >= 1


def test_idle_mobile_found_by_paging_cache():
    sim, domain, network, gw, m1, m2, bs, internet, cn, mn = build_cip_tree(
        active_state_timeout=0.5,
        route_timeout=1.0,
        paging_update_time=1.0,
    )
    mn.attach_to(bs[4])
    sim.run(until=5.0)  # long enough for route caches to expire
    assert not mn.is_active
    assert gw.routing_cache.lookup(mn.address) == []
    assert gw.paging_cache.lookup(mn.address) != []

    got = []
    mn.on_data.append(lambda packet: got.append(packet.seq))
    stream_downlink(sim, cn, internet, mn.address, count=1, interval=0.01)
    sim.run(until=6.0)
    assert got == [0]


def test_unknown_mobile_broadcast_paged_or_dropped():
    sim, domain, network, gw, m1, m2, bs, internet, cn, mn = build_cip_tree()
    # A mobile the domain knows but that never attached anywhere.
    ghost = ip("10.200.0.77")
    domain.register_mobile(ghost)
    stream_downlink(sim, cn, internet, ghost, count=1, interval=0.01)
    sim.run(until=1.0)
    assert gw.paging_broadcasts == 1
    # Flood reached the leaves, nobody had it: dropped at every leaf.
    assert drop_totals(sim) == {"no-mapping": 4}


def test_broadcast_paging_disabled_drops_at_gateway():
    sim, domain, network, gw, m1, m2, bs, internet, cn, mn = build_cip_tree(
        broadcast_paging=False
    )
    ghost = ip("10.200.0.88")
    domain.register_mobile(ghost)
    stream_downlink(sim, cn, internet, ghost, count=1, interval=0.01)
    sim.run(until=1.0)
    assert drop_totals(sim) == {"no-mapping": 1}
    assert gw.paging_broadcasts == 0


def test_active_mobile_sends_route_updates_when_silent():
    sim, domain, network, gw, m1, m2, bs, internet, cn, mn = build_cip_tree(
        route_update_time=0.2, active_state_timeout=60.0
    )
    mn.attach_to(bs[1])
    # Make it active once; then stay silent and let the timer fill gaps.
    sim.call_later(0.05, lambda: mn.originate(
        Packet(src=mn.address, dst=cn.address, size=100, created_at=sim.now)
    ))
    sim.run(until=2.0)
    assert mn.route_updates_sent >= 5


def test_domain_control_packet_accounting():
    sim, domain, network, gw, m1, m2, bs, internet, cn, mn = build_cip_tree()
    mn.attach_to(bs[1])
    sim.run(until=2.0)
    # Route updates traverse bs1, m1 and gw: each counts them.
    assert domain.total_control_packets() >= 3


def test_double_gateway_rejected():
    sim = Simulator()
    domain = CIPDomain(sim)
    CIPGateway(sim, "gw1", ip("10.0.0.1"), domain)
    with pytest.raises(ValueError):
        CIPGateway(sim, "gw2", ip("10.0.0.2"), domain)


def test_relink_child_rejected():
    sim = Simulator()
    domain = CIPDomain(sim)
    gw = CIPGateway(sim, "gw", ip("10.0.0.1"), domain)
    child = CIPBaseStation(sim, "c", ip("10.0.0.2"), domain)
    domain.link(gw, child)
    with pytest.raises(ValueError):
        domain.link(gw, child)
