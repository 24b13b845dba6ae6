"""Tests for the Mobile IP substrate: registration, tunnelling, handoff.

The canonical topology (paper Fig 2.2): a correspondent node (CN), a
home agent (HA) on the home network, and two foreign agents (FA1, FA2)
reachable across a wide-area backbone.
"""

from repro.mobileip import (
    ForeignAgent,
    HomeAgent,
    MobileIPNode,
    install_home_prefix_routes,
    messages,
)
from repro.net import Network, Packet, drop_totals, ip, protocol_hop_totals
from repro.sim import Simulator


def build_mobileip_world(backbone_delay=0.010):
    """CN -- core -- HA(home 10.99.0.0/16); core -- FA1, core -- FA2."""
    sim = Simulator()
    network = Network(sim)
    core = network.router("core")
    cn = network.host("cn")
    ha = HomeAgent(sim, "ha", network.allocator.allocate(), "10.99.0.0/16")
    fa1 = ForeignAgent(sim, "fa1", network.allocator.allocate())
    fa2 = ForeignAgent(sim, "fa2", network.allocator.allocate())
    for agent in (ha, fa1, fa2):
        network.add(agent)
    network.connect(cn, core, delay=0.002)
    network.connect(ha, core, delay=backbone_delay)
    network.connect(fa1, core, delay=backbone_delay)
    network.connect(fa2, core, delay=backbone_delay)
    network.install_routes()
    install_home_prefix_routes(network, ha)

    mn = MobileIPNode(
        sim,
        "mn",
        home_address="10.99.0.5",
        home_agent_address=ha.address,
    )
    return sim, network, cn, core, ha, fa1, fa2, mn


def test_registration_completes_after_attach():
    sim, network, cn, core, ha, fa1, fa2, mn = build_mobileip_world()
    fa1.attach_mobile(mn)
    sim.run(until=5.0)
    assert mn.is_registered
    assert mn.registered_agent == fa1.address
    assert ha.lookup_binding(mn.home_address).care_of_address == fa1.address
    assert mn.home_address in fa1.visitors


def test_registration_latency_recorded():
    sim, network, cn, core, ha, fa1, fa2, mn = build_mobileip_world()
    fa1.attach_mobile(mn)
    sim.run(until=5.0)
    assert len(mn.registration_latencies) == 1
    # Wireless up + FA->HA + HA->FA + wireless down, each >= 10ms backbone.
    assert 0.02 < mn.registration_latencies[0] < 0.1


def test_registration_latency_scales_with_backbone_delay():
    def latency(delay):
        sim, _n, _cn, _core, _ha, fa1, _fa2, mn = build_mobileip_world(delay)
        fa1.attach_mobile(mn)
        sim.run(until=5.0)
        return mn.registration_latencies[0]

    assert latency(0.050) > latency(0.005)


def test_cn_packets_tunneled_to_visiting_mn():
    sim, network, cn, core, ha, fa1, fa2, mn = build_mobileip_world()
    fa1.attach_mobile(mn)
    sim.run(until=2.0)

    received = []
    mn.on_protocol("data", lambda packet, link: received.append((packet, link)))
    cn_sends = Packet(
        src=cn.address, dst=mn.home_address, size=1000, created_at=sim.now
    )
    before = protocol_hop_totals(sim)
    core.receive(cn_sends)
    sim.run(until=4.0)
    after = protocol_hop_totals(sim)
    assert [link.head for _packet, link in received] == [fa1]
    assert ha.tunneled_count == 1
    # core -> HA and FA1 -> MN in the clear, HA -> core -> FA1 tunnelled.
    assert after["data"] - before.get("data", 0) == 2
    assert after["ipip"] - before.get("ipip", 0) == 2


def test_delivered_data_packet_fires_every_on_data_hook():
    sim, network, cn, core, ha, fa1, fa2, mn = build_mobileip_world()
    fa1.attach_mobile(mn)
    sim.run(until=2.0)

    first, second = [], []
    mn.on_data.extend([first.append, second.append])
    core.receive(Packet(src=cn.address, dst=mn.home_address, size=1000))
    sim.run(until=4.0)
    assert len(first) == len(second) == 1
    assert first[0] is second[0]
    assert first[0].dst == mn.home_address


def test_packets_before_registration_are_dropped_at_ha():
    sim, network, cn, core, ha, fa1, fa2, mn = build_mobileip_world()
    # MN attached nowhere; CN transmits immediately.
    core.receive(Packet(src=cn.address, dst=mn.home_address, size=1000))
    sim.run(until=1.0)
    assert drop_totals(sim) == {"no-binding": 1}


def test_handoff_between_foreign_agents_updates_binding():
    sim, network, cn, core, ha, fa1, fa2, mn = build_mobileip_world()
    fa1.attach_mobile(mn)
    sim.run(until=3.0)
    assert ha.lookup_binding(mn.home_address).care_of_address == fa1.address

    fa1.detach_mobile(mn)
    fa2.attach_mobile(mn)
    sim.run(until=6.0)
    assert mn.registered_agent == fa2.address
    assert ha.lookup_binding(mn.home_address).care_of_address == fa2.address


def test_packets_in_flight_during_handoff_are_lost():
    sim, network, cn, core, ha, fa1, fa2, mn = build_mobileip_world()
    fa1.attach_mobile(mn)
    sim.run(until=3.0)

    received = []
    mn.on_protocol("data", lambda packet, link: received.append(packet))

    # Detach and immediately stream packets before re-registration completes.
    fa1.detach_mobile(mn)
    fa2.attach_mobile(mn)
    for _ in range(3):
        core.receive(Packet(src=cn.address, dst=mn.home_address, size=500))
    sim.run(until=10.0)
    # All three raced the registration: tunneled to FA1, which no longer
    # knows the visitor.
    assert drop_totals(sim) == {"unknown-visitor": 3}
    assert received == []


def test_stale_registration_replay_denied():
    sim, network, cn, core, ha, fa1, fa2, mn = build_mobileip_world()
    fa1.attach_mobile(mn)
    sim.run(until=3.0)
    # Replay an old identification directly at the HA.
    replay = messages.RegistrationRequest(
        home_address=mn.home_address,
        home_agent=ha.address,
        care_of_address=fa2.address,
        lifetime=60.0,
        identification=1,  # already used
    )
    ha.receive(
        Packet(
            src=fa2.address,
            dst=ha.address,
            size=messages.REGISTRATION_REQUEST_BYTES,
            protocol=messages.REGISTRATION_REQUEST,
            payload=replay,
        )
    )
    sim.run(until=4.0)
    assert ha.registrations_denied >= 1
    # Binding unchanged.
    assert ha.lookup_binding(mn.home_address).care_of_address == fa1.address


def test_registration_for_foreign_home_agent_denied():
    sim, network, cn, core, ha, fa1, fa2, mn = build_mobileip_world()
    bogus = messages.RegistrationRequest(
        home_address=ip("10.99.0.77"),
        home_agent=ip("1.2.3.4"),
        care_of_address=fa1.address,
        lifetime=60.0,
        identification=1,
    )
    ha.receive(
        Packet(
            src=fa1.address,
            dst=ha.address,
            size=52,
            protocol=messages.REGISTRATION_REQUEST,
            payload=bogus,
        )
    )
    sim.run(until=1.0)
    assert ha.registrations_denied == 1


def test_binding_expires_after_lifetime():
    sim, network, cn, core, ha, fa1, fa2, mn = build_mobileip_world()
    mn.registration_lifetime = 5.0
    fa1.attach_mobile(mn)
    sim.run(until=2.0)
    assert ha.lookup_binding(mn.home_address) is not None
    # Detach so renewal advertisements stop reaching the MN.
    fa1.detach_mobile(mn)
    sim.run(until=20.0)
    assert ha.lookup_binding(mn.home_address) is None


def test_mn_to_cn_traffic_routes_directly_not_through_ha():
    sim, network, cn, core, ha, fa1, fa2, mn = build_mobileip_world()
    fa1.attach_mobile(mn)
    sim.run(until=3.0)
    received = []
    cn.on_protocol("data", lambda packet, link: received.append(packet))
    data_before = protocol_hop_totals(sim).get("data", 0)
    mn.originate(
        Packet(src=mn.home_address, dst=cn.address, size=800, created_at=sim.now)
    )
    sim.run(until=5.0)
    assert len(received) == 1
    # Triangle routing is one-directional: uplink bypasses the HA, so
    # the packet takes only MN -> FA1 -> core -> CN.
    assert protocol_hop_totals(sim)["data"] - data_before == 3


def test_triangle_routing_path_stretch():
    """CN->MN goes via the HA (longer); MN->CN is direct (shorter)."""
    sim, network, cn, core, ha, fa1, fa2, mn = build_mobileip_world(
        backbone_delay=0.020
    )
    fa1.attach_mobile(mn)
    sim.run(until=3.0)

    downlink_times = []
    uplink_times = []
    mn.on_protocol("data", lambda packet, link: downlink_times.append(sim.now - packet.created_at))
    cn.on_protocol("data", lambda packet, link: uplink_times.append(sim.now - packet.created_at))

    core.receive(Packet(src=cn.address, dst=mn.home_address, size=1000, created_at=sim.now))
    mn.originate(Packet(src=mn.home_address, dst=cn.address, size=1000, created_at=sim.now))
    sim.run(until=6.0)
    assert len(downlink_times) == 1 and len(uplink_times) == 1
    # Downlink (CN->core->HA->core->FA->MN) strictly longer than uplink.
    assert downlink_times[0] > uplink_times[0]
