"""Failure injection: lossy radio links, wired link failures, and the
protocol machinery that recovers (retransmission, soft-state expiry,
handoff timeout)."""

from repro.cellularip import CIPBaseStation, CIPDomain, CIPGateway, CIPMobileHost
from repro.mobileip import (
    ForeignAgent,
    HomeAgent,
    MobileIPNode,
    install_home_prefix_routes,
)
from repro.multitier.architecture import MultiTierWorld
from repro.net import Network, Packet, drop_totals, ip
from repro.sim import Simulator


def test_mobileip_registration_survives_lossy_radio():
    """The registration state machine retransmits with backoff until a
    reply gets through a 40%-loss radio link."""
    sim = Simulator()
    network = Network(sim)
    core = network.router("core")
    ha = HomeAgent(sim, "ha", network.allocator.allocate(), "10.99.0.0/16")
    fa = ForeignAgent(sim, "fa", network.allocator.allocate())
    network.add(ha)
    network.add(fa)
    network.connect(ha, core, delay=0.005)
    network.connect(fa, core, delay=0.005)
    network.install_routes()
    install_home_prefix_routes(network, ha)

    mn = MobileIPNode(
        sim, "mn", home_address="10.99.0.5", home_agent_address=ha.address
    )
    fa.attach_mobile(mn)
    # Corrupt the radio links after attach.
    for link in list(fa.links.values()) + list(mn.links.values()):
        link.loss_rate = 0.4
    sim.run(until=60.0)
    assert mn.is_registered
    assert mn.registration_attempts >= 1
    assert ha.lookup_binding(mn.home_address) is not None


def test_wired_link_failure_blackholes_then_recovers():
    """A failed CIP tree link drops descending packets; once repaired and
    the caches refreshed, traffic resumes."""
    sim = Simulator()
    domain = CIPDomain(sim, route_timeout=2.0, route_update_time=0.5)
    network = Network(sim)
    gw = CIPGateway(sim, "gw", network.allocator.allocate(), domain)
    mid = CIPBaseStation(sim, "mid", network.allocator.allocate(), domain)
    leaf = CIPBaseStation(sim, "leaf", network.allocator.allocate(), domain)
    for node in (gw, mid, leaf):
        network.add(node)
    domain.link(gw, mid)
    domain.link(mid, leaf)

    from repro.net import Router

    internet = Router(sim, "internet", network.allocator.allocate())
    cn = network.host("cn")
    network.add(internet)
    network.connect(cn, internet)
    gw.connect_internet(internet)
    internet.add_route("10.200.0.0/16", gw)
    internet.add_host_route(cn.address, cn)

    mn = CIPMobileHost(sim, "mn", ip("10.200.0.1"), domain)
    mn.attach_to(leaf)
    sim.run(until=1.0)

    got = []
    mn.on_data.append(lambda packet: got.append(packet.seq))

    def send(seq):
        internet.receive(
            Packet(src=cn.address, dst=mn.address, size=300, seq=seq,
                   created_at=sim.now, flow_id="f")
        )

    send(1)
    sim.run(until=2.0)
    assert got == [1]

    # Fail the gw->mid direction.
    failed = gw.link_to(mid)
    failed.up = False
    send(2)
    sim.run(until=3.0)
    assert got == [1]  # blackholed

    failed.up = True
    sim.run(until=5.0)  # let route updates re-traverse
    send(3)
    sim.run(until=6.0)
    assert got == [1, 3]


def test_handoff_request_times_out_over_dead_radio():
    """A handoff request into a BS whose radio immediately fails must
    time out and leave the mobile on its old station."""
    world = MultiTierWorld()
    sim = world.sim
    d1 = world.domain1
    mn = world.add_mobile("mn")
    assert mn.initial_attach(d1["F"]) is None
    sim.run(until=1.0)

    target = d1["E"]
    results = []

    def mover():
        # Connect, then kill the new radio before the request gets out.
        target.radio_connect(mn)
        for link in (mn.link_to(target), target.link_to(mn)):
            if link is not None:
                link.up = False
        results.append((yield from mn.perform_handoff(target)))

    sim.process(mover())
    sim.run(until=3.0)
    assert results == ["handoff-timeout"]
    assert mn.serving_bs is d1["F"]


def test_stream_survives_lossy_wireless_with_gaps():
    """Random wireless loss shows up as loss rate, not a crash."""
    world = MultiTierWorld()
    sim = world.sim
    mn = world.add_mobile("mn")
    assert mn.initial_attach(world.domain1["B"]) is None
    sim.run(until=1.0)
    # 20% downlink radio loss.
    link = world.domain1["B"].link_to(mn)
    link.loss_rate = 0.2

    got = []
    mn.on_data.append(lambda packet: got.append(packet.seq))
    for seq in range(100):
        sim.call_later(seq * 0.01, world.cn.send_to_mobile, mn.home_address, 300)
    sim.run(until=5.0)
    assert 50 < mn.data_received < 100
    # Every packet the mobile missed was lost on the lossy radio link.
    assert drop_totals(sim) == {"link-loss": 100 - mn.data_received}
    assert mn.data_received == 78


def test_buffer_guard_prevents_unbounded_memory():
    """If an accepted handoff never completes, the RSMC buffer is
    bounded by buffer_size and reclaimed by the guard."""
    world = MultiTierWorld(domain_kwargs={"buffer_size": 8})
    sim = world.sim
    rsmc = world.domain1.rsmc
    mn = world.add_mobile("mn")
    assert mn.initial_attach(world.domain1["B"]) is None
    sim.run(until=1.0)

    rsmc._start_buffering(mn.home_address)
    for seq in range(50):
        sim.call_later(seq * 0.005, world.cn.send_to_mobile, mn.home_address, 300)
    sim.run(until=5.0)
    assert rsmc.buffered_packets == 8
    # 42 turned away at the full buffer, the 8 held abandoned by the guard.
    assert drop_totals(sim) == {"buffer-full": 42, "buffer-abandoned": 8}
    assert mn.home_address not in rsmc._buffers
