"""Edge-case tests for the RSMC: buffering limits, departure
forwarding, authentication, guard timers and paging."""

from repro.multitier.architecture import MultiTierWorld
from repro.net import Packet, drop_totals, ip


def test_buffer_overflow_counts_and_drops():
    world = MultiTierWorld(domain_kwargs={"buffer_size": 3})
    sim = world.sim
    rsmc = world.domain1.rsmc
    mn = world.add_mobile("mn")
    assert mn.initial_attach(world.domain1["B"]) is None
    sim.run(until=1.0)

    # Force buffering and pour in more packets than the buffer holds.
    rsmc._start_buffering(mn.home_address)
    for seq in range(10):
        world.cn.send_to_mobile(mn.home_address, seq=seq)
    sim.run(until=2.0)
    assert rsmc.buffered_packets == 3
    assert drop_totals(sim) == {"buffer-full": 7}


def test_buffer_guard_abandons_stuck_handoff():
    world = MultiTierWorld()
    sim = world.sim
    rsmc = world.domain1.rsmc
    mn = world.add_mobile("mn")
    assert mn.initial_attach(world.domain1["B"]) is None
    sim.run(until=1.0)

    rsmc._start_buffering(mn.home_address)
    world.cn.send_to_mobile(mn.home_address, seq=0)
    sim.run(until=2.9)
    assert rsmc.buffered_packets == 1
    # No Update Location Message ever arrives: the 2 s guard discards.
    sim.run(until=3.1)
    assert drop_totals(sim) == {"buffer-abandoned": 1}
    assert mn.home_address not in rsmc._buffers


def test_departure_forwarding_to_new_domain():
    """After an inter-domain move, packets held at the old RSMC are
    tunneled to the new one once the HA reports the new binding."""
    world = MultiTierWorld(second_domain=True, home_delay=0.05)
    sim = world.sim
    mn = world.add_mobile("mn")
    assert mn.initial_attach(world.domain1["F"]) is None
    sim.run(until=1.0)

    got = []
    mn.on_data.append(lambda packet: got.append(packet.seq))

    def mover():
        yield sim.timeout(0.5)
        assert (yield from mn.perform_handoff(world.domain2["G"])) is None

    # Stream across the move.
    for seq in range(40):
        sim.call_later(seq * 0.02, world.cn.send_to_mobile, mn.home_address, 500)
    sim.process(mover())
    sim.run(until=8.0)
    assert world.domain1.rsmc.forwarded_to_new_domain > 0
    assert mn.data_received == 40  # nothing lost across domains


def test_forward_grace_expires():
    world = MultiTierWorld(second_domain=True)
    sim = world.sim
    rsmc1 = world.domain1.rsmc
    mn = world.add_mobile("mn")
    assert mn.initial_attach(world.domain1["F"]) is None
    sim.run(until=1.0)

    def mover():
        yield sim.timeout(0.1)
        yield from mn.perform_handoff(world.domain2["G"])

    sim.process(mover())
    sim.run(until=3.0)
    # Pointer installed during the move...
    assert mn.home_address in rsmc1._forward_to
    # ...but a late packet after the 5 s grace period is not forwarded.
    sim.run(until=7.0)
    before = rsmc1.forwarded_to_new_domain
    # Inject directly at the old RSMC (emulating a stale route).
    rsmc1._route_mobile_packet(
        Packet(src=world.cn.address, dst=mn.home_address, size=100), None
    )
    sim.run(until=8.0)
    assert rsmc1.forwarded_to_new_domain == before
    assert mn.home_address not in rsmc1._forward_to


def test_authentication_counted_once_per_domain():
    world = MultiTierWorld()
    sim = world.sim
    d1 = world.domain1
    mn = world.add_mobile("mn")
    assert mn.initial_attach(d1["B"]) is None
    sim.run(until=1.0)
    assert d1.rsmc.authentications == 1

    # Intra-domain handoffs re-use the authentication.
    def mover():
        yield from mn.perform_handoff(d1["C"])

    sim.process(mover())
    sim.run(until=3.0)
    assert d1.rsmc.authentications == 1


def test_auth_delay_defers_first_binding():
    world = MultiTierWorld(domain_kwargs={"auth_delay": 0.5})
    sim = world.sim
    mn = world.add_mobile("mn")
    assert mn.initial_attach(world.domain1["B"]) is None
    sim.run(until=0.3)
    # Still inside the auth window: HA has no binding yet.
    assert world.ha.lookup_binding(mn.home_address) is None
    sim.run(until=2.0)
    assert world.ha.lookup_binding(mn.home_address) is not None


def test_proxy_registration_uses_timestamp_identifications():
    """Two consecutive inter-domain moves must both be accepted by the
    HA (identifications strictly increase across different RSMCs)."""
    world = MultiTierWorld(second_domain=True)
    sim = world.sim
    mn = world.add_mobile("mn")
    assert mn.initial_attach(world.domain1["F"]) is None
    sim.run(until=1.0)

    def mover():
        assert (yield from mn.perform_handoff(world.domain2["G"])) is None
        yield sim.timeout(1.0)
        assert (yield from mn.perform_handoff(world.domain1["F"])) is None

    sim.process(mover())
    sim.run(until=6.0)
    binding = world.ha.lookup_binding(mn.home_address)
    assert binding is not None
    assert binding.care_of_address == world.domain1.rsmc.address
    assert world.ha.registrations_denied == 0


def test_stale_cn_notify_ignored():
    from repro.multitier import messages as mt_messages
    from repro.multitier.correspondent import CorrespondentNode
    from repro.sim import Simulator

    sim = Simulator()
    cn = CorrespondentNode(sim, "cn", ip("10.0.0.1"))
    fresh = mt_messages.RSMCBindingNotify(
        mobile_address=ip("10.99.0.1"), rsmc_address=ip("10.0.0.9"), sequence=100
    )
    stale = mt_messages.RSMCBindingNotify(
        mobile_address=ip("10.99.0.1"), rsmc_address=ip("10.0.0.8"), sequence=50
    )
    for notify in (fresh, stale):
        cn.receive(
            Packet(
                src=notify.rsmc_address, dst=cn.address, size=44,
                protocol=mt_messages.BINDING_NOTIFY, payload=notify,
            )
        )
    assert cn.bindings[ip("10.99.0.1")] == ip("10.0.0.9")
    assert cn.notifications_received == 1


def test_paged_packet_not_reflooded():
    """A paging-broadcast copy that finds nobody must die where it
    lands, not bounce back up and re-flood."""
    world = MultiTierWorld()
    sim = world.sim
    rsmc = world.domain1.rsmc
    ghost = ip("10.99.0.99")
    world.realm.register(ghost)
    # Inject at the domain root (as if tunneled in): triggers the flood.
    rsmc.receive(Packet(src=world.cn.address, dst=ghost, size=300, seq=0))
    sim.run(until=2.0)
    # One flood: the RSMC's one child (R3) has no record and drops the
    # paged copy instead of flooding it on; no storm.
    assert [child.name for child in rsmc.children] == ["R3"]
    assert drop_totals(sim) == {"no-record": 1}


def test_cn_binding_follows_mn_across_domains():
    world = MultiTierWorld(second_domain=True)
    sim = world.sim
    mn = world.add_mobile("mn")
    assert mn.initial_attach(world.domain1["F"]) is None
    sim.run(until=1.0)
    world.cn.send_to_mobile(mn.home_address, seq=0)
    sim.run(until=2.0)

    def mover():
        # Intra-domain first (CN learns RSMC1), then inter-domain.
        yield from mn.perform_handoff(world.domain1["E"])
        yield sim.timeout(1.0)
        yield from mn.perform_handoff(world.domain2["G"])

    sim.process(mover())
    sim.run(until=8.0)
    world.cn.send_to_mobile(mn.home_address, seq=1)
    sim.run(until=10.0)
    assert world.cn.bindings[mn.home_address] == world.domain2.rsmc.address
    assert mn.data_received == 2
