"""Mobile IP lifecycle edge cases: renewal, deregistration, solicitation
and advertisement sequencing."""

from repro.mobileip import (
    ForeignAgent,
    HomeAgent,
    MobileIPNode,
    install_home_prefix_routes,
    messages,
)
from repro.net import Network, Packet
from repro.sim import Simulator


def build_world():
    sim = Simulator()
    network = Network(sim)
    core = network.router("core")
    ha = HomeAgent(sim, "ha", network.allocator.allocate(), "10.99.0.0/16")
    fa1 = ForeignAgent(sim, "fa1", network.allocator.allocate())
    fa2 = ForeignAgent(sim, "fa2", network.allocator.allocate())
    for agent in (ha, fa1, fa2):
        network.add(agent)
    network.connect(ha, core, delay=0.01)
    network.connect(fa1, core, delay=0.01)
    network.connect(fa2, core, delay=0.01)
    network.install_routes()
    install_home_prefix_routes(network, ha)
    mn = MobileIPNode(
        sim, "mn", home_address="10.99.0.5", home_agent_address=ha.address
    )
    return sim, ha, fa1, fa2, mn


def test_registration_renews_before_expiry():
    sim, ha, fa1, fa2, mn = build_world()
    mn.registration_lifetime = 4.0
    fa1.attach_mobile(mn)
    sim.run(until=30.0)
    # Renewals kept the binding alive for the whole half minute.
    assert mn.is_registered
    assert ha.lookup_binding(mn.home_address) is not None
    assert ha.registrations_accepted >= 5


def test_renewal_uses_fresh_identifications():
    sim, ha, fa1, fa2, mn = build_world()
    mn.registration_lifetime = 3.0
    fa1.attach_mobile(mn)
    sim.run(until=20.0)
    assert ha.registrations_denied == 0


def test_home_agent_deregistration_on_zero_lifetime():
    sim, ha, fa1, fa2, mn = build_world()
    fa1.attach_mobile(mn)
    sim.run(until=3.0)
    assert ha.lookup_binding(mn.home_address) is not None
    # Deregister with lifetime 0 (mobile returned home), directly at HA.
    request = messages.RegistrationRequest(
        home_address=mn.home_address,
        home_agent=ha.address,
        care_of_address=mn.home_address,
        lifetime=0.0,
        identification=10_000,
    )
    ha.receive(
        Packet(
            src=mn.home_address,
            dst=ha.address,
            size=messages.REGISTRATION_REQUEST_BYTES,
            protocol=messages.REGISTRATION_REQUEST,
            payload=request,
        )
    )
    sim.run(until=4.0)
    assert ha.lookup_binding(mn.home_address) is None


def test_ha_max_lifetime_caps_registration():
    sim, ha, fa1, fa2, mn = build_world()
    ha.max_lifetime = 10.0
    mn.registration_lifetime = 1_000.0
    fa1.attach_mobile(mn)
    sim.run(until=3.0)
    binding = ha.lookup_binding(mn.home_address)
    assert binding is not None
    assert binding.lifetime == 10.0


def test_advertisement_sequence_increases():
    sim, ha, fa1, fa2, mn = build_world()
    sequences = []
    mn.on_protocol(
        messages.AGENT_ADVERTISEMENT,
        lambda packet, link: sequences.append(packet.payload.sequence),
    )
    fa1.attach_mobile(mn)
    sim.run(until=6.0)
    assert sequences == sorted(sequences)
    assert len(sequences) >= 5


def test_ha_notifies_previous_coa_on_move():
    sim, ha, fa1, fa2, mn = build_world()
    fa1.attach_mobile(mn)
    sim.run(until=3.0)
    notifies = []
    fa1.on_protocol(
        messages.BINDING_NOTIFY,
        lambda packet, link: notifies.append(packet.payload),
    )
    fa1.detach_mobile(mn)
    fa2.attach_mobile(mn)
    sim.run(until=8.0)
    assert len(notifies) == 1
    assert notifies[0].forward_to == fa2.address
