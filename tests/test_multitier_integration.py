"""End-to-end tests of the multi-tier architecture against the paper's
figures: location management (Fig 3.1), intra-domain handoff cases
(Fig 3.4), inter-domain handoff (Figs 3.2/3.3) and the RSMC data path
(Fig 4.1)."""

import dataclasses
import math

import pytest

from repro.multitier import DIRECT, messages
from repro.multitier.architecture import MultiTierWorld
from repro.multitier.basestation import GuardedChannelPool
from repro.net import Packet, drop_totals, ip, protocol_hop_totals
from repro.radio import Tier


@pytest.fixture
def world():
    return MultiTierWorld(second_domain=True)


def attach(world, mobile, station_name, domain="domain1"):
    handle = getattr(world, domain)
    assert mobile.initial_attach(handle[station_name]) is None
    return handle[station_name]


def run_handoff(world, mobile, station):
    """Execute a handoff synchronously and return its refusal (``None``
    on success)."""
    result = []

    def runner():
        result.append((yield from mobile.perform_handoff(station)))

    world.sim.process(runner())
    world.sim.run(until=world.sim.now + 2.0)
    assert len(result) == 1, "the handoff did not finish"
    return result[0]


# ----------------------------------------------------------------------
# Control messages are values
# ----------------------------------------------------------------------
_SAMPLE_FIELD_VALUES = {
    "IPAddress": (ip("10.1.0.7"), ip("10.1.0.8")),
    "Tier": (Tier.MICRO, Tier.MACRO),
    "int": (3, 4),
    "float": (64e3, 0.5),
    "bool": (True, False),
    "str": ("channel-pool-full", ""),
}


@pytest.mark.parametrize(
    "cls",
    [obj for obj in vars(messages).values() if dataclasses.is_dataclass(obj)],
    ids=lambda cls: cls.__name__,
)
def test_message_equality_hash_and_repr_are_the_frozen_dataclasses(cls):
    """A slotted message compares, hashes and prints exactly as the
    same fields in a frozen dataclass do, and carries no ``__dict__``."""
    fields = dataclasses.fields(cls)
    frozen = dataclasses.make_dataclass(
        cls.__name__, [(field.name, field.type) for field in fields], frozen=True
    )
    for pick in (0, 1):
        values = [_SAMPLE_FIELD_VALUES[field.type][pick] for field in fields]
        message, twin = cls(*values), frozen(*values)
        assert repr(message) == repr(twin)
        assert hash(message) == hash(twin)
        assert message == cls(*values) and message != twin
        assert not hasattr(message, "__dict__")
    first = [_SAMPLE_FIELD_VALUES[field.type][0] for field in fields]
    second = [_SAMPLE_FIELD_VALUES[field.type][1] for field in fields]
    assert cls(*first) != cls(*second)


# ----------------------------------------------------------------------
# Fig 3.1: location management
# ----------------------------------------------------------------------
def test_location_records_along_fig31_chain(world):
    """MN X under B: records must read (X,B-direct) at B, (X,B) at A,
    (X,A) at R1, (X,R1) at R3 — the paper's worked example."""
    d1 = world.domain1
    x = world.add_mobile("x")
    attach(world, x, "B")
    world.sim.run(until=1.0)

    record_b = d1["B"].tables.micro_table.peek(x.home_address)
    record_a = d1["A"].tables.micro_table.peek(x.home_address)
    record_r1 = d1["R1"].tables.micro_table.peek(x.home_address)
    record_r3 = d1["R3"].tables.micro_table.peek(x.home_address)
    assert record_b is not None and record_b.via is DIRECT
    assert record_a is not None and record_a.via is d1["B"]
    assert record_r1 is not None and record_r1.via is d1["A"]
    assert record_r3 is not None and record_r3.via is d1["R1"]


def test_records_expire_without_location_messages(world):
    d1 = world.domain1
    x = world.add_mobile("x")
    attach(world, x, "B")
    world.sim.run(until=0.5)
    # Silence the refresh loop and detach the radio.
    x._location_loop.interrupt("test")
    d1["B"].detach_mobile(x)
    x.serving_bs = None
    lifetime = d1.domain.record_lifetime
    world.sim.run(until=0.5 + lifetime + 1.0)
    assert d1["R3"].tables.micro_table.peek(x.home_address) is None


def test_periodic_location_messages_refresh_records(world):
    d1 = world.domain1
    x = world.add_mobile("x")
    attach(world, x, "B")
    # Run well past the record lifetime: refreshes must keep it alive.
    world.sim.run(until=d1.domain.record_lifetime * 3)
    assert d1["R3"].tables.micro_table.peek(x.home_address) is not None
    assert protocol_hop_totals(world.sim)["mt-location"] >= 10


def test_macro_attached_mn_recorded_in_macro_tables(world):
    d1 = world.domain1
    y = world.add_mobile("y")
    attach(world, y, "R1")
    world.sim.run(until=1.0)
    assert d1["R1"].tables.macro_table.peek(y.home_address) is not None
    assert d1["R3"].tables.macro_table.peek(y.home_address) is not None
    assert d1["R3"].tables.micro_table.peek(y.home_address) is None


# ----------------------------------------------------------------------
# Fig 3.4: the three intra-domain handoff cases
# ----------------------------------------------------------------------
def test_intra_domain_micro_to_micro_case_c(world):
    """Z moves F -> E: crossover at D; R2/R3 records unchanged."""
    d1 = world.domain1
    z = world.add_mobile("z")
    attach(world, z, "F")
    world.sim.run(until=1.0)
    assert run_handoff(world, z, d1["E"]) is None
    world.sim.run(until=world.sim.now + 1.0)

    assert z.serving_bs is d1["E"]
    assert d1["E"].tables.micro_table.peek(z.home_address).via is DIRECT
    assert d1["D"].tables.micro_table.peek(z.home_address).via is d1["E"]
    # The old branch is erased (Delete Location Message).
    assert d1["F"].tables.micro_table.peek(z.home_address) is None
    # Above the crossover nothing changed.
    assert d1["R2"].tables.micro_table.peek(z.home_address).via is d1["D"]


def test_handoff_over_the_mobiles_own_radio_never_walks_the_stations_links(world):
    """The Handoff Request and the Update Location Message arrive on the
    mobile's radio link, whose head is the mobile: the station must not
    search its (growing) link table for the node it was just handed."""

    class CountedLinks(dict):
        passes = 0

        def __iter__(self):
            self.passes += 1
            return super().__iter__()

    d1 = world.domain1
    target = d1["E"]
    for index in range(5):
        attach(world, world.add_mobile(f"resident{index}"), "E")
    z = world.add_mobile("z")
    attach(world, z, "F")
    world.sim.run(until=1.0)
    target.links = CountedLinks(target.links)
    assert run_handoff(world, z, target) is None
    assert z.serving_bs is target
    assert target.attached[z.home_address].node is z
    assert target.links.passes == 0


def test_intra_domain_macro_to_micro_case_a(world):
    """X on R1 demands bandwidth -> system switches it to micro B."""
    d1 = world.domain1
    x = world.add_mobile("x", bandwidth_demand=384e3)
    attach(world, x, "R1")
    world.sim.run(until=1.0)
    assert run_handoff(world, x, d1["B"]) is None
    world.sim.run(until=world.sim.now + 1.0)

    assert x.serving_bs is d1["B"]
    assert d1["B"].tables.micro_table.peek(x.home_address).via is DIRECT
    # R1's record for X moved from macro_table to micro_table.
    assert d1["R1"].tables.macro_table.peek(x.home_address) is None
    assert d1["R1"].tables.micro_table.peek(x.home_address).via is d1["A"]


def test_intra_domain_micro_to_macro_case_b(world):
    """Y leaves micro coverage -> macro R2 serves it."""
    d1 = world.domain1
    y = world.add_mobile("y")
    attach(world, y, "E")
    world.sim.run(until=1.0)
    assert run_handoff(world, y, d1["R2"]) is None
    world.sim.run(until=world.sim.now + 1.0)

    assert y.serving_bs is d1["R2"]
    assert d1["R2"].tables.macro_table.peek(y.home_address).via is DIRECT
    assert d1["R3"].tables.macro_table.peek(y.home_address).via is d1["R2"]
    assert d1["E"].tables.micro_table.peek(y.home_address) is None


def test_handoff_rejected_when_channels_full():
    world = MultiTierWorld(domain_kwargs={"guard_channels": 0})
    d1 = world.domain1
    target = d1["E"]
    # Saturate E's channel pool.
    fillers = []
    for index in range(target.channels.capacity):
        filler = world.add_mobile(f"filler{index}")
        assert filler.initial_attach(target) is None
        fillers.append(filler)
    world.sim.run(until=0.5)

    z = world.add_mobile("z")
    attach(world, z, "F")
    world.sim.run(until=1.0)
    assert run_handoff(world, z, target) == "channel-pool-full"
    assert z.serving_bs is d1["F"]  # stays put after rejection
    assert z.handoff_latencies == []


def test_guard_channels_prefer_handoffs():
    world = MultiTierWorld(domain_kwargs={"guard_channels": 1})
    d1 = world.domain1
    target = d1["E"]
    # Fill all non-guard channels with new calls.
    refusals = []
    for index in range(target.channels.capacity):
        filler = world.add_mobile(f"filler{index}")
        refusal = filler.initial_attach(target)
        if refusal is not None:
            refusals.append(refusal)
    assert refusals == ["channel-pool-full"]  # the guard channel refused a new call
    world.sim.run(until=0.5)

    z = world.add_mobile("z")
    attach(world, z, "F")
    world.sim.run(until=1.0)
    # The handoff may still take the guard channel.
    assert run_handoff(world, z, target) is None


def test_guarded_pool_blocks_new_calls_before_handoffs():
    pool = GuardedChannelPool(capacity=3, guard=1)
    # Two new calls fill the unguarded portion.
    first = pool.admit_new_call()
    assert first is not None
    assert pool.admit_new_call() is not None
    # Third new call hits the guard band.
    assert pool.admit_new_call() is None
    # Handoff may still take the guarded channel.
    handoff = pool.admit_handoff()
    assert handoff is not None
    # Now everything is full, even for handoffs.
    assert pool.admit_handoff() is None
    assert pool.free == 0
    # Releasing frees exactly one channel; a token the pool no longer
    # holds is ignored.
    pool.release(first)
    pool.release(first)
    assert pool.free == 1
    assert pool.admit_new_call() is None  # only the guard channel is free
    assert pool.admit_handoff() is not None


def test_guarded_pool_invalid_guard():
    with pytest.raises(ValueError):
        GuardedChannelPool(capacity=2, guard=2)


def test_guarded_pool_invalid_capacity():
    with pytest.raises(ValueError):
        GuardedChannelPool(capacity=0)


@pytest.mark.parametrize(
    "capacity, guard, field",
    [(math.nan, 0, "capacity"), (4, math.nan, "guard"), (math.nan, math.nan, "capacity")],
)
def test_guarded_pool_rejects_nan(capacity, guard, field):
    """A nan capacity passed ``capacity <= 0`` and admitted every call."""
    with pytest.raises(ValueError, match=f"{field} must be .*nan"):
        GuardedChannelPool(capacity=capacity, guard=guard)


# ----------------------------------------------------------------------
# Fig 3.2 / 3.3: inter-domain handoff
# ----------------------------------------------------------------------
def test_inter_domain_same_upper_crosses_at_r3(world):
    """R1-subtree -> R2-subtree: same most-upper BS (R3), so the home
    network is never involved (Fig 3.2)."""
    d1 = world.domain1
    x = world.add_mobile("x")
    attach(world, x, "C")
    world.sim.run(until=1.0)
    ha_registrations_before = world.ha.registrations_accepted
    assert run_handoff(world, x, d1["E"]) is None
    world.sim.run(until=world.sim.now + 1.0)

    assert d1["R3"].tables.micro_table.peek(x.home_address).via is d1["R2"]
    assert d1["R1"].tables.micro_table.peek(x.home_address) is None
    # No extra Mobile IP registration happened.
    assert world.ha.registrations_accepted == ha_registrations_before


def test_inter_domain_different_upper_registers_with_home(world):
    """Domain 1 -> domain 2 (different upper BS): the new RSMC
    authenticates, proxy-registers with the HA and updates the MNLD
    (Fig 3.3)."""
    d2 = world.domain2
    x = world.add_mobile("x")
    attach(world, x, "F")
    world.sim.run(until=1.0)
    assert run_handoff(world, x, d2["G"]) is None
    world.sim.run(until=world.sim.now + 2.0)

    assert x.serving_bs is d2["G"]
    assert d2.rsmc.authentications == 1
    binding = world.ha.lookup_binding(x.home_address)
    assert binding is not None
    assert binding.care_of_address == d2.rsmc.address
    assert world.mnld.lookup(x.home_address) == d2.rsmc.address


# ----------------------------------------------------------------------
# Fig 4.1: data path through the RSMC
# ----------------------------------------------------------------------
def test_cn_to_mn_data_path_via_ha_then_rsmc(world):
    d1 = world.domain1
    x = world.add_mobile("x")
    attach(world, x, "B")
    world.sim.run(until=1.0)

    got = []
    x.on_data.append(lambda packet: got.append(packet.seq))
    world.cn.send_to_mobile(x.home_address, seq=1)
    world.sim.run(until=2.0)
    assert got == [1]
    # First packet had no binding: it went through the home agent.
    assert world.cn.sent_via_home == 1
    assert world.ha.tunneled_count == 1


def test_rsmc_notifies_cn_for_route_optimization(world):
    d1 = world.domain1
    x = world.add_mobile("x")
    attach(world, x, "B")
    world.sim.run(until=1.0)
    world.cn.send_to_mobile(x.home_address, seq=1)
    world.sim.run(until=2.0)

    # A handoff makes the RSMC notify the CN (it saw CN's traffic).
    assert run_handoff(world, x, d1["C"]) is None
    world.sim.run(until=world.sim.now + 2.0)
    assert world.cn.notifications_received >= 1
    assert world.cn.bindings[x.home_address] == d1.rsmc.address

    world.cn.send_to_mobile(x.home_address, seq=2)
    before = world.ha.tunneled_count
    world.sim.run(until=world.sim.now + 2.0)
    # The optimized packet bypassed the HA.
    assert world.cn.sent_via_binding == 1
    assert world.ha.tunneled_count == before
    assert x.data_received == 2


def test_cn_send_puts_the_callers_packet_on_the_wire(world):
    """``send`` takes an addressed packet and sends *that object* (or
    its encapsulation); ``send_to_mobile`` builds one and does the same."""
    cn, rsmc = world.cn, world.domain1.rsmc
    x = world.add_mobile("x")
    wire = []
    cn.links[world.internet].transmit = wire.append

    plain = Packet(src=cn.address, dst=x.home_address, size=200, seq=1)
    cn.send(plain)
    assert wire[-1] is plain
    assert (cn.sent_via_home, cn.sent_via_binding) == (1, 0)

    cn.bindings[x.home_address] = rsmc.address
    tunnelled = Packet(src=cn.address, dst=x.home_address, size=200, seq=2)
    cn.send(tunnelled)
    outer = wire[-1]
    assert outer.protocol == "ipip" and outer.payload is tunnelled
    assert (outer.src, outer.dst, outer.size) == (cn.address, rsmc.address, 220)
    assert (cn.sent_via_home, cn.sent_via_binding) == (1, 1)

    world.sim.run(until=0.25)
    cn.send_to_mobile(x.home_address, size=300, seq=3, flow_id="f")
    inner = wire[-1].payload
    assert wire[-1].dst == rsmc.address
    assert (inner.src, inner.dst, inner.size, inner.protocol, inner.seq,
            inner.flow_id, inner.created_at) == (
        cn.address, x.home_address, 300, "data", 3, "f", 0.25)
    del cn.bindings[x.home_address]
    cn.send_to_mobile(x.home_address, created_at=0.125)
    assert wire[-1].protocol == "data" and wire[-1].dst == x.home_address
    assert (wire[-1].size, wire[-1].created_at) == (1000, 0.125)
    assert (cn.sent_via_home, cn.sent_via_binding) == (2, 2)
    assert len(wire) == 4


def test_rsmc_buffers_during_handoff_no_loss():
    """The headline claim: RSMC resource switching avoids packet loss
    during an intra-domain handoff.

    A slow wired domain (20 ms hops) widens the handoff window so the
    buffering is actually exercised rather than won by racy timing.
    """
    world = MultiTierWorld(domain_kwargs={"wired_delay": 0.02})
    d1 = world.domain1
    x = world.add_mobile("x")
    attach(world, x, "F")
    world.sim.run(until=1.0)
    got = []
    x.on_data.append(lambda packet: got.append(packet.seq))

    # Stream 40 packets at 5 ms spacing, hand off F -> E mid-stream.
    for index in range(40):
        world.sim.call_later(
            index * 0.005, world.cn.send_to_mobile, x.home_address, 500
        )
    world.sim.run(until=1.05)

    def handoff():
        assert (yield from x.perform_handoff(d1["E"])) is None

    world.sim.process(handoff())
    world.sim.run(until=5.0)
    # Everything the CN sent arrived (possibly reordered around flush).
    assert x.data_received == 40
    assert d1.rsmc.buffered_packets > 0
    assert d1.rsmc.flushed_packets == d1.rsmc.buffered_packets
    assert drop_totals(world.sim) == {}


def test_uplink_data_reaches_cn(world):
    x = world.add_mobile("x")
    attach(world, x, "B")
    world.sim.run(until=1.0)
    x.originate(
        Packet(
            src=x.home_address,
            dst=world.cn.address,
            size=700,
            created_at=world.sim.now,
        )
    )
    world.sim.run(until=2.0)
    assert world.cn.data_received == 1


def test_mn_to_mn_within_domain(world):
    d1 = world.domain1
    x = world.add_mobile("x")
    y = world.add_mobile("y")
    attach(world, x, "B")
    attach(world, y, "F")
    world.sim.run(until=1.0)
    got = []
    y.on_data.append(lambda packet: got.append(packet.uid))
    x.originate(
        Packet(
            src=x.home_address,
            dst=y.home_address,
            size=300,
            created_at=world.sim.now,
        )
    )
    world.sim.run(until=2.0)
    # Climbs from B until a BS knows y (R3 or the RSMC), then descends.
    assert len(got) == 1
