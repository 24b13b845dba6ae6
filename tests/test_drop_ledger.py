"""The per-simulator drop ledger: every discarded packet is booked under
one cause from the closed :data:`repro.net.DROP_CAUSES` vocabulary, on
every stack, and the books outlive the links and nodes that kept them."""

import gc
import pathlib
import sys
import weakref

import pytest

from repro.multitier.architecture import MultiTierWorld
from repro.net import DROP_CAUSES, Packet, drop_totals, ip, protocol_hop_totals
from repro.policy import REFUSAL_CAUSES
from repro.radio.channel import ChannelPlan
from repro.scenarios import build_scenario, get_scenario, scenario_names
from repro.stacks import stack_names

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_causes_are_distinct_tokens():
    assert len(set(DROP_CAUSES)) == len(DROP_CAUSES) == 16
    assert all(cause == cause.lower() and " " not in cause for cause in DROP_CAUSES)


@pytest.mark.parametrize("stack", stack_names())
@pytest.mark.parametrize("name", scenario_names())
def test_every_smoke_run_books_only_known_causes(name, stack):
    """Drops by a token of ``DROP_CAUSES``; refused moves by move and a
    token of ``REFUSAL_CAUSES``, the attach ones being
    ``blocked_attaches`` (a flat stack's moves never refuse)."""
    spec = get_scenario(name).smoke().replace(stack=stack)
    built = build_scenario(spec, spec.seeds[0])
    metrics = built.execute()
    assert set(drop_totals(built.sim)) <= set(DROP_CAUSES)
    refusals = built.decision_trace.refusals
    for move, reason in refusals:
        assert move in ("attach", "handoff") and reason in REFUSAL_CAUSES
    assert metrics.get("blocked_attaches", 0.0) == sum(
        count for (move, _reason), count in refusals.items() if move == "attach"
    )


def _ghost_packet(world, ttl=64):
    """A data packet for a mobile the realm knows but no station has
    a record of."""
    ghost = ip("10.99.0.99")
    world.realm.register(ghost)
    return Packet(src=world.cn.address, dst=ghost, size=300, ttl=ttl)


@pytest.mark.parametrize(
    "ttl, drops", [(1, {"ttl-expired": 1}), (64, {"no-record": 1})]
)
def test_multitier_bounce_with_ttl_one_is_ttl_expired(ttl, drops):
    """A leaf with no record bounces a packet up toward the RSMC; with
    ``ttl`` 1 there is no hop left to bounce with.  With hops to spare
    it climbs to the RSMC, whose paging flood dies at its one child
    (R3) for want of a record."""
    world = MultiTierWorld()
    world.domain1["F"].receive(_ghost_packet(world, ttl=ttl))
    world.sim.run(until=1.0)
    assert drop_totals(world.sim) == drops


def test_attachment_without_its_radio_link_is_stale_radio():
    world = MultiTierWorld()
    sim = world.sim
    station = world.domain1["B"]
    mn = world.add_mobile("mn")
    assert mn.initial_attach(station) is None
    sim.run(until=1.0)
    station.detach_link(mn)  # the downlink radio goes; the attachment stays
    for seq in range(3):
        world.cn.send_to_mobile(mn.home_address, seq=seq)
    sim.run(until=2.0)
    assert mn.data_received == 0
    assert drop_totals(sim) == {"stale-radio": 3}


def test_flushing_a_buffer_with_no_record_is_buffer_unroutable():
    world = MultiTierWorld()
    sim = world.sim
    rsmc = world.domain1.rsmc
    packet = _ghost_packet(world)
    rsmc._start_buffering(packet.dst)
    for seq in range(4):
        rsmc.receive(packet.copy(seq=seq))
    sim.run(until=1.0)
    assert rsmc.buffered_packets == 4
    rsmc._flush_buffer(packet.dst)
    sim.run(until=2.0)
    assert drop_totals(sim) == {"buffer-unroutable": 4}


def test_forwarding_to_a_new_domain_without_internet_is_no_route():
    world = MultiTierWorld()
    rsmc = world.domain1.rsmc
    rsmc.internet_neighbor = None
    rsmc._tunnel_to_new_domain(_ghost_packet(world), ip("10.0.0.9"))
    assert rsmc.forwarded_to_new_domain == 0
    assert drop_totals(world.sim) == {"no-route": 1}


def test_drops_on_a_retired_radio_link_outlive_the_link():
    """A handoff tears the old radio link down while airtime is still
    queued on it: the link is freed, and its drops stay on the books
    and balance with the kernel's ``Link._deliver`` census."""
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import census
    finally:
        sys.path.pop(0)
    plan = ChannelPlan(macro_bandwidth=40e3, micro_bandwidth=40e3, pico_bandwidth=40e3)
    with census.counting() as (kinds, _simulators):
        world = MultiTierWorld(channel_plan=plan)
        sim, old, new = world.sim, world.domain1["F"], world.domain1["E"]
        mn = world.add_mobile("mn")
        assert mn.initial_attach(old) is None
        sim.run(until=1.0)
        retired = weakref.ref(old.link_to(mn))
        for index in range(40):
            sim.call_later(index * 0.005, world.cn.send_to_mobile, mn.home_address, 500)
        sim.run(until=1.05)
        outcome = []

        def handoff():
            outcome.append((yield from mn.perform_handoff(new)))

        sim.process(handoff())
        sim.run(until=8.0)
    assert outcome == [None] and old.link_to(mn) is None
    gc.collect()
    assert retired() is None
    drops = drop_totals(sim)
    assert drops == {"air-cancelled": 40 - mn.data_received} == {"air-cancelled": 3}
    # What the old cell's channel neither granted nor still holds is
    # what the detach cancelled.
    channel = old.shared_channel
    assert drops["air-cancelled"] == sum(
        channel.stats.submitted[d] - channel.stats.granted[d] - channel.queued[d]
        for d in channel.queued
    )
    deliveries = sum(
        count for kind, count in kinds.items() if kind.startswith("Link._deliver[")
    )
    # Every delivery landed: no in-flight-down or link-loss to add.
    assert deliveries == sum(protocol_hop_totals(sim).values())
