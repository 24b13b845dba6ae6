"""Unit tests for the shared air-interface contention model.

Covers the `repro.radio.channel` semantics in isolation: FIFO airtime
arbitration at the channel rate, deterministic mobile-index
tie-breaking within one simulation instant, separate uplink/downlink
budgets, claim migration (detach cancels queued airtime, in-flight
serialization completes), `ChannelPlan` tier budget resolution, and
the legacy-mode contract (``shared_channel=None`` links behave exactly
as before).  A model-based test drives random submit / attach / detach
/ background sequences against a brute-force reference arbiter, and
the conservation invariants (every submitted packet is granted,
dropped on detach or still queued; busy time fits in the elapsed time)
are checked at every step there and at the end of every contended
smoke run under every stack.
"""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.net.link import Link, connect, drop_totals
from repro.net.node import Node
from repro.net.packet import Packet
from repro.radio.cells import TIER_DEFAULTS, Cell, Tier
from repro.radio.channel import (
    DIRECTIONS,
    DOWNLINK,
    UPLINK,
    ChannelPlan,
    SharedChannel,
    airtime_key,
)
from repro.radio.geometry import Point
from repro.scenarios import build_scenario, get_scenario
from repro.sim.kernel import Simulator
from repro.stacks import stack_names


class Recorder(Node):
    """A node logging (time, seq) for every locally delivered packet."""

    def __init__(self, sim, name, address, log):
        super().__init__(sim, name, address)
        self.log = log

    def deliver_local(self, packet, link):
        self.log.append((self.name, self.sim.now, packet.seq))


def make_pair(sim, log, name, address, key, channel, delay=0.0):
    bs = Node(sim, f"bs-{name}", f"10.0.1.{key + 1}")
    mobile = Recorder(sim, name, address, log)
    link = Link(
        sim,
        bs,
        mobile,
        bandwidth=100e6,
        delay=delay,
        shared_channel=channel,
        channel_direction=DOWNLINK,
        channel_key=key,
    )
    return bs, mobile, link


def packet(dst, seq, size=500):
    return Packet(src="10.0.0.1", dst=dst, size=size, protocol="data", seq=seq)


# ----------------------------------------------------------------------
# Arbitration semantics
# ----------------------------------------------------------------------
def test_airtime_is_serialized_at_the_channel_rate():
    sim = Simulator()
    log = []
    channel = SharedChannel(sim, "air", downlink_bps=8000.0, uplink_bps=4000.0)
    _, _, link = make_pair(sim, log, "m0", "10.99.0.1", 0, channel)
    for seq in range(3):  # 500 B at 1000 B/s = 0.5 s airtime each
        assert link.transmit(packet("10.99.0.1", seq))
    sim.run()
    assert [(t, s) for _, t, s in log] == [(0.5, 0), (1.0, 1), (1.5, 2)]
    assert channel.stats.granted[DOWNLINK] == 3
    assert channel.stats.busy_seconds[DOWNLINK] == pytest.approx(1.5)


def test_same_instant_submissions_grant_in_mobile_key_order():
    sim = Simulator()
    log = []
    channel = SharedChannel(sim, "air", 8000.0, 4000.0)
    _, _, high = make_pair(sim, log, "m-high", "10.99.0.1", 9, channel)
    _, _, low = make_pair(sim, log, "m-low", "10.99.0.2", 3, channel)
    # Submission order is high-key first; grant order must be key order.
    high.transmit(packet("10.99.0.1", 1))
    low.transmit(packet("10.99.0.2", 2))
    sim.run()
    assert log == [("m-low", 0.5, 2), ("m-high", 1.0, 1)]


def test_fifo_across_time_beats_key_order():
    sim = Simulator()
    log = []
    channel = SharedChannel(sim, "air", 8000.0, 4000.0)
    _, _, high = make_pair(sim, log, "m-high", "10.99.0.1", 9, channel)
    _, _, low = make_pair(sim, log, "m-low", "10.99.0.2", 3, channel)
    high.transmit(packet("10.99.0.1", 1))
    # Arrives later while the channel is busy: queues behind, despite
    # its smaller key (FIFO by submission time, key only breaks ties).
    sim.call_later(0.1, low.transmit, packet("10.99.0.2", 2))
    sim.run()
    assert log == [("m-high", 0.5, 1), ("m-low", 1.0, 2)]


def test_release_path_grants_defer_to_same_instant_arbitration():
    sim = Simulator()
    log = []
    channel = SharedChannel(sim, "air", 8000.0, 4000.0)
    _, _, first = make_pair(sim, log, "m-first", "10.99.0.1", 0, channel)
    _, _, high = make_pair(sim, log, "m-high", "10.99.0.2", 5, channel)
    _, _, low = make_pair(sim, log, "m-low", "10.99.0.3", 1, channel)
    first.transmit(packet("10.99.0.1", 0))  # busy until t=0.5
    # At t=0.5 the first serialization finishes and two rivals submit
    # in the same instant — key 5 causally before the release, key 1
    # causally after it.  The grant must wait for the instant's
    # arbitration event, so the smaller key still wins.
    sim.call_later(0.5, high.transmit, packet("10.99.0.2", 5))
    sim.call_later(
        0.25,
        lambda: sim.call_later(0.25, low.transmit, packet("10.99.0.3", 1)),
    )
    sim.run()
    assert [(name, s) for name, _, s in log] == [
        ("m-first", 0),
        ("m-low", 1),
        ("m-high", 5),
    ]


def test_uplink_and_downlink_budgets_are_independent():
    sim = Simulator()
    log = []
    channel = SharedChannel(sim, "air", downlink_bps=8000.0, uplink_bps=8000.0)
    bs, mobile, down = make_pair(sim, log, "m0", "10.99.0.1", 0, channel)
    up = Link(
        sim,
        mobile,
        bs,
        bandwidth=100e6,
        delay=0.0,
        shared_channel=channel,
        channel_direction=UPLINK,
        channel_key=0,
    )
    down.transmit(packet("10.99.0.1", 1))
    up.transmit(packet("10.0.1.1", 2))
    sim.run()
    # Directions never contend with each other: both finish at 0.5.
    assert channel.stats.busy_seconds[DOWNLINK] == pytest.approx(0.5)
    assert channel.stats.busy_seconds[UPLINK] == pytest.approx(0.5)
    assert ("m0", 0.5, 1) in log


def test_propagation_delay_added_after_airtime():
    sim = Simulator()
    log = []
    channel = SharedChannel(sim, "air", 8000.0, 4000.0)
    _, _, link = make_pair(sim, log, "m0", "10.99.0.1", 0, channel, delay=0.25)
    link.transmit(packet("10.99.0.1", 1))
    sim.run()
    assert log == [("m0", 0.75, 1)]


# ----------------------------------------------------------------------
# Claims and handoff migration
# ----------------------------------------------------------------------
def test_detach_cancels_queued_airtime_but_not_in_flight():
    sim = Simulator()
    log = []
    channel = SharedChannel(sim, "air", 8000.0, 4000.0)
    _, _, link = make_pair(sim, log, "m0", "10.99.0.1", 7, channel)
    channel.attach(7)
    for seq in range(3):
        link.transmit(packet("10.99.0.1", seq))
    # At 0.6 s: packet 0 delivered, packet 1 serializing, packet 2
    # queued.  Detaching cancels only packet 2.
    sim.call_later(0.6, channel.detach, 7)
    sim.run()
    assert [s for _, _, s in log] == [0, 1]
    assert drop_totals(sim) == {"air-cancelled": 1}
    assert link.queue_depth == 0
    assert 7 not in channel.attached


def test_detach_frees_airtime_for_other_mobiles():
    sim = Simulator()
    log = []
    channel = SharedChannel(sim, "air", 8000.0, 4000.0)
    _, _, leaver = make_pair(sim, log, "leaver", "10.99.0.1", 1, channel)
    _, _, stayer = make_pair(sim, log, "stayer", "10.99.0.2", 2, channel)
    channel.attach(1)
    channel.attach(2)
    for seq in range(3):
        leaver.transmit(packet("10.99.0.1", seq))
    stayer.transmit(packet("10.99.0.2", 10))
    # Without the detach the stayer's packet would finish at 2.0 s;
    # cancelling the leaver's queued airtime pulls it in to 1.5 s.
    sim.call_later(0.6, channel.detach, 1)
    sim.run()
    assert ("stayer", 1.5, 10) in log


def test_attach_is_idempotent_and_migration_tracks_claims():
    sim = Simulator()
    old = SharedChannel(sim, "air-old", 8000.0, 4000.0)
    new = SharedChannel(sim, "air-new", 8000.0, 4000.0)
    old.attach(4, demand=100.0)
    old.attach(4, demand=200.0)  # a re-attach keeps the first claim
    assert old.attached == {4} and old.claims == {4: 100.0}
    # Make-before-break: claim on both, then the old side detaches.
    new.attach(4)
    old.detach(4)
    old.detach(4)  # idempotent
    assert 4 not in old.attached and 4 in new.attached


# ----------------------------------------------------------------------
# Legacy mode and construction validation
# ----------------------------------------------------------------------
def test_legacy_link_without_channel_is_untouched():
    sim = Simulator()
    log = []
    a = Node(sim, "a", "10.0.0.1")
    b = Recorder(sim, "b", "10.0.0.2", log)
    link = Link(sim, a, b, bandwidth=8000.0, delay=0.0)
    assert link.shared_channel is None
    for seq in range(2):
        link.transmit(packet("10.0.0.2", seq))
    sim.run()
    assert [(t, s) for _, t, s in log] == [(0.5, 0), (1.0, 1)]


def test_connect_assigns_downlink_forward_uplink_backward():
    sim = Simulator()
    channel = SharedChannel(sim, "air", 8000.0, 4000.0)
    bs = Node(sim, "bs", "10.0.0.1")
    mobile = Node(sim, "mn", "10.99.0.1")
    forward, backward = connect(
        sim, bs, mobile, shared_channel=channel, channel_key=5
    )
    assert forward.channel_direction == DOWNLINK
    assert backward.channel_direction == UPLINK
    assert forward.channel_key == backward.channel_key == 5


def test_channel_rejects_nonpositive_budgets_and_bad_direction():
    sim = Simulator()
    with pytest.raises(ValueError):
        SharedChannel(sim, "air", 0.0, 1e6)
    with pytest.raises(ValueError):
        SharedChannel(sim, "air", 1e6, -1.0)
    with pytest.raises(ValueError):
        Link(
            sim,
            Node(sim, "a", "10.0.0.1"),
            Node(sim, "b", "10.0.0.2"),
            channel_direction="sideways",
        )


def test_channel_plan_budgets_resolve_overrides_and_tier_defaults():
    plan = ChannelPlan(macro_bandwidth=500e3, pico_bandwidth=8e6)
    macro = Cell(name="m", center=Point(0, 0), tier=Tier.MACRO)
    micro = Cell(name="u", center=Point(0, 0), tier=Tier.MICRO)
    pico = Cell(name="p", center=Point(0, 0), tier=Tier.PICO)
    assert plan.budgets(macro) == (500e3, 250e3)
    assert plan.budgets(pico) == (8e6, 4e6)
    assert plan.budgets(micro) == (
        TIER_DEFAULTS[Tier.MICRO]["channel_downlink"],
        TIER_DEFAULTS[Tier.MICRO]["channel_uplink"],
    )
    with pytest.raises(ValueError):
        ChannelPlan(micro_bandwidth=0.0)


def test_airtime_key_prefers_explicit_index_over_name_hash():
    sim = Simulator()
    node = Node(sim, "mn3", "10.99.0.1")
    hashed = airtime_key(node)
    node.airtime_key = 3
    assert airtime_key(node) == 3
    assert isinstance(hashed, int) and hashed != 3


def test_cell_channel_budgets_default_per_tier():
    cell = Cell(name="c", center=Point(0, 0), tier=Tier.PICO)
    assert cell.channel_downlink == TIER_DEFAULTS[Tier.PICO]["channel_downlink"]
    assert cell.channel_uplink == TIER_DEFAULTS[Tier.PICO]["channel_uplink"]
    custom = Cell(
        name="c2", center=Point(0, 0), tier=Tier.PICO, channel_downlink=1e6
    )
    assert custom.channel_downlink == 1e6


# ----------------------------------------------------------------------
# Model-based: the arbiter against a brute-force reference
# ----------------------------------------------------------------------
#: Everything in the model runs on a 1/8 s grid (125 B at 8 kbit/s), so
#: every timestamp is an exact float and same-instant ties are common.
TICK = 0.125
UNIT_BYTES = 125
UNIT_TICKS = {DOWNLINK: 1, UPLINK: 2}  # budgets 8 and 4 kbit/s

_ticks = st.integers(0, 24)
_keys = st.integers(0, 3)
_directions = st.sampled_from(DIRECTIONS)
_submit = st.tuples(
    _ticks, st.just("submit"), _directions, _keys, st.integers(1, 4)
)
_operations = st.one_of(
    _submit,
    _submit,  # twice: keep queues deep enough for ties and detaches to bite
    st.tuples(_ticks, st.just("detach"), _keys),
    st.tuples(_ticks, st.just("attach"), _keys, st.sampled_from([0.0, 16e3, 64e3])),
    st.tuples(_ticks, st.just("background"), _directions, st.sampled_from([1, 2, 4])),
)


class Tap:
    """Stands in for a link: records what the channel does to its packets."""

    def __init__(self, direction, key, served, dropped):
        self.channel_direction = direction
        self.channel_key = key
        self.served = served[direction]
        self.dropped = dropped

    def channel_serialized(self, packet):
        self.served.append(packet.seq)

    def channel_drop(self, packet):
        self.dropped.add(packet.seq)


def reference_arbiter(program):
    """Grant order per direction and the dropped set, by brute force.

    Tick by tick: apply the tick's operations in program order, then
    every idle direction serves its smallest waiting
    ``(tick, key, number)``.  An attach only declares demand, which
    FIFO grants ignore.
    """
    waiting = {d: [] for d in DIRECTIONS}
    served = {d: [] for d in DIRECTIONS}
    dropped = set()
    free_at = dict.fromkeys(DIRECTIONS, 0)
    slowdown = dict.fromkeys(DIRECTIONS, 1)
    tick = 0
    while tick <= program[-1][0] or any(waiting.values()):
        for number, (when, op, *args) in enumerate(program):
            if when != tick:
                continue
            if op == "submit":
                direction, key, units = args
                waiting[direction].append((tick, key, number, units))
            elif op == "background":
                slowdown[args[0]] = args[1]
            elif op == "detach":
                (key,) = args
                for d in DIRECTIONS:
                    dropped.update(w[2] for w in waiting[d] if w[1] == key)
                    waiting[d] = [w for w in waiting[d] if w[1] != key]
        for d in DIRECTIONS:
            if waiting[d] and free_at[d] <= tick:
                _, _, number, units = first = min(waiting[d])
                waiting[d].remove(first)
                served[d].append(number)
                free_at[d] = tick + units * UNIT_TICKS[d] * slowdown[d]
        tick += 1
    return served, dropped


def assert_air_conserved(channel, cancelled, elapsed=None):
    """The ROADMAP conservation invariants of one channel; ``cancelled``
    maps a direction to the queued packets detaches cancelled on it.

    The balance holds at any instant boundary; the busy-time bound only
    once nothing is on the air (airtime is charged in full at the
    grant), so it is checked where ``elapsed`` is given.
    """
    stats = channel.stats
    for d in DIRECTIONS:
        assert stats.submitted[d] == (
            stats.granted[d] + cancelled[d] + channel.queued[d]
        ), (channel, d)
        assert channel.queued[d] >= 0
        if elapsed is not None:
            assert stats.busy_seconds[d] <= elapsed, (channel, d)


@seed(20020702)
@settings(max_examples=120, deadline=None)
@given(st.lists(_operations, min_size=1, max_size=40))
def test_arbiter_grant_order_matches_brute_force_reference(operations):
    program = sorted(operations, key=lambda op: op[0])  # stable: ties keep order
    sim = Simulator()
    channel = SharedChannel(sim, "air", 8000.0, 4000.0)
    served = {d: [] for d in DIRECTIONS}
    dropped = set()

    def apply(number, op, *args):
        if op == "submit":
            direction, key, units = args
            tap = Tap(direction, key, served, dropped)
            channel.submit(tap, packet("10.99.0.1", number, size=units * UNIT_BYTES))
        elif op == "attach":
            channel.attach(*args)
        elif op == "detach":
            channel.detach(*args)
        else:
            direction, slowdown = args
            rate = channel.rates[direction]
            channel.set_background(direction, rate - rate / slowdown)

    def by_direction(numbers):
        """The submits ``numbers`` index, counted per direction."""
        return {d: sum(program[n][2] == d for n in numbers) for d in DIRECTIONS}

    for number, (when, *rest) in enumerate(program):
        sim.call_later(when * TICK, apply, number, *rest)
    for tick in range(program[-1][0] + 1):
        sim.run(until=tick * TICK)
        assert_air_conserved(channel, by_direction(dropped))
    sim.run()

    expected_served, expected_dropped = reference_arbiter(program)
    assert served == expected_served
    assert dropped == expected_dropped
    assert channel.queued == {DOWNLINK: 0, UPLINK: 0}
    assert channel.stats.granted == {d: len(served[d]) for d in DIRECTIONS}
    assert_air_conserved(channel, by_direction(expected_dropped), elapsed=sim.now)


@pytest.mark.parametrize("stack", stack_names())
@pytest.mark.parametrize("name", ["campus-air", "metro-100k"])
def test_contended_smoke_runs_conserve_airtime(name, stack):
    """Every contended smoke-golden run, under every stack, ends with
    each cell's channel balanced: what a channel neither granted nor
    still holds was cancelled by a detach, and the drop ledger's
    ``air-cancelled`` is the sum of it over every cell."""
    spec = get_scenario(name).smoke().replace(stack=stack)
    assert spec.channels_enabled()
    built = build_scenario(spec, spec.seeds[0])
    built.execute()
    assert built.air_cells
    assert any(c.stats.granted[DOWNLINK] for _cell, c in built.air_cells)
    total = 0
    for _cell, channel in built.air_cells:
        stats = channel.stats
        cancelled = {
            d: stats.submitted[d] - stats.granted[d] - channel.queued[d]
            for d in DIRECTIONS
        }
        assert min(cancelled.values()) >= 0, channel
        assert_air_conserved(channel, cancelled, elapsed=built.sim.now)
        total += sum(cancelled.values())
    assert drop_totals(built.sim).get("air-cancelled", 0) == total
