"""Micro-regression pins for the kernel fast path.

The speed work shaped the hottest structures in the simulator — heap
entries ``(when, priority, eid, target, args)`` that carry
:meth:`Simulator.call_later`'s callable themselves, an inlined dispatch
loop in :meth:`Simulator.run`, ``__slots__`` on
:class:`~repro.net.packet.Packet`, data-plane sites that transmit on
the link.  None of that may move a single event: this file pins the
ordering contract (time, then priority, then scheduling order) across
bare callables and plain timeouts, what the per-hop chain may not
do per packet, what a mobility sample that stays may not build, and
the kernel-entry budgets of an elastic window and of an air packet.  The experiment-table goldens pin the same contract
end-to-end; these tests localize a violation.
"""

import random
from itertools import count
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.controller import MobilityController
from repro.multitier.architecture import MultiTierWorld
from repro.net import IPAddress, Network
from repro.net.link import Link
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.router import ForwardingTable
from repro.policy import (
    Candidate,
    DecisionRecord,
    DecisionTrace,
    HandoffFactors,
    TierDecider,
    TierDecision,
)
from repro.radio import Cell, Point, PropagationModel, SignalMeter, Tier
from repro.radio.channel import DOWNLINK, SharedChannel
from repro.scenarios import ScenarioSpec, build_scenario
from repro.sim import Interrupt, Simulator
from repro.sim.events import NORMAL, URGENT, Timeout
from repro.stacks import stack_names
from repro.traffic import ElasticSource


# ----------------------------------------------------------------------
# Ordering: time, then priority, then event id
# ----------------------------------------------------------------------
def _starting(fire):
    """A process that calls ``fire`` when it starts, then ends: its
    start is the program's URGENT entry, queued at the instant it is
    made."""
    fire()
    return
    yield


def test_urgent_events_preempt_normal_events_at_the_same_time():
    sim = Simulator()
    seen = []
    Timeout(sim, 0.0).callbacks.append(lambda e: seen.append("normal-first"))
    sim.process(_starting(lambda: seen.append("urgent")))
    Timeout(sim, 0.0).callbacks.append(lambda e: seen.append("normal-second"))
    sim.run()
    assert seen == ["urgent", "normal-first", "normal-second"]
    assert URGENT < NORMAL  # the heap invariant the test relies on


def test_same_time_same_priority_fires_in_scheduling_order():
    sim = Simulator()
    seen = []
    for tag in range(8):
        sim.call_later(2.0, seen.append, tag)
    sim.run()
    assert seen == list(range(8))


def test_call_later_and_timeout_interleave_in_creation_order():
    """``call_later`` consumes exactly one event id per call, so mixing
    the fast path with plain timeouts at one timestamp keeps creation
    order — the determinism contract that let links and channels move
    to the fast path without disturbing a single golden byte."""
    sim = Simulator()
    seen = []
    sim.call_later(1.0, seen.append, "a")
    sim.timeout(1.0).callbacks.append(lambda _event: seen.append("b"))
    sim.call_later(1.0, seen.append, "c")
    sim.timeout(1.0).callbacks.append(lambda _event: seen.append("d"))
    sim.run()
    assert seen == ["a", "b", "c", "d"]


def test_call_later_rejects_negative_delay_and_passes_args():
    sim = Simulator()
    with pytest.raises(ValueError, match="negative delay"):
        sim.call_later(-0.1, lambda: None)
    seen = []
    sim.call_later(0.5, lambda *args: seen.append(args), 1, "two", 3.0)
    sim.run()
    assert seen == [(1, "two", 3.0)]
    assert sim.now == 0.5


def test_run_until_includes_pooled_callbacks_at_the_stop_time():
    sim = Simulator()
    seen = []
    sim.call_later(1.0, seen.append, "at-stop")
    sim.call_later(1.0 + 1e-9, seen.append, "after-stop")
    sim.run(until=1.0)
    assert seen == ["at-stop"]
    assert sim.now == 1.0


# ----------------------------------------------------------------------
# The heap entry: (when, priority, eid, target, args)
# ----------------------------------------------------------------------
def test_call_later_entry_carries_its_callable_and_makes_no_event():
    sim = Simulator()
    seen = []
    assert sim.call_later(1.0, seen.append, "x") is None  # nothing to wait on
    timeout = sim.timeout(1.0)
    (_, _, first, target, args), (_, _, second, event, no_args) = sorted(sim._queue)
    assert (target, args) == (seen.append, ("x",))
    assert event is timeout and no_args is None
    assert second == first + 1  # one event id each, in call order
    sim.run()
    assert seen == ["x"] and timeout.callbacks is None  # processed


def test_callbacks_scheduled_from_a_callback_keep_ordering():
    sim = Simulator()
    seen = []

    def reschedule():
        seen.append(("outer", sim.now))
        sim.call_later(0.0, seen.append, ("inner", sim.now))

    sim.call_later(1.0, reschedule)
    sim.call_later(1.0, seen.append, ("sibling", 1.0))
    sim.run()
    # The re-scheduled callback lands after the already-queued sibling
    # at the same timestamp (fresh event id), exactly like a new timeout.
    assert seen == [("outer", 1.0), ("sibling", 1.0), ("inner", 1.0)]


_DELAYS = (0.0, 0.5, 1.0)
_KINDS = ("call_later", "timeout", "urgent")
#: One scheduling call plus the calls its firing makes: (kind, delay, children).
_ops = st.recursive(
    st.tuples(st.sampled_from(_KINDS), st.sampled_from(_DELAYS), st.just(())),
    lambda children: st.tuples(
        st.sampled_from(_KINDS),
        st.sampled_from(_DELAYS),
        st.lists(children, max_size=3).map(tuple),
    ),
    max_leaves=20,
)


def _schedule(sim, op, tag, fired):
    kind, delay, children = op

    def fire(*_event):
        fired.append((tag, sim.now))
        for index, child in enumerate(children):
            _schedule(sim, child, tag + (index,), fired)

    if kind == "call_later":
        sim.call_later(delay, fire)
    elif kind == "timeout":
        sim.timeout(delay).callbacks.append(fire)
    else:  # a process started now, ahead of everything NORMAL at this time
        sim.process(_starting(fire))


def _reference_order(ops):
    """The contract, without a heap: always fire the pending entry that
    is least by (time, priority, creation index)."""
    pending, created, fired = [], count(), []

    def schedule(now, op, tag):
        kind, delay, children = op
        key = (now, URGENT) if kind == "urgent" else (now + delay, NORMAL)
        pending.append((*key, next(created), tag, children))

    for index, op in enumerate(ops):
        schedule(0.0, op, (index,))
    while pending:
        entry = min(pending, key=lambda e: e[:3])
        pending.remove(entry)
        now, _priority, _index, tag, children = entry
        fired.append((tag, now))
        for index, child in enumerate(children):
            schedule(now, child, tag + (index,))
    return fired


@settings(max_examples=200, deadline=None)
@given(st.lists(_ops, min_size=1, max_size=6), st.sampled_from((0.0, 0.5, 1.0, 2.5)))
def test_dispatch_order_is_time_then_priority_then_creation_index(ops, stop):
    """Any mix of ``call_later``, ``timeout`` and process starts,
    from the top level and from inside fired callbacks, is dispatched in
    the reference order; a bounded run stops after the entries at its
    bound; ``events_processed`` counts exactly what fired."""
    expected = _reference_order(ops)
    sim = Simulator()
    fired = []
    for index, op in enumerate(ops):
        _schedule(sim, op, (index,), fired)
    sim.run(until=stop)
    up_to_stop = [entry for entry in expected if entry[1] <= stop]
    assert fired == up_to_stop
    assert sim.now == stop
    assert sim.events_processed == len(up_to_stop)
    sim.run()
    assert fired == expected
    assert sim.events_processed == len(expected)


@pytest.mark.parametrize("schedule", ["call_later", "timeout"])
def test_nan_delay_is_rejected_instead_of_firing_first(schedule):
    """``nan < 0`` is false, and a ``nan`` heap key sorts ahead of every
    real time: it would fire first and set the clock to ``nan``."""
    sim = Simulator()
    seen = []
    sim.call_later(1.0, seen.append, "b")
    sim.call_later(0.5, seen.append, "a")
    with pytest.raises(ValueError, match="negative delay nan"):
        getattr(sim, schedule)(float("nan"), seen.append)
    sim.run()
    assert seen == ["a", "b"]
    assert sim.now == 1.0


# ----------------------------------------------------------------------
# A process sleeps by yielding seconds
# ----------------------------------------------------------------------
def _interrupted_sleeper(sleep):
    """The log and ``events_processed`` of a sleeper interrupted at 3 s
    into a 10 s sleep, which then sleeps 20 s more."""
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sleep(sim, 10.0)
        except Interrupt as interrupt:
            log.append(("interrupted", sim.now, interrupt.cause))
        yield sleep(sim, 20.0)  # asleep when the first sleep's entry fires
        log.append(("woke", sim.now))

    process = sim.process(sleeper())
    sim.call_later(3.0, process.interrupt, "moved")
    sim.run()
    return log, sim.events_processed


def test_an_interrupted_sleep_leaves_a_stale_wake_up_that_does_nothing():
    """The interrupt clears the sleep's token: its wake-up still leaves
    the queue at 10 s (counted, as an orphaned ``Timeout`` is) but does
    not resume the process, which sleeps on to 23 s."""
    log, processed = _interrupted_sleeper(lambda sim, delay: delay)
    assert log == [("interrupted", 3.0, "moved"), ("woke", 23.0)]
    timeout_form = _interrupted_sleeper(lambda sim, delay: sim.timeout(delay))
    assert (log, processed) == timeout_form


@pytest.mark.parametrize(
    "value, error, message",
    [
        (-1.0, ValueError, "^negative delay -1.0$"),
        (float("nan"), ValueError, "^negative delay nan$"),
        (True, RuntimeError, "^process 'bad' yielded a non-event: True$"),
        (np.float64(1.0), RuntimeError, "yielded a non-event"),
    ],
    ids=["negative", "nan", "bool", "numpy-scalar"],
)
def test_a_bad_sleep_fails_the_process_in_one_line(value, error, message):
    """A negative or nan delay fails as ``sim.timeout`` would; a bool or
    a numpy scalar is no sleep (call sites keep their ``float(...)``)."""
    sim = Simulator()

    def bad():
        yield value

    process = sim.process(bad())
    with pytest.raises(error, match=message):
        sim.run()
    assert not process.is_alive and sim.now == 0.0 and not sim._queue


def _sleep_trace(seed, by_number):
    """``(now, name)`` of every wake-up and interrupt of a seeded set of
    sleepers, and ``events_processed``.  The sleepers named in
    ``by_number`` yield seconds; the others yield ``sim.timeout``."""
    rng = random.Random(seed)
    sim = Simulator()
    trace = []

    def sleeper(name, delays):
        for delay in delays:
            try:
                yield delay if name in by_number else sim.timeout(delay)
            except Interrupt:
                trace.append((sim.now, f"{name}!"))
            else:
                trace.append((sim.now, name))

    processes = [
        sim.process(sleeper(
            f"p{index}",
            [rng.choice((0, 0.5, 1.0, 2.5)) for _ in range(rng.randint(1, 8))],
        ))
        for index in range(12)
    ]
    for _ in range(6):
        victim = rng.choice(processes)
        sim.call_later(
            rng.choice((0.5, 1.0, 3.0)),
            lambda victim=victim: victim.is_alive and victim.interrupt(),
        )
    sim.run()
    return trace, sim.events_processed


@pytest.mark.parametrize("seed", range(5))
def test_sleeping_by_number_replays_the_timeout_program(seed):
    """A sleep draws its event id where ``sim.timeout`` would have, so
    any mix of the two forms (ties at one instant, interrupts, ``int``
    delays) dispatches in the all-``Timeout`` order."""
    names = {f"p{index}" for index in range(12)}
    reference = _sleep_trace(seed, set())
    assert any(name.endswith("!") for _, name in reference[0])
    half = set(random.Random(seed).sample(sorted(names), 6))
    assert _sleep_trace(seed, half) == reference
    assert _sleep_trace(seed, names) == reference


# ----------------------------------------------------------------------
# Packet after the __slots__ change
# ----------------------------------------------------------------------
def test_packet_carries_no_instance_dict():
    """``__slots__`` actually took: the high-churn object allocates no
    per-instance ``__dict__`` (the point of the memory work), and
    Packet's field coercion still runs."""
    packet = Packet(src="10.0.0.1", dst="10.0.0.2", size=100)
    with pytest.raises(AttributeError):
        packet.not_a_field = 1
    assert int(packet.src) and int(packet.dst)  # str coerced to IPAddress
    copy = packet.copy()
    assert copy.src == packet.src and copy is not packet


# ----------------------------------------------------------------------
# The per-hop chain stays coercion-free
# ----------------------------------------------------------------------
def _router_chain(sim):
    """host -> router -> router -> host; returns (send_one, delivered)."""
    network = Network(sim)
    src, dst = network.host("src"), network.host("dst")
    r1, r2 = network.router("r1"), network.router("r2")
    for a, b in ((src, r1), (r1, r2), (r2, dst)):
        network.connect(a, b)
    network.install_routes()
    delivered = []
    dst.on_default(lambda packet, link: delivered.append(packet.uid))
    return (
        lambda: src.send_via(r1, Packet(src=src.address, dst=dst.address, size=500)),
        delivered,
    )


def _multitier_downlink(sim):
    """CN -> Internet -> RSMC -> base stations -> mobile (Fig 3.1 world)."""
    world = MultiTierWorld(sim=sim)
    mobile = world.add_mobile("mn")
    assert mobile.initial_attach(world.domain1["B"]) is None
    sim.run(until=1.0)
    delivered = []
    mobile.on_data.append(lambda packet: delivered.append(packet.uid))
    return lambda: world.cn.send_to_mobile(mobile.home_address), delivered


@pytest.mark.parametrize("build", [_router_chain, _multitier_downlink])
def test_forwarding_does_no_per_packet_address_or_table_work(build, monkeypatch):
    """Forwarding N packets may construct no address and rebuild no LPM
    probe list: both counts are set by the world and the simulated time,
    never by N.  (Addresses are typed once, at ``Packet`` construction
    or at build time; every hop tests membership on ``packet.dst``.)"""
    made, rebuilt = [], []
    address_new = IPAddress.__new__
    rebuild_probes = ForwardingTable._rebuild_probes
    monkeypatch.setattr(
        IPAddress,
        "__new__",
        staticmethod(lambda cls, value: made.append(value) or address_new(cls, value)),
    )
    monkeypatch.setattr(
        ForwardingTable,
        "_rebuild_probes",
        lambda table: rebuilt.append(table) or rebuild_probes(table),
    )
    counts = []
    for packets in (3, 30):
        del made[:], rebuilt[:]
        sim = Simulator()
        send_one, delivered = build(sim)
        for _ in range(packets):
            send_one()
        sim.run(until=3.0)
        assert len(delivered) == packets
        counts.append((len(made), len(rebuilt)))
    assert counts[0] == counts[1]
    assert counts[0][1] > 0  # the patches did see the build-time work


@pytest.mark.parametrize("stack", stack_names())
def test_data_plane_transmits_on_the_link_and_sends_the_source_packet(
    monkeypatch, stack
):
    """A run of every stack with CBR and elastic downlinks (under
    ``multitier``, before and after the correspondent learns its
    bindings): no data packet, ack or tunnel wrapper passes through
    ``Node.send_via`` (control messages still do), every data packet is
    constructed once, by its source, every ack once, by its receiver,
    and a packet is wrapped at most once per tunnel; reading the clock
    is an attribute load."""
    via, made = [], []
    send_via, init = Node.send_via, Packet.__init__

    def counted_init(packet, *args, **kwargs):
        init(packet, *args, **kwargs)
        made.append(packet.protocol)

    monkeypatch.setattr(
        Node,
        "send_via",
        lambda node, neighbor, packet: via.append(packet.protocol)
        or send_via(node, neighbor, packet),
    )
    monkeypatch.setattr(Packet, "__init__", counted_init)
    spec = ScenarioSpec(
        name="hop-guard",
        description="stationary CBR and elastic listeners",
        population=4,
        duration=2.0,
        mobility_mix={"stationary": 1.0},
        traffic_mix={"cbr-voice": 0.5, "elastic-data": 0.5},
        stack=stack,
    )
    run = build_scenario(spec, seed=1)
    metrics = run.execute()
    assert metrics["received"] > 0
    assert via and not {"data", "ack", "ipip"} & set(via)
    assert made.count("data") == metrics["sent"]
    assert 0 < made.count("ack") <= metrics["received"]
    if stack == "multitier":
        cn, ha = run.world.cn, run.world.ha
        assert cn.sent_via_home > 0 and cn.sent_via_binding > 0
        tunnelled = cn.sent_via_binding + ha.tunneled_count
    else:
        tunnelled = run.extras().get("mip.tunneled", 0)
    assert made.count("ipip") == tunnelled
    assert not hasattr(Simulator, "now")  # set per instance, no descriptor


# ----------------------------------------------------------------------
# A mobility sample that stays, or whose attach is refused, builds nothing
# ----------------------------------------------------------------------
def _count_constructions(monkeypatch, *classes):
    """A ``{class: constructions}`` dict the patched ``__init__``s bump."""
    built = dict.fromkeys(classes, 0)
    for cls in built:
        def counted_init(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
            built[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted_init)
    return built


def test_a_sample_that_stays_builds_no_candidate_factors_or_decision(monkeypatch):
    """A mobile attached to one micro cell and parked where a second
    micro cell is louder, but by less than the hysteresis margin, stays
    at every sample: no sample builds a ``Candidate``, a
    ``HandoffFactors``, a ``TierDecision`` or a ``DecisionRecord``, the
    attach included (it asks the survey's own cells)."""
    built = _count_constructions(
        monkeypatch, Candidate, HandoffFactors, TierDecision, DecisionRecord
    )

    cells = [
        Cell("serving", Point(0.0, 0.0), Tier.MICRO),
        Cell("rival", Point(200.0, 0.0), Tier.MICRO),
    ]
    meter = SignalMeter(PropagationModel(), cells)
    attach_at, parked = Point(10.0, 0.0), Point(106.0, 0.0)
    (rival_rss, rival), (serving_rss, serving) = meter.scan(parked, covering=True)
    assert (rival, serving) == (1, 0)
    margin = MobilityController.hysteresis_db
    assert 0.0 < rival_rss - serving_rss < margin

    def counts(samples):
        for cls in built:
            built[cls] = 0
        sim = Simulator()
        nodes = [SimpleNamespace(name=cell.name, shared_channel=None) for cell in cells]
        positions = iter([attach_at])
        model = SimpleNamespace(speed=1.0, advance=lambda dt: next(positions, parked))
        trace = DecisionTrace()
        controller = MobilityController(
            sim, model, nodes, meter, trace, TierDecider(),
            attach=lambda node: None, handoff=lambda old, new: None,
        )
        sim.run(until=samples * controller.sample_period + 0.25)
        assert controller.serving is nodes[0] and controller.handoffs == 0
        assert not trace.records
        return dict(built)

    n = 20
    assert counts(n) == counts(2 * n) == dict.fromkeys(built, 0)


def test_a_refused_attach_builds_nothing_but_its_trace_fields(monkeypatch):
    """A mobile that every covering cell refuses asks each cell at every
    sample, in the decider's order, and records each refusal with the
    action ``_note_fallback`` derives, without building a
    ``Candidate``, a ``HandoffFactors`` or a ``DecisionRecord``."""
    built = _count_constructions(monkeypatch, Candidate, HandoffFactors, DecisionRecord)

    cells = [
        Cell("macro", Point(0.0, 0.0), Tier.MACRO),
        Cell("micro", Point(50.0, 0.0), Tier.MICRO),
        Cell("micro2", Point(120.0, 0.0), Tier.MICRO),
    ]
    meter = SignalMeter(PropagationModel(), cells)
    spot = Point(60.0, 0.0)
    survey = meter.scan(spot, covering=True)
    assert sorted(index for _rss, index in survey) == [0, 1, 2]
    sim = Simulator()
    nodes = [SimpleNamespace(name=cell.name, shared_channel=None) for cell in cells]
    asked = []

    def attach(node):
        asked.append(node.name)
        return "channel-pool-full"

    model = SimpleNamespace(speed=1.0, advance=lambda dt: spot)
    trace = DecisionTrace()
    controller = MobilityController(
        sim, model, nodes, meter, trace, TierDecider(),
        attach=attach, handoff=lambda old, new: None,
    )
    samples = 3
    sim.run(until=samples * controller.sample_period + 0.25)
    assert controller.serving is None
    assert built == dict.fromkeys(built, 0)
    # A slow mobile prefers micro: the louder micro cell first, then the
    # other, then the macro overflow.
    order = ["micro", "micro2", "macro"]
    assert asked == order * samples
    assert trace.refusals == {("attach", "channel-pool-full"): 3 * samples}
    records = trace.records
    assert [(r.kind, r.action, r.target) for r in records[:3]] == [
        ("attach", "retry_same_tier", "micro2"),
        ("attach", "escalate_tier", "macro"),
        ("attach", "stop", ""),
    ]


# ----------------------------------------------------------------------
# No kernel entry that decides nothing
# ----------------------------------------------------------------------
def test_an_elastic_window_costs_the_same_entries_whatever_its_size():
    """Over a loopback that returns each ack at its own instant, a
    window of any size costs four kernel entries of the source's own —
    its last ack's feedback event, the condition, the spent deadline and
    the pause — and builds one ``Event`` and one ``AnyOf``: nothing is
    dispatched or allocated per ack."""
    budgets = []
    for size in (1, 4, 16):
        sim = Simulator()
        built = {"event": 0, "any_of": 0}
        for factory in built:
            def counted(*args, _make=getattr(sim, factory), _name=factory):
                built[_name] += 1
                return _make(*args)
            setattr(sim, factory, counted)

        def loopback(packet):  # acks one millisecond apart, in order
            delay = 0.002 + 0.001 * (packet.seq % size)
            sim.call_later(delay, source.acknowledge, packet.seq)
            return True

        source = ElasticSource(
            sim, loopback, "10.0.0.1", "10.0.0.2",
            initial_window=size, max_window=size, feedback_timeout=0.02,
            duration=1.0,
        ).start()
        sim.run()
        windows = source.windows_clean
        assert windows > 20 and source.windows_lossy == 0
        assert source.packets_sent == windows * size
        assert built == {"event": windows, "any_of": windows}
        # Besides one entry per looped-back ack: the process's start,
        # and the window's own.
        own = sim.events_processed - source.packets_sent - 1
        budgets.append(own / windows)
    assert budgets == [4.0, 4.0, 4.0]


class _AirTap:
    """Stands in for a link on the channel; serialization schedules nothing."""

    channel_direction = DOWNLINK

    def __init__(self, key, served):
        self.channel_key = key
        self.served = served

    def channel_serialized(self, packet):
        self.served.append(packet.seq)


def _air_packet(seq=0, size=125):
    return Packet(src="10.0.0.1", dst="10.99.0.1", size=size, seq=seq)


def test_an_air_packet_costs_two_kernel_entries():
    """*k* packets submitted in one instant and drained dispatch exactly
    2 *k* channel entries (one arbitrate and one finish each); a submit
    onto a busy direction pushes nothing; a lone packet on an idle
    channel costs arbitrate + finish + its delivery."""
    for packets in (1, 5, 40):
        sim = Simulator()
        channel = SharedChannel(sim, "air", 8000.0, 4000.0)
        served = []
        for seq in range(packets):
            channel.submit(_AirTap(seq % 3, served), _air_packet(seq))
        sim.run()
        assert len(served) == packets == channel.stats.granted[DOWNLINK]
        assert sim.events_processed == 2 * packets

    sim = Simulator()
    channel = SharedChannel(sim, "air", 8000.0, 4000.0)
    served = []
    channel.submit(_AirTap(0, served), _air_packet(size=1000))
    sim.run(until=0.5)  # on the air until t = 1.0
    pending = len(sim._queue)
    for seq in (1, 2):
        channel.submit(_AirTap(seq, served), _air_packet(seq))
        assert len(sim._queue) == pending
    sim.run()
    assert served == [0, 1, 2] and sim.events_processed == 6

    sim = Simulator()
    log = []
    channel = SharedChannel(sim, "air", 8000.0, 4000.0)
    bs = Node(sim, "bs", "10.0.1.1")
    mobile = Node(sim, "mn", "10.99.0.1")
    mobile.on_default(lambda packet, link: log.append(sim.now))
    link = Link(sim, bs, mobile, bandwidth=100e6, delay=0.25, shared_channel=channel)
    assert link.transmit(_air_packet(size=500))
    sim.run()
    assert log == [0.75] and sim.events_processed == 3


# ----------------------------------------------------------------------
# Run-loop hardening: re-entrancy guard and the event counter
# ----------------------------------------------------------------------
def test_run_is_not_reentrant_from_a_dispatched_callback():
    """A nested run() would drain events past the outer until bound and
    rewind the clock on return; the kernel refuses it loudly instead."""
    sim = Simulator()
    caught = []

    def nested():
        with pytest.raises(RuntimeError, match="not re-entrant"):
            sim.run(until=5.0)
        caught.append(sim.now)

    sim.call_later(1.0, nested)
    sim.call_later(2.0, lambda: None)
    sim.run(until=3.0)
    assert caught == [1.0]
    assert sim.now == 3.0  # the outer bounded run finished normally


def test_run_guard_resets_after_an_escaping_exception():
    sim = Simulator()

    def boom():
        raise ValueError("event body failed")

    sim.call_later(1.0, boom)
    with pytest.raises(ValueError, match="event body failed"):
        sim.run()
    # The finally path cleared the flag: the simulator is reusable.
    sim.call_later(1.0, lambda: None)
    sim.run()
    assert not sim._running


def test_events_processed_counts_run_and_step_and_survives_errors():
    sim = Simulator()
    for index in range(5):
        sim.call_later(float(index), lambda: None)
    sim.run(until=0.0)
    assert sim.events_processed == 1
    sim.run()
    assert sim.events_processed == 5

    def boom():
        raise ValueError("late failure")

    sim.call_later(1.0, lambda: None)
    sim.call_later(2.0, boom)
    with pytest.raises(ValueError):
        sim.run()
    # Both the clean event and the failing one were flushed (finally).
    assert sim.events_processed == 7


def test_pool_recycling_survives_reentrant_scheduling_fuzz():
    """call_later()/timeout() invoked from inside dispatched callbacks
    (the inlined run loop): every scheduled body fires exactly once,
    and the same fuzz replays identically."""
    import random

    rng = random.Random(1234)
    sim = Simulator()
    fired = []
    budget = [400]

    def body(tag):
        fired.append(tag)
        if budget[0] <= 0:
            return
        for _ in range(rng.randint(0, 3)):
            budget[0] -= 1
            child = (tag, budget[0])
            if rng.random() < 0.5:
                sim.call_later(rng.choice((0.0, 0.5, 1.0)), body, child)
            else:
                sim.timeout(rng.choice((0.0, 0.5, 1.0))).callbacks.append(
                    lambda _event, child=child: body(child)
                )

    for index in range(10):
        sim.call_later(float(index % 3), body, ("root", index))
    sim.run()
    assert len(fired) == len(set(fired))  # every body fired exactly once
    assert len(fired) >= 10

    # Determinism spot check: the same fuzz replays identically.
    rng2 = random.Random(1234)
    sim2 = Simulator()
    fired2 = []
    budget2 = [400]

    def body2(tag):
        fired2.append(tag)
        if budget2[0] <= 0:
            return
        for _ in range(rng2.randint(0, 3)):
            budget2[0] -= 1
            child = (tag, budget2[0])
            if rng2.random() < 0.5:
                sim2.call_later(rng2.choice((0.0, 0.5, 1.0)), body2, child)
            else:
                sim2.timeout(rng2.choice((0.0, 0.5, 1.0))).callbacks.append(
                    lambda _event, child=child: body2(child)
                )

    for index in range(10):
        sim2.call_later(float(index % 3), body2, ("root", index))
    sim2.run()
    assert fired2 == fired
