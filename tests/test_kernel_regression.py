"""Micro-regression pins for the kernel fast path.

The PR 9 speed work changed the hottest structures in the simulator —
pooled ``_Callback`` events behind :meth:`Simulator.call_later`, an
inlined dispatch loop in :meth:`Simulator.run`, ``__slots__`` on
:class:`~repro.net.packet.Packet`.  None of that may move a single
event: this file pins the ordering contract (time, then priority, then
scheduling order) across pooled callbacks and plain timeouts, and the
pool's recycling semantics.  The 16 experiment-table goldens pin the
same contract end-to-end; these tests localize a violation.
"""

import pytest

from repro.multitier.architecture import MultiTierWorld
from repro.net import IPAddress, Network
from repro.net.packet import Packet
from repro.net.router import ForwardingTable
from repro.sim import Simulator
from repro.sim.events import NORMAL, URGENT, Timeout
from repro.sim.kernel import _Callback


# ----------------------------------------------------------------------
# Ordering: time, then priority, then event id
# ----------------------------------------------------------------------
def test_urgent_events_preempt_normal_events_at_the_same_time():
    sim = Simulator()
    seen = []
    Timeout(sim, 1.0).callbacks.append(lambda e: seen.append("normal-first"))
    urgent = sim.event()
    urgent.callbacks.append(lambda e: seen.append("urgent"))
    sim._enqueue(urgent, delay=1.0, priority=URGENT)
    Timeout(sim, 1.0).callbacks.append(lambda e: seen.append("normal-second"))
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
    to the pooled path without disturbing a single golden byte."""
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
# The callback pool
# ----------------------------------------------------------------------
def test_fired_callbacks_are_recycled_through_the_pool():
    sim = Simulator()
    assert sim._callback_pool == []
    sim.call_later(1.0, lambda: None)
    sim.run()
    assert len(sim._callback_pool) == 1
    recycled = sim._callback_pool[0]
    # Recycled entries drop their payload (no leaked references)...
    assert recycled.fn is None and recycled.args is None
    # ...and the next call_later reuses the exact same object.
    sim.call_later(1.0, lambda: None)
    assert sim._callback_pool == []
    assert sim._queue[-1][3] is recycled
    sim.run()
    assert sim._callback_pool == [recycled]


def test_pool_size_tracks_peak_in_flight_not_total_calls():
    sim = Simulator()
    fired = []

    def chain():
        fired.append(sim.now)
        if len(fired) < 100:
            sim.call_later(1.0, chain)  # one in flight at a time

    sim.call_later(1.0, chain)
    sim.run()
    assert len(fired) == 100
    assert len(sim._callback_pool) == 1  # 100 calls, one pooled object
    for _ in range(10):
        sim.call_later(1.0, lambda: None)  # ten in flight at once
    sim.run()
    assert len(sim._callback_pool) == 10


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


def test_pooled_callback_type_is_internal_only_and_slotted():
    sim = Simulator()
    assert sim.call_later(0.0, lambda: None) is None  # no waitable event
    entry = _Callback.__new__(_Callback)
    with pytest.raises(AttributeError):
        entry.not_a_slot = 1  # Event + _Callback are fully __slots__-ed


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
    assert mobile.initial_attach(world.domain1["B"])
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
    (the inlined run loop) must keep the pool coherent: every scheduled
    body fires exactly once, recycled entries are distinct objects, and
    nothing in the pool still holds a payload."""
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
    pool = sim._callback_pool
    assert len(pool) == len({id(entry) for entry in pool})
    assert all(entry.fn is None and entry.args is None for entry in pool)
    # The pool never exceeds the peak in-flight count (no unbounded growth).
    assert len(pool) <= len(fired)

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
