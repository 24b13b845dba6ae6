"""The one-wake window against its specification.

``ElasticSource`` arms one wait per window — the awaited sequence
numbers, one feedback event, one ``AnyOf([feedback, deadline])`` — and
is resumed once, by the ack that completes the window or by the
deadline.  The specification is what it replaced: a set of every
sequence ever acknowledged and a wake (fresh ``Event`` + ``AnyOf``, two
kernel entries) on every ack, kept here verbatim as
:class:`ReferenceElasticSource`.  Both are driven through the same
generated networks and must emit the same packets at the same instants,
move ``window`` the same way after every window and interleave with a
bystander process exactly alike — the witness that dropping the
per-ack wakes moved no same-instant order.

That holds wherever every hop takes time, which is every world the
catalog builds.  Where a hop takes none the reference can be ahead by
one kernel entry: a stale or non-final ack has already started its wake
when, in the same instant, the completing ack arrives by an entry
created after it.  The last test below pins that case, so the boundary
of the equivalence is written down where it is checked.
"""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.net import ip
from repro.sim import Simulator
from repro.traffic import ElasticSource


# ----------------------------------------------------------------------
# The specification: acknowledge + _run as they were, verbatim
# ----------------------------------------------------------------------
class ReferenceElasticSource(ElasticSource):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._acknowledged: set[int] = set()
        self._feedback_event = None

    def acknowledge(self, seq: int) -> None:
        """Sink-side callback: mark ``seq`` received."""
        self._acknowledged.add(seq)
        if self._feedback_event is not None and not self._feedback_event.triggered:
            self._feedback_event.succeed()

    def _run(self):
        stop_at = None if self.duration is None else self.sim.now + self.duration
        next_seq = 0
        while stop_at is None or self.sim.now < stop_at:
            burst = max(1, int(self.window))
            sent = []
            for _ in range(burst):
                self._emit(self.packet_size)
                sent.append(next_seq)
                next_seq += 1
            # Wait for the window to be acknowledged (or time out).
            deadline = self.sim.timeout(self.feedback_timeout)
            while not self._acknowledged.issuperset(sent):
                self._feedback_event = self.sim.event()
                outcome = yield self.sim.any_of([self._feedback_event, deadline])
                if deadline in outcome:
                    break
            if self._acknowledged.issuperset(sent):
                self.window = min(self.window + 1.0, self.max_window)
                self.windows_clean += 1
            else:
                self.window = max(1.0, self.window / 2.0)
                self.windows_lossy += 1
            yield self.sim.timeout(0.01)


# ----------------------------------------------------------------------
# A scripted network and a bystander, writing one shared log
# ----------------------------------------------------------------------
#: Everything runs on the 10 ms grid of the source's own pause between
#: windows, so acks, deadlines, bystander ticks and the next burst tie.
TICK = 0.01

#: One data packet's fate: ``(data lost, ticks to the sink, ack lost,
#: ticks back, ticks until a duplicate ack or None)``.
_fates = st.tuples(
    st.booleans(),
    st.integers(1, 4),
    st.sampled_from([False, False, False, True]),
    st.integers(1, 4),
    st.one_of(st.none(), st.integers(1, 60)),
)


def drive(cls, fates, initial_window, max_window, timeout_ticks, duration):
    """Run one source of ``cls`` over the scripted network; its story.

    Packet ``seq`` meets ``fates[seq % len(fates)]``: it is refused,
    swallowed, or reaches the sink, which sends the ack (and perhaps,
    later, a duplicate) back unless that is lost.  The log holds, in
    dispatch order, every emission (with the source's counters as the
    window before it left them), every arrival at the sink, every ack
    delivery with its two echoes — bystander entries reading the
    source's counters in the ack's own instant and one pause later,
    where the source's wake and its next burst are — and every tick of
    a bystander process on the same grid, which runs until well past
    the source's last deadline.
    """
    sim = Simulator()
    log = []
    source = None

    def send(packet):
        log.append((
            "emit", sim.now, packet.seq, packet.size,
            source.window, source.windows_clean, source.windows_lossy,
        ))
        lost, out, _ack_lost, _back, _again = fates[packet.seq % len(fates)]
        if lost:
            return bool(out % 2)  # refused or swallowed
        sim.call_later(out * TICK, sink, packet.seq)
        return True

    def sink(seq):
        log.append(("data", sim.now, seq))
        _lost, _out, ack_lost, back, again = fates[seq % len(fates)]
        if not ack_lost:
            sim.call_later(back * TICK, ack, seq)
        if again is not None:
            sim.call_later((back + again) * TICK, ack, seq)

    def ack(seq):
        log.append(("ack", sim.now, seq))
        sim.call_later(0.0, echo)  # meets the source's wake, if this ack wakes it
        source.acknowledge(seq)
        sim.call_later(TICK, echo)  # ... and the burst that follows the wake

    def echo():
        log.append((
            "echo", sim.now,
            source.window, source.windows_clean, source.windows_lossy,
        ))

    def bystander():
        while sim.now < duration + (timeout_ticks + 70) * TICK:
            log.append(("tick", sim.now))
            yield sim.timeout(TICK)

    source = cls(
        sim, send, ip("10.0.0.1"), ip("10.0.0.2"),
        packet_size=700, initial_window=initial_window, max_window=max_window,
        feedback_timeout=timeout_ticks * TICK, duration=duration, flow_id="f",
    )
    sim.process(bystander())
    source.start()
    sim.run()
    return log, (
        source.window, source.windows_clean, source.windows_lossy,
        source.packets_sent, source.bytes_sent,
    )


@seed(20021004)
@settings(max_examples=150, deadline=None)
@given(
    fates=st.lists(_fates, min_size=1, max_size=12),
    max_window=st.integers(1, 8),
    data=st.data(),
    # Round trips take 2 to 8 ticks: a deadline on either side of them.
    timeout_ticks=st.sampled_from([1, 2, 3, 5, 8, 9, 50]),
    duration=st.sampled_from([0.095, 0.3, 0.42, 1.0]),
)
def test_one_wake_window_matches_the_per_ack_reference(
    fates, max_window, data, timeout_ticks, duration
):
    initial_window = data.draw(st.integers(1, max_window))
    args = (fates, initial_window, max_window, timeout_ticks, duration)
    log, final = drive(ElasticSource, *args)
    expected_log, expected_final = drive(ReferenceElasticSource, *args)
    assert log == expected_log
    assert final == expected_final
    assert any(entry[0] == "emit" for entry in log)


def test_the_generated_networks_do_tie():
    """The grid does what it is for: in a plain run acks share instants
    with each other and with the bystander's ticks, and every burst but
    the first leaves in an instant where an echo reads the counters
    (else the property above would witness nothing about same-instant
    order)."""
    fates = [
        (False, 1, False, 1, None),
        (False, 1, False, 2, 3),
        (False, 2, False, 1, None),
    ]
    log, (window, clean, lossy, _sent, _bytes) = drive(
        ElasticSource, fates, 2, 6, 5, 1.0
    )
    instants = {}
    for what, now, *_rest in log:
        instants.setdefault(now, []).append(what)
    bursts = [kinds for kinds in instants.values() if "emit" in kinds]
    assert sum("echo" in kinds for kinds in bursts) == len(bursts) - 1 > 10
    assert sum(kinds.count("ack") > 1 for kinds in instants.values()) > 10
    assert sum({"ack", "tick"} <= set(kinds) for kinds in instants.values()) > 10
    assert clean > 10 and lossy == 0 and window == 6


# ----------------------------------------------------------------------
# Acks the source does not await, one scripted case each
# ----------------------------------------------------------------------
def scripted(cls, script, **kwargs):
    """Run ``cls`` over ``script(sim, source, packet) -> accepted``."""
    sim = Simulator()
    source = None

    def send(packet):
        return script(sim, source, packet)

    kwargs.setdefault("duration", 1.0)
    source = cls(sim, send, ip("10.0.0.1"), ip("10.0.0.2"), **kwargs)
    source.start()
    sim.run()
    return source


def outcome(source):
    return (
        source.window, source.windows_clean, source.windows_lossy,
        source.packets_sent,
    )


def late_ack(sim, source, packet):
    """Window one's acks miss the 30 ms deadline and land during window
    two's wait; everything later is acked in 5 ms."""
    delay = 0.045 if packet.seq < 2 else 0.005
    sim.call_later(delay, source.acknowledge, packet.seq)
    return True


def duplicate_ack(sim, source, packet):
    for delay in (0.004, 0.004, 0.006, 0.2):
        sim.call_later(delay, source.acknowledge, packet.seq)
    return True


def foreign_ack(sim, source, packet):
    """Every third packet is lost; acks for sequences never sent (a
    negative one, one far past the run) arrive in its place."""
    if packet.seq % 3 == 0:
        sim.call_later(0.004, source.acknowledge, -1 - packet.seq)
        sim.call_later(0.004, source.acknowledge, 10**6 + packet.seq)
    else:
        sim.call_later(0.004, source.acknowledge, packet.seq)
    return True


def synchronous_ack(sim, source, packet):
    """A zero-latency double: acked from inside ``send``, except every
    fifth packet, which takes 5 ms, and every seventh, lost."""
    if packet.seq % 7 == 6:
        return True
    if packet.seq % 5 == 4:
        sim.call_later(0.005, source.acknowledge, packet.seq)
    else:
        source.acknowledge(packet.seq)
    return True


def all_synchronous(sim, source, packet):
    source.acknowledge(packet.seq)
    return True


@pytest.mark.parametrize(
    "script",
    [late_ack, duplicate_ack, foreign_ack, synchronous_ack, all_synchronous],
)
def test_unawaited_acks_leave_the_counters_as_the_reference_has_them(script):
    kwargs = dict(initial_window=2, max_window=12, feedback_timeout=0.03)
    got = outcome(scripted(ElasticSource, script, **kwargs))
    assert got == outcome(scripted(ReferenceElasticSource, script, **kwargs))
    window, clean, lossy, sent = got
    assert clean + lossy > 10 and sent > 20
    if script in (late_ack, foreign_ack, synchronous_ack):
        assert lossy > 0  # the case did bite
    if script in (duplicate_ack, all_synchronous):
        assert lossy == 0 and window == 12


def test_a_late_ack_cannot_complete_a_later_window():
    """Sequence 0's ack, due after its window timed out, arrives while
    window two (sequence 1, lost) is waiting: that window is lossy too."""

    def script(sim, source, packet):
        if packet.seq == 0:
            sim.call_later(0.05, source.acknowledge, 0)
        return True

    source = scripted(
        ElasticSource, script,
        initial_window=1, feedback_timeout=0.03, duration=0.06,
    )
    assert (source.windows_clean, source.windows_lossy) == (0, 2)
    assert source.window == 1.0


def test_no_per_packet_history_after_ten_thousand_packets():
    def loopback(sim, source, packet):
        sim.call_later(0.001, source.acknowledge, packet.seq)
        return True

    source = scripted(
        ElasticSource, loopback, initial_window=32, max_window=32, duration=4.0
    )
    assert source.packets_sent >= 10_000 and source.windows_lossy == 0
    held = sum(
        len(value) for value in vars(source).values() if hasattr(value, "__len__")
    )
    assert held <= len(source.flow_id) + source.max_window
    reference = scripted(
        ReferenceElasticSource, loopback, initial_window=32, max_window=32,
        duration=4.0,
    )
    assert len(reference._acknowledged) == reference.packets_sent  # what went


# ----------------------------------------------------------------------
# The boundary: hops that take no time
# ----------------------------------------------------------------------
def test_with_zero_delay_hops_the_reference_can_wake_one_entry_earlier():
    """At t = 30 ms the ack of a window that timed out and the ack that
    completes the window in flight are delivered in one instant, the
    second over two zero-delay hops begun after the first.  The
    reference's wake, started by the stale ack, is one entry ahead of
    the completing ack's own zero-delay echo; the one-wake source starts
    waking at the completing ack, so that echo still reads the old
    counters.  Emissions, arrivals, acks and every counter agree."""
    fates = [(False, 0, False, 0, None), (False, 2, False, 0, None)]
    log, final = drive(ElasticSource, fates, 1, 1, 1, 0.095)
    expected_log, expected_final = drive(ReferenceElasticSource, fates, 1, 1, 1, 0.095)
    assert final == expected_final
    differing = [
        (got, expected)
        for got, expected in zip(log, expected_log)
        if got != expected
    ]
    assert len(log) == len(expected_log)
    assert differing == [(("echo", 0.03, 1.0, 1, 1), ("echo", 0.03, 1.0, 2, 1))]
