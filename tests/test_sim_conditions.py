"""Tests for AnyOf condition events."""

import pytest

from repro.sim import Simulator


def test_any_of_fires_on_first_event():
    sim = Simulator()
    log = []

    def proc(sim):
        fast = sim.timeout(1.0, value="fast")
        slow = sim.timeout(9.0, value="slow")
        result = yield sim.any_of([fast, slow])
        log.append((sim.now, fast in result, slow in result))

    sim.process(proc(sim))
    sim.run()
    assert log == [(1.0, True, False)]


def test_any_of_value_mapping():
    """The value is the tuple of sub-events processed by the time the
    condition fires: the first one, not a same-instant sibling still
    waiting in the queue, nor a later one."""
    sim = Simulator()
    got = []

    def proc(sim):
        a = sim.timeout(2.0, value=10)
        b = sim.timeout(2.0, value=20)
        late = sim.timeout(3.0, value=30)
        result = yield sim.any_of([late, b, a])
        got.append((sim.now, result == (a,), [event.value for event in result]))

    sim.process(proc(sim))
    sim.run()
    assert got == [(2.0, True, [10])]


def test_empty_any_of_is_refused():
    """An empty wait would never fire; it fails where it is built."""
    sim = Simulator()
    with pytest.raises(ValueError, match="at least one event"):
        sim.any_of([])


def test_condition_over_already_processed_events():
    sim = Simulator()
    log = []

    def proc(sim):
        early = sim.timeout(1.0, value="e")
        yield sim.timeout(5.0)
        result = yield sim.any_of([sim.timeout(1.0), early])
        log.append((sim.now, [event.value for event in result]))

    sim.process(proc(sim))
    sim.run()
    assert log == [(5.0, ["e"])]


def test_condition_rejects_foreign_events():
    sim_a = Simulator()
    sim_b = Simulator()
    event = sim_b.event()
    with pytest.raises(ValueError):
        sim_a.any_of([event])


def test_timeout_race_any_of_used_as_timeout_guard():
    """The idiom used throughout the protocol code: wait-with-timeout."""
    sim = Simulator()
    outcome = []

    def proc(sim, reply):
        timeout = sim.timeout(5.0)
        result = yield sim.any_of([reply, timeout])
        outcome.append("reply" if reply in result else "timeout")

    # Reply never comes: the guard must fire.
    sim.process(proc(sim, sim.event()))
    sim.run()
    assert outcome == ["timeout"]
