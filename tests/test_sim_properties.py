"""Property-based tests for the simulation kernel (hypothesis)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.sim import RandomStreams, Simulator


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_events_always_processed_in_nondecreasing_time_order(delays):
    sim = Simulator()
    seen = []
    for delay in delays:
        sim.call_later(delay, lambda d=delay: seen.append(sim.now))
    sim.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=100.0), st.integers(0, 1000)),
        min_size=1,
        max_size=40,
    )
)
def test_simultaneous_events_preserve_insertion_order(items):
    sim = Simulator()
    seen = []
    for delay, tag in items:
        sim.call_later(delay, seen.append, (delay, tag))
    sim.run()
    # Stable sort by delay must reproduce the processing order exactly.
    assert seen == sorted(items, key=lambda pair: pair[0])


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_named_rng_streams_are_reproducible(seed):
    streams_a = RandomStreams(seed)
    streams_b = RandomStreams(seed)
    assert streams_a.stream("x").uniform() == streams_b.stream("x").uniform()
    assert streams_a.exponential("y", 2.0) == streams_b.exponential("y", 2.0)


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_named_rng_streams_are_independent_of_draw_order(seed):
    streams_a = RandomStreams(seed)
    first_then_second = (
        streams_a.stream("one").uniform(), streams_a.stream("two").uniform()
    )
    streams_b = RandomStreams(seed)
    second_then_first = (
        streams_b.stream("two").uniform(), streams_b.stream("one").uniform()
    )
    assert first_then_second == (second_then_first[1], second_then_first[0])
