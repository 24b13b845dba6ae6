"""Tests for the soft-state routing cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cellularip import RoutingCache
from repro.net import Node, ip
from repro.sim import Simulator


def make_cache(timeout=2.0):
    sim = Simulator()
    cache = RoutingCache(sim, timeout=timeout)
    a = Node(sim, "a")
    b = Node(sim, "b")
    return sim, cache, a, b


def test_refresh_then_lookup():
    sim, cache, a, b = make_cache()
    cache.refresh(ip("10.0.0.1"), a)
    assert cache.lookup(ip("10.0.0.1")) == [a]


def test_lookup_unknown_returns_empty():
    _sim, cache, _a, _b = make_cache()
    assert cache.lookup(ip("10.0.0.9")) == []


def test_entry_expires_after_timeout():
    sim, cache, a, _b = make_cache(timeout=2.0)
    cache.refresh(ip("10.0.0.1"), a)
    sim.timeout(3.0)
    sim.run()
    assert cache.lookup(ip("10.0.0.1")) == []
    assert cache.expirations == 1


def test_refresh_extends_lifetime():
    sim, cache, a, _b = make_cache(timeout=2.0)
    cache.refresh(ip("10.0.0.1"), a)
    sim.timeout(1.5)
    sim.run()
    cache.refresh(ip("10.0.0.1"), a)
    sim.timeout(1.5)
    sim.run()  # now=3.0, entry valid until 3.5
    assert cache.lookup(ip("10.0.0.1")) == [a]


def test_freshest_regular_mapping_wins():
    sim, cache, a, b = make_cache()
    cache.refresh(ip("10.0.0.1"), a)
    cache.refresh(ip("10.0.0.1"), b)
    # The stale entry coexists (own timer) but lookup follows the
    # freshest regular mapping only.
    assert cache.lookup(ip("10.0.0.1")) == [b]


def test_old_path_refresh_does_not_wipe_semisoft_mapping():
    """Uplink traffic still flowing via the old base station must not
    destroy the semisoft (new-path) mapping — the dual-cast interval
    has to survive until the radio actually switches."""
    sim, cache, a, b = make_cache()
    cache.refresh(ip("10.0.0.1"), a)              # old path
    cache.refresh(ip("10.0.0.1"), b, semisoft=True)  # advance update
    cache.refresh(ip("10.0.0.1"), a)              # ack via old path
    assert set(cache.lookup(ip("10.0.0.1"))) == {a, b}


def test_semisoft_refresh_adds_second_mapping():
    sim, cache, a, b = make_cache()
    cache.refresh(ip("10.0.0.1"), a)
    cache.refresh(ip("10.0.0.1"), b, semisoft=True)
    assert set(cache.lookup(ip("10.0.0.1"))) == {a, b}


def test_regular_refresh_after_semisoft_hardens():
    sim, cache, a, b = make_cache()
    cache.refresh(ip("10.0.0.1"), a)
    cache.refresh(ip("10.0.0.1"), b, semisoft=True)
    cache.refresh(ip("10.0.0.1"), b)  # radio switched: harden
    assert cache.lookup(ip("10.0.0.1")) == [b]


def test_remove_clears_mapping():
    sim, cache, a, _b = make_cache()
    cache.refresh(ip("10.0.0.1"), a)
    cache.remove(ip("10.0.0.1"))
    assert cache.lookup(ip("10.0.0.1")) == []


def test_invalid_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        RoutingCache(sim, timeout=0.0)


def test_nan_timeout_rejected():
    with pytest.raises(ValueError, match="timeout must be positive"):
        RoutingCache(Simulator(), timeout=float("nan"))


def test_contains_and_mobiles():
    sim, cache, a, _b = make_cache()
    cache.refresh(ip("10.0.0.1"), a)
    assert ip("10.0.0.1") in cache
    assert ip("10.0.0.2") not in cache
    assert len(cache) == 1  # one mobile cached


@settings(max_examples=50, deadline=None)
@given(
    refresh_times=st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20
    ),
    timeout=st.floats(min_value=0.5, max_value=10.0),
    probe_offset=st.floats(min_value=0.01, max_value=20.0),
)
def test_property_entry_live_iff_within_timeout_of_last_refresh(
    refresh_times, timeout, probe_offset
):
    """Soft-state invariant: a mapping is alive exactly when the last
    refresh happened within ``timeout`` of the probe instant."""
    from hypothesis import assume

    # Probing exactly at the expiry instant is ambiguous under float
    # rounding; demand a clear margin.
    assume(abs(probe_offset - timeout) > 1e-6)
    sim = Simulator()
    cache = RoutingCache(sim, timeout=timeout)
    node = Node(sim, "n")
    mobile = ip("10.0.0.1")
    last_refresh = max(refresh_times)
    probe_time = last_refresh + probe_offset

    for when in sorted(refresh_times):
        sim.call_later(when, cache.refresh, mobile, node)
    result = []
    sim.call_later(probe_time, lambda: result.append(cache.lookup(mobile)))
    sim.run()

    expected_alive = probe_offset < timeout
    assert bool(result[0]) == expected_alive
