"""``RoutingCache`` against its specification.

``lookup`` answers the one-entry case — nearly every call of a run —
before it builds any list, and ``refresh`` no longer builds a list to
throw away.  The specification is what they replaced, kept here
verbatim as :class:`ReferenceCache`: on any interleaving of refreshes
(regular, semisoft, hardening), lookups, removals and clock advances —
including advances that land exactly on an entry's ``expires`` — both
must return the same hops in the same order and keep the same counters.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cellularip import RoutingCache
from repro.cellularip.routing_cache import CacheEntry
from repro.net import Node, ip
from repro.sim import Simulator


# ----------------------------------------------------------------------
# The specification: refresh and lookup as they were, verbatim
# ----------------------------------------------------------------------
class ReferenceCache(RoutingCache):
    def refresh(self, mobile, next_hop, semisoft=False):
        self.refreshes += 1
        self._freshness += 1
        expires = self.sim.now + self.timeout
        entries = self._entries.setdefault(mobile, [])
        for entry in entries:
            if entry.next_hop is next_hop:
                entry.expires = expires
                entry.freshness = self._freshness
                entry.semisoft = semisoft
                return
        entries.append(
            CacheEntry(
                next_hop, expires, semisoft=semisoft, freshness=self._freshness
            )
        )

    def lookup(self, mobile):
        entries = self._entries.get(mobile)
        if not entries:
            return []
        now = self.sim.now
        live = [entry for entry in entries if entry.expires > now]
        expired = len(entries) - len(live)
        if expired:
            self.expirations += expired
        if live:
            self._entries[mobile] = live
        else:
            del self._entries[mobile]
            return []

        regular = [entry for entry in live if not entry.semisoft]
        semisoft = [entry for entry in live if entry.semisoft]
        hops = []
        if regular:
            freshest = max(regular, key=lambda entry: entry.freshness)
            hops.append(freshest.next_hop)
        for entry in semisoft:
            if entry.next_hop not in hops:
                hops.append(entry.next_hop)
        return hops


# ----------------------------------------------------------------------
# Generated interleavings
# ----------------------------------------------------------------------
TIMEOUT = 1.0
MOBILES = [ip("10.200.0.1"), ip("10.200.0.2")]
HOPS = [Node(Simulator(), name) for name in "abc"]

_mobile = st.sampled_from(MOBILES)
_operation = st.one_of(
    st.tuples(st.just("refresh"), _mobile, st.sampled_from(HOPS), st.booleans()),
    st.tuples(st.just("lookup"), _mobile),
    st.tuples(st.just("contains"), _mobile),
    st.tuples(st.just("remove"), _mobile),
    # Binary fractions of the timeout: sums are exact, so a refresh at t
    # is looked up at exactly t + TIMEOUT again and again.
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.25, 0.5, 1.0])),
)


def apply(cache, clock, operation):
    kind, *args = operation
    if kind == "refresh":
        mobile, hop, semisoft = args
        return cache.refresh(mobile, hop, semisoft=semisoft)
    if kind == "lookup":
        return cache.lookup(*args)
    if kind == "contains":
        return args[0] in cache
    if kind == "remove":
        return cache.remove(*args)
    clock.now += args[0]
    return None


def state(cache):
    return (
        cache.refreshes,
        cache.expirations,
        len(cache),
        {
            mobile: [
                (entry.next_hop, entry.expires, entry.semisoft, entry.freshness)
                for entry in entries
            ]
            for mobile, entries in cache._entries.items()
        },
    )


@settings(max_examples=500, deadline=None)
@given(st.lists(_operation, max_size=40))
def test_any_interleaving_agrees_with_the_reference(operations):
    clocks = SimpleNamespace(now=0.0), SimpleNamespace(now=0.0)
    cache = RoutingCache(clocks[0], TIMEOUT)
    reference = ReferenceCache(clocks[1], TIMEOUT)
    for operation in operations:
        answer = apply(cache, clocks[0], operation)
        assert answer == apply(reference, clocks[1], operation), operation
        assert state(cache) == state(reference), operation


def test_one_entry_expires_exactly_at_its_deadline_and_is_counted_once():
    clock = SimpleNamespace(now=0.0)
    cache = RoutingCache(clock, TIMEOUT)
    cache.refresh(MOBILES[0], HOPS[0], semisoft=True)
    clock.now = 0.75
    assert cache.lookup(MOBILES[0]) == [HOPS[0]]  # a lone semisoft entry too
    clock.now = TIMEOUT  # expires > now is false at the deadline itself
    assert cache.lookup(MOBILES[0]) == []
    assert (cache.expirations, len(cache)) == (1, 0)
    assert cache.lookup(MOBILES[0]) == []
    assert cache.expirations == 1


def test_a_lookup_hands_out_a_list_of_its_own():
    clock = SimpleNamespace(now=0.0)
    cache = RoutingCache(clock, TIMEOUT)
    cache.refresh(MOBILES[0], HOPS[0])
    cache.lookup(MOBILES[0]).append(HOPS[1])
    assert cache.lookup(MOBILES[0]) == [HOPS[0]]
