"""Property-based tests for the network substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    IPAddress,
    Network,
    Packet,
    Prefix,
    drop_totals,
    protocol_hop_totals,
)
from repro.net.router import ForwardingTable
from repro.net.node import Node
from repro.sim import Simulator

addresses = st.integers(min_value=0, max_value=(1 << 32) - 1)
prefix_lengths = st.integers(min_value=0, max_value=32)


@given(addresses)
def test_address_string_roundtrip(value):
    address = IPAddress(value)
    assert int(IPAddress(str(address))) == value


@given(addresses, prefix_lengths)
def test_prefix_always_contains_its_network(value, length):
    prefix = Prefix(IPAddress(value), length)
    assert prefix.network in prefix


@given(addresses, prefix_lengths, addresses)
def test_prefix_membership_matches_mask_arithmetic(network, length, probe):
    prefix = Prefix(IPAddress(network), length)
    mask = ((1 << 32) - 1) << (32 - length) if length else 0
    mask &= (1 << 32) - 1
    expected = (probe & mask) == (network & mask)
    assert (IPAddress(probe) in prefix) == expected


def _longest_match(reference, probe):
    """Naive LPM: the longest prefix in ``reference`` containing
    ``probe``, else None; ties are impossible since (network, length)
    is unique."""
    best = None
    best_length = -1
    for (network, length), hop in reference.items():
        mask = ((1 << 32) - 1) << (32 - length) if length else 0
        mask &= (1 << 32) - 1
        if (probe & mask) == network and length > best_length:
            best, best_length = hop, length
    return best


@settings(max_examples=50, deadline=None)
@given(
    entries=st.lists(
        st.tuples(addresses, prefix_lengths, st.integers(0, 9)),
        min_size=1,
        max_size=25,
    ),
    removals=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=12),
    probes=st.lists(addresses, min_size=1, max_size=4),
)
def test_lpm_matches_bruteforce_reference(entries, removals, probes):
    """The bucketed LPM must agree with a naive longest-match scan at
    every moment: lookups run after every add and remove, so an answer
    the table remembered across a change fails."""
    sim = Simulator()
    hops = [Node(sim, f"hop{i}") for i in range(10)]
    table = ForwardingTable()
    reference: dict[tuple[int, int], Node] = {}
    # (after, victim): once entry ``after`` is in, remove entry ``victim``
    # whether or not it was added yet (removing an absent prefix is a no-op).
    removes_after: dict[int, list[int]] = {}
    for after, victim in removals:
        removes_after.setdefault(after % len(entries), []).append(victim % len(entries))
    # A random address rarely falls inside a long prefix: probe every
    # entry's own address as well.
    targets = [IPAddress(value) for value in probes]
    targets += [IPAddress(network) for network, _length, _hop in entries]

    def lookups_agree() -> None:
        for target in targets:
            assert table.lookup(target) is _longest_match(reference, target)

    lookups_agree()
    for index, (network, length, hop_index) in enumerate(entries):
        prefix = Prefix(IPAddress(network), length)
        table.add(prefix, hops[hop_index])
        reference[(int(prefix.network), length)] = hops[hop_index]
        lookups_agree()
        for victim in removes_after.get(index, ()):
            gone = Prefix(IPAddress(entries[victim][0]), entries[victim][1])
            table.remove(gone)
            reference.pop((int(gone.network), gone.length), None)
            lookups_agree()
    assert len(table) == len(reference)
    # One probe per prefix length still in use: remove leaves no empty bucket.
    assert len(table._probes) == len({length for _network, length in reference})


@settings(max_examples=30, deadline=None)
@given(
    packet_count=st.integers(1, 30),
    queue_limit=st.integers(1, 10),
    size=st.integers(64, 1500),
    loss_rate=st.sampled_from([0.0, 0.1, 0.5]),
    down_at=st.none() | st.floats(0.0, 0.2),
)
def test_link_conserves_packets(packet_count, queue_limit, size, loss_rate, down_at):
    """Every packet offered to a link is either delivered or booked
    under one link drop cause — none vanish, even when the link is
    lossy or goes down mid-run (packets are offered 5 ms apart, so some
    meet a downed link and some are in flight when it goes)."""
    sim = Simulator()
    network = Network(sim)
    a = network.host("a")
    b = network.host("b")
    forward, _ = network.connect(
        a, b, bandwidth=1e6, queue_limit=queue_limit, loss_rate=loss_rate
    )
    received = []
    b.on_default(lambda packet, link: received.append(packet))
    for index in range(packet_count):
        packet = Packet(src=a.address, dst=b.address, size=size)
        sim.call_later(index * 0.005, a.send_via, b, packet)
    if down_at is not None:
        sim.call_later(down_at, setattr, forward, "up", False)
    sim.run()
    drops = drop_totals(sim)
    assert set(drops) <= {"queue-full", "link-down", "in-flight-down", "link-loss"}
    assert protocol_hop_totals(sim).get("data", 0) == len(received)
    assert packet_count == len(received) + sum(drops.values())


@settings(max_examples=20, deadline=None)
@given(
    depth=st.integers(2, 4),
    packet_count=st.integers(1, 10),
)
def test_tree_routing_delivers_everything_under_capacity(depth, packet_count):
    """In an uncongested tree, every routed packet arrives exactly once."""
    from repro.net import binary_tree_topology

    sim = Simulator()
    network = binary_tree_topology(sim, depth=depth)
    leaves = [
        node for node in network.nodes.values() if len(node.links) == 1
    ] or list(network.nodes.values())
    src, dst = leaves[0], leaves[-1]
    if src is dst:
        return
    received = []
    dst.on_default(lambda packet, link: received.append(packet.uid))
    for _ in range(packet_count):
        src.receive(Packet(src=src.address, dst=dst.address, size=500))
    sim.run()
    assert len(received) == packet_count
    assert len(set(received)) == packet_count
