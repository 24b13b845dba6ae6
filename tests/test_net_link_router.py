"""Tests for packets, links, routers and topology routing."""

import pytest

from repro.net import (
    Network,
    Node,
    Packet,
    Prefix,
    Router,
    binary_tree_topology,
    decapsulate,
    drop_totals,
    encapsulate,
    ip,
    protocol_hop_totals,
    star_topology,
)
from repro.net.router import ForwardingTable
from repro.sim import Simulator


def make_packet(src="10.0.0.1", dst="10.0.0.2", size=1000, **kw):
    return Packet(src=ip(src), dst=ip(dst), size=size, **kw)


# ----------------------------------------------------------------------
# Packet
# ----------------------------------------------------------------------
def test_packet_requires_positive_size():
    with pytest.raises(ValueError):
        make_packet(size=0)


def test_packet_rejects_nan_size():
    with pytest.raises(ValueError, match="packet size must be positive, got nan"):
        make_packet(size=float("nan"))


def test_packet_uids_unique():
    a, b = make_packet(), make_packet()
    assert a.uid != b.uid


def test_packet_copy_overrides():
    original = make_packet(seq=7)
    clone = original.copy(dst=ip("10.9.9.9"))
    assert clone.seq == 7
    assert clone.dst == ip("10.9.9.9")
    assert clone.uid != original.uid


def test_encapsulate_adds_header_and_decapsulate_restores():
    inner = make_packet(size=1000)
    outer = encapsulate(inner, ip("10.0.1.1"), ip("10.0.2.2"))
    assert outer.size == 1020
    assert outer.protocol == "ipip"
    assert decapsulate(outer) is inner


def test_decapsulate_rejects_plain_packet():
    with pytest.raises(ValueError):
        decapsulate(make_packet())


# ----------------------------------------------------------------------
# Link
# ----------------------------------------------------------------------
def test_link_delivery_time_includes_serialization_and_propagation():
    sim = Simulator()
    network = Network(sim)
    a = network.host("a")
    b = network.host("b")
    # 1 Mbps, 10 ms propagation: 1000 B => 8 ms serialization.
    network.connect(a, b, bandwidth=1e6, delay=0.010)
    arrivals = []
    b.on_default(lambda packet, link: arrivals.append(sim.now))

    a.send_via(b, make_packet(dst=str(b.address), size=1000))
    sim.run()
    assert arrivals == [pytest.approx(0.018)]


def test_link_serializes_back_to_back_packets():
    sim = Simulator()
    network = Network(sim)
    a = network.host("a")
    b = network.host("b")
    network.connect(a, b, bandwidth=1e6, delay=0.0)
    arrivals = []
    b.on_default(lambda packet, link: arrivals.append(sim.now))

    for _ in range(3):
        a.send_via(b, make_packet(dst=str(b.address), size=1000))
    sim.run()
    assert arrivals == [pytest.approx(0.008), pytest.approx(0.016), pytest.approx(0.024)]


def test_link_queue_overflow_drops():
    sim = Simulator()
    network = Network(sim)
    a = network.host("a")
    b = network.host("b")
    forward, _backward = network.connect(a, b, bandwidth=1e6, delay=0.0, queue_limit=2)

    accepted = [a.send_via(b, make_packet(dst=str(b.address))) for _ in range(5)]
    assert accepted == [True, True, False, False, False]
    assert drop_totals(sim) == {"queue-full": 3}
    sim.run()
    assert protocol_hop_totals(sim) == {"data": 2}


def test_link_down_drops_everything():
    sim = Simulator()
    network = Network(sim)
    a = network.host("a")
    b = network.host("b")
    forward, _ = network.connect(a, b)
    forward.up = False
    assert not a.send_via(b, make_packet(dst=str(b.address)))
    assert drop_totals(sim) == {"link-down": 1}


def test_full_and_downed_link_refuses_as_link_down():
    """A transmit refused on a downed link is ``link-down`` even when
    the queue is full too: the link, not the queue, turned it away."""
    sim = Simulator()
    network = Network(sim)
    a = network.host("a")
    b = network.host("b")
    forward, _ = network.connect(a, b, bandwidth=1e6, queue_limit=1)
    assert a.send_via(b, make_packet(dst=str(b.address)))
    assert not a.send_via(b, make_packet(dst=str(b.address)))
    forward.up = False
    assert not a.send_via(b, make_packet(dst=str(b.address)))
    assert drop_totals(sim) == {"queue-full": 1, "link-down": 1}


def test_link_validation():
    sim = Simulator()
    a = Node(sim, "a", "10.0.0.1")
    b = Node(sim, "b", "10.0.0.2")
    from repro.net.link import Link

    with pytest.raises(ValueError):
        Link(sim, a, b, bandwidth=0)
    with pytest.raises(ValueError):
        Link(sim, a, b, delay=-1)
    with pytest.raises(ValueError):
        Link(sim, a, b, queue_limit=0)
    with pytest.raises(ValueError):
        Link(sim, a, b, loss_rate=1.5)


@pytest.mark.parametrize("field", ["bandwidth", "delay", "queue_limit"])
def test_link_rejects_nan_bandwidth_and_delay(field):
    """``nan <= 0``, ``nan < 0`` and ``nan < 1`` are all false: the
    checks are written the other way round so a ``nan`` link (for
    ``queue_limit``, one whose queue is never full) cannot be built."""
    sim = Simulator()
    a = Node(sim, "a", "10.0.0.1")
    b = Node(sim, "b", "10.0.0.2")
    from repro.net.link import Link

    with pytest.raises(ValueError, match=f"{field} must be .*nan"):
        Link(sim, a, b, **{field: float("nan")})


def test_send_via_unconnected_neighbor_raises():
    sim = Simulator()
    a = Node(sim, "a", "10.0.0.1")
    b = Node(sim, "b", "10.0.0.2")
    with pytest.raises(ValueError):
        a.send_via(b, make_packet())


# ----------------------------------------------------------------------
# Forwarding table / router
# ----------------------------------------------------------------------
def test_lpm_prefers_longest_prefix():
    sim = Simulator()
    coarse = Node(sim, "coarse")
    fine = Node(sim, "fine")
    table = ForwardingTable()
    table.add(Prefix("10.0.0.0/8"), coarse)
    table.add(Prefix("10.1.0.0/16"), fine)
    assert table.lookup(ip("10.1.2.3")) is fine
    assert table.lookup(ip("10.2.2.3")) is coarse


def test_lpm_no_match_returns_none():
    table = ForwardingTable()
    assert table.lookup(ip("1.2.3.4")) is None


def test_lpm_host_route_wins_over_prefix():
    sim = Simulator()
    subnet_hop = Node(sim, "subnet")
    host_hop = Node(sim, "host")
    table = ForwardingTable()
    table.add(Prefix("10.0.0.0/24"), subnet_hop)
    table.add_host(ip("10.0.0.7"), host_hop)
    assert table.lookup(ip("10.0.0.7")) is host_hop
    assert table.lookup(ip("10.0.0.8")) is subnet_hop


def test_lpm_remove_route():
    sim = Simulator()
    hop = Node(sim, "hop")
    table = ForwardingTable()
    prefix = Prefix("10.0.0.0/24")
    table.add(prefix, hop)
    assert len(table) == 1
    table.remove(prefix)
    assert table.lookup(ip("10.0.0.1")) is None


def test_router_forwards_along_chain():
    sim = Simulator()
    network = Network(sim)
    src = network.host("src")
    r1 = network.router("r1")
    r2 = network.router("r2")
    dst = network.host("dst")
    network.connect(src, r1)
    network.connect(r1, r2)
    network.connect(r2, dst)
    network.install_routes()

    received = []
    dst.on_default(lambda packet, link: received.append(packet))
    src.send_via(r1, make_packet(src=str(src.address), dst=str(dst.address)))
    sim.run()
    assert len(received) == 1
    # src -> r1 -> r2 -> dst: one hop per link of the chain.
    assert protocol_hop_totals(sim) == {"data": 3}


def test_router_drops_on_ttl_expiry():
    sim = Simulator()
    network = Network(sim)
    src = network.host("src")
    r1 = network.router("r1")
    dst = network.host("dst")
    network.connect(src, r1)
    network.connect(r1, dst)
    network.install_routes()
    received = []
    dst.on_default(lambda packet, link: received.append(packet))

    src.send_via(r1, make_packet(src=str(src.address), dst=str(dst.address), ttl=1))
    sim.run()
    assert received == []
    assert drop_totals(sim) == {"ttl-expired": 1}


def test_router_counts_unroutable():
    sim = Simulator()
    router = Router(sim, "r", "10.0.0.1")
    router.receive(make_packet(dst="99.0.0.1"))
    assert drop_totals(sim) == {"no-route": 1}


# ----------------------------------------------------------------------
# Topology helpers
# ----------------------------------------------------------------------
def test_star_topology_connects_all_leaves():
    sim = Simulator()
    network = star_topology(sim)
    assert len(network.nodes) == 5
    center = network["gw"]
    assert len(center.links) == 4


def test_binary_tree_topology_structure():
    sim = Simulator()
    network = binary_tree_topology(sim, depth=3)
    assert len(network.nodes) == 7  # 1 + 2 + 4
    root = network["root"]
    assert len(root.links) == 2
    leaf = network["root.l.l"]
    assert len(leaf.links) == 1


def test_tree_routing_end_to_end():
    sim = Simulator()
    network = binary_tree_topology(sim, depth=3, delay=0.002)
    left = network["root.l.l"]
    right = network["root.r.r"]
    received = []
    right.on_default(lambda packet, link: received.append(sim.now))
    left.receive(make_packet(src=str(left.address), dst=str(right.address)))
    sim.run()
    assert len(received) == 1
    # Four hops of 2 ms each plus serialization.
    assert received[0] >= 0.008


def test_path_delay_computation():
    sim = Simulator()
    network = binary_tree_topology(sim, depth=3, delay=0.002)
    assert network.path_delay("root.l.l", "root.r.r") == pytest.approx(0.008)
    assert network.path_delay("root", "root.l") == pytest.approx(0.002)


def test_duplicate_node_name_rejected():
    sim = Simulator()
    network = Network(sim)
    network.host("a")
    with pytest.raises(ValueError):
        network.host("a")
