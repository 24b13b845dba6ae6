"""Route computation: :func:`repro.net.topology.shortest_paths` and the
three callers that install routes from it.  Equal-cost tie-breaking is
pinned because committed goldens depend on which next hop wins."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobileip import HomeAgent, install_home_prefix_routes
from repro.net import Network, ip
from repro.net.topology import shortest_paths
from repro.sim import Simulator


def graph_of(nodes, edges):
    """``{node: {neighbour: delay}}`` the way ``Network.graph`` builds it."""
    graph = {node: {} for node in nodes}
    for head, tail, delay in edges:
        graph[head][tail] = delay
    return graph


def test_equal_cost_diamond_takes_the_branch_linked_first():
    edges = [("s", "a", 1), ("s", "b", 1), ("a", "t", 1), ("b", "t", 1)]
    dist, paths = shortest_paths(graph_of("sabt", edges), "s")
    assert dist == {"s": 0, "a": 1, "b": 1, "t": 2}
    assert list(paths) == ["s", "a", "b", "t"]  # nearest first, ties in push order
    assert paths["t"] == ["s", "a", "t"]
    # Linking b first flips the winner: order, not name, decides.
    flipped = [("s", "b", 1), ("s", "a", 1), ("b", "t", 1), ("a", "t", 1)]
    assert shortest_paths(graph_of("sabt", flipped), "s")[1]["t"] == ["s", "b", "t"]


def test_equal_cost_path_found_later_does_not_replace_the_first():
    # t is first reached through the long arm (s-a-t, 1 + 2); the
    # equal-cost s-b-c-t shows up later and must not take over.
    edges = [("s", "a", 1), ("a", "t", 2), ("s", "b", 1), ("b", "c", 1), ("c", "t", 1)]
    _, paths = shortest_paths(graph_of("sabct", edges), "s")
    assert paths["t"] == ["s", "a", "t"]


def test_parallel_links_keep_first_position_and_take_the_last_delay():
    sim = Simulator()
    network = Network(sim)
    for name in ("s", "a", "b", "t"):
        network.router(name)
    network.connect("s", "a", delay=0.001)
    network.connect("s", "b", delay=0.001)
    network.connect("a", "t", delay=0.005)
    network.connect("b", "t", delay=0.005)
    network.connect("a", "t", delay=0.001)  # a second, faster a-t link
    s, a, b, t = (network[name] for name in "sabt")
    graph = network.graph()
    assert list(graph[a]) == [s, t] and graph[a][t] == 0.001
    assert network.path_delay("s", "t") == pytest.approx(0.002)
    network.install_routes()
    assert s.table.lookup(t.address) is a
    # Equal again at the slower delay: position, not recency, breaks the tie.
    network.connect("b", "t", delay=0.001)
    assert shortest_paths(network.graph(), s)[1][t] == [s, a, t]


def test_unreachable_node_is_absent_and_path_delay_names_both_ends():
    dist, paths = shortest_paths(graph_of("sai", [("s", "a", 1), ("i", "s", 1)]), "s")
    assert "i" not in dist and "i" not in paths
    assert paths == {"s": ["s"], "a": ["s", "a"]}

    network = Network(Simulator())
    network.router("core")
    network.router("edge")
    network.router("island")
    network.connect("core", "edge")
    assert network.path_delay("core", "core") == 0
    with pytest.raises(ValueError, match="no path from 'core' to 'island'"):
        network.path_delay("core", "island")
    network.install_routes()
    assert network["core"].table.lookup(network["island"].address) is None


def test_home_prefix_routes_skip_routers_with_no_path_to_the_home_agent():
    sim = Simulator()
    network = Network(sim)
    home_agent = network.add(HomeAgent(sim, "ha", "10.1.0.1", "10.1.0.0/16"))
    network.router("near")
    network.router("island")
    network.connect("near", "ha")
    network.install_routes()
    install_home_prefix_routes(network, home_agent)
    assert network["near"].table.lookup(ip("10.1.0.77")) is home_agent
    assert network["island"].table.lookup(ip("10.1.0.77")) is None


@st.composite
def weighted_digraphs(draw):
    size = draw(st.integers(min_value=1, max_value=7))
    node = st.integers(min_value=0, max_value=size - 1)
    # Coarse weights (zero included) make equal-cost ties the common
    # case; repeated (head, tail) pairs exercise the parallel-link rule.
    delay = st.sampled_from([0, 0.5, 1, 1, 2])
    edges = draw(st.lists(st.tuples(node, node, delay), max_size=24))
    return size, edges


@settings(max_examples=300, deadline=None)
@given(weighted_digraphs())
def test_shortest_paths_match_networkx_ties_included(drawn):
    nx = pytest.importorskip("networkx")
    size, edges = drawn
    graph = graph_of(range(size), edges)
    reference = nx.DiGraph()
    reference.add_nodes_from(range(size))
    for head, tail, delay in edges:
        reference.add_edge(head, tail, weight=delay)
    for source in range(size):
        dist, paths = shortest_paths(graph, source)
        wanted_dist, wanted_paths = nx.single_source_dijkstra(reference, source)
        # Order included: routes are installed in ``paths`` order.
        assert list(paths.items()) == list(wanted_paths.items())
        assert list(dist.items()) == list(wanted_dist.items())
