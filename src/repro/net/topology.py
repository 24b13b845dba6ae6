"""Topology builder: assemble nodes and links, then install static
shortest-path routes (Dijkstra over propagation delay).
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Union

from repro.net.addressing import AddressAllocator
from repro.net.link import Link, connect
from repro.net.node import Node
from repro.net.router import Router
from repro.sim.kernel import Simulator


def shortest_paths(graph: dict, source) -> tuple[dict, dict]:
    """Dijkstra from ``source`` over ``{node: {neighbour: delay}}``.

    Returns ``(dist, paths)`` over the reachable nodes, nearest first.
    Equal-cost ties resolve deterministically and routes depend on it:
    the heap breaks distance ties by push order, neighbours relax in
    insertion order, and only a strictly shorter path replaces a
    predecessor.
    """
    dist: dict = {}
    seen = {source: 0}
    paths = {source: [source]}
    pred: dict = {}
    pushed = count()
    fringe = [(0, next(pushed), source)]
    while fringe:
        reached, _, node = heappop(fringe)
        if node in dist:
            continue
        dist[node] = reached
        if node is not source:
            paths[node] = paths[pred[node]] + [node]
        for neighbour, delay in graph[node].items():
            candidate = reached + delay
            if neighbour in dist:
                continue
            if neighbour not in seen or candidate < seen[neighbour]:
                seen[neighbour] = candidate
                pred[neighbour] = node
                heappush(fringe, (candidate, next(pushed), neighbour))
    return dist, paths


class Network:
    """A container for one simulated internetwork."""

    def __init__(self, sim: Simulator, prefix: str = "10.0.0.0/8") -> None:
        self.sim = sim
        self.nodes: dict[str, Node] = {}
        self.links: list[Link] = []
        self.allocator = AddressAllocator(prefix)

    # ------------------------------------------------------------------
    def add(self, node: Node) -> Node:
        """Register an externally built node."""
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        return node

    def host(self, name: str) -> Node:
        """Create and register a plain host at the next free address."""
        return self.add(Node(self.sim, name, self.allocator.allocate()))

    def router(self, name: str) -> Router:
        """Create and register a router at the next free address."""
        return self.add(Router(self.sim, name, self.allocator.allocate()))

    def __getitem__(self, name: str) -> Node:
        return self.nodes[name]

    def __contains__(self, name: str) -> bool:
        return name in self.nodes

    # ------------------------------------------------------------------
    def connect(
        self,
        a: Union[str, Node],
        b: Union[str, Node],
        bandwidth: float = 100e6,
        delay: float = 0.001,
        queue_limit: int = 100,
        loss_rate: float = 0.0,
    ) -> tuple[Link, Link]:
        """Create a bidirectional link pair between two nodes."""
        node_a = self.nodes[a] if isinstance(a, str) else a
        node_b = self.nodes[b] if isinstance(b, str) else b
        forward, backward = connect(
            self.sim, node_a, node_b, bandwidth, delay, queue_limit, loss_rate
        )
        self.links.extend((forward, backward))
        return forward, backward

    # ------------------------------------------------------------------
    def graph(self) -> dict[Node, dict[Node, float]]:
        """The topology as ``{node: {neighbour: link delay}}``; a
        repeated ``(head, tail)`` link keeps its first position and
        takes the last delay."""
        graph = {node: {} for node in self.nodes.values()}
        for link in self.links:
            graph.setdefault(link.head, {})[link.tail] = link.delay
            graph.setdefault(link.tail, {})
        return graph

    def install_routes(self) -> None:
        """Install host routes for every addressed node at every router.

        Runs Dijkstra over propagation delay from every router.  Later
        route changes (Mobile IP bindings, Cellular IP caches, the paper's
        location tables) override these static routes through their own
        mechanisms.
        """
        graph = self.graph()
        for router in self.nodes.values():
            if not isinstance(router, Router):
                continue
            _, paths = shortest_paths(graph, router)
            for target, path in paths.items():
                if target is router:
                    continue
                for address in target.addresses:
                    router.table.add_host(address, path[1])

    def path_delay(self, a: Union[str, Node], b: Union[str, Node]) -> float:
        """Total one-way propagation delay along the shortest path."""
        node_a = self.nodes[a] if isinstance(a, str) else a
        node_b = self.nodes[b] if isinstance(b, str) else b
        dist, _ = shortest_paths(self.graph(), node_a)
        if node_b not in dist:
            raise ValueError(f"no path from {node_a.name!r} to {node_b.name!r}")
        return dist[node_b]


def star_topology(sim: Simulator) -> Network:
    """A gateway router ``gw`` with four leaf routers — the shape of a
    Cellular IP access network's first level."""
    network = Network(sim)
    network.router("gw")
    for index in range(4):
        name = f"gw-leaf{index}"
        network.router(name)
        network.connect("gw", name)
    network.install_routes()
    return network


def binary_tree_topology(sim: Simulator, depth: int, delay: float = 0.001) -> Network:
    """A complete binary tree of routers named ``root``, ``root.l``,
    ``root.r``, ... — the canonical Cellular IP evaluation topology
    (gateway at the root, base stations at leaves)."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    network = Network(sim)
    network.router("root")
    frontier = ["root"]
    for level in range(1, depth):
        next_frontier = []
        for parent in frontier:
            for side in ("l", "r"):
                child = f"{parent}.{side}"
                network.router(child)
                network.connect(parent, child, delay=delay)
                next_frontier.append(child)
        frontier = next_frontier
    network.install_routes()
    return network
