"""Mobile IP substrate: home agents, foreign agents, mobile nodes and
the registration/tunnelling machinery (macro-tier mobility)."""

from repro.mobileip import messages
from repro.mobileip.foreign_agent import ForeignAgent, Visitor
from repro.mobileip.home_agent import Binding, HomeAgent
from repro.mobileip.mobile_node import MobileIPNode

__all__ = [
    "Binding",
    "ForeignAgent",
    "HomeAgent",
    "MobileIPNode",
    "Visitor",
    "messages",
]


def install_home_prefix_routes(network, home_agent) -> None:
    """Point every router's route for the HA's home prefix at the HA.

    Call after ``network.install_routes()``: static host routes cannot
    cover mobile home addresses, so the home prefix must be attracted
    to the home agent, which then tunnels per its binding cache.
    """
    from repro.net.router import Router
    from repro.net.topology import shortest_paths

    graph = network.graph()
    for node in network.nodes.values():
        if not isinstance(node, Router) or node is home_agent:
            continue
        path = shortest_paths(graph, node)[1].get(home_agent)
        if path is not None:
            node.add_route(home_agent.home_prefix, path[1])
