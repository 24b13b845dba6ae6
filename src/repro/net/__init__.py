"""Packet-level IP network substrate: addresses, packets, links,
routers and topology construction."""

from repro.net.addressing import AddressAllocator, IPAddress, Prefix, ip
from repro.net.link import DROP_CAUSES, Link, connect, drop_totals
from repro.net.link import protocol_hop_totals
from repro.net.node import Node
from repro.net.packet import IP_HEADER_BYTES, Packet, decapsulate, encapsulate
from repro.net.router import ForwardingTable, Router
from repro.net.topology import Network, binary_tree_topology, star_topology

__all__ = [
    "AddressAllocator",
    "DROP_CAUSES",
    "ForwardingTable",
    "IPAddress",
    "IP_HEADER_BYTES",
    "Link",
    "Network",
    "Node",
    "Packet",
    "Prefix",
    "Router",
    "binary_tree_topology",
    "connect",
    "decapsulate",
    "drop_totals",
    "encapsulate",
    "ip",
    "protocol_hop_totals",
    "star_topology",
]
