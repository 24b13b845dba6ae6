"""IP routers with longest-prefix-match forwarding."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.net.addressing import IPAddress, Prefix
from repro.net.link import book_drop
from repro.net.node import Node

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.net.packet import Packet
    from repro.sim.kernel import Simulator


class ForwardingTable:
    """Longest-prefix-match table mapping prefixes to next-hop nodes.

    Entries are bucketed by prefix length so lookup probes at most 33
    dictionaries, longest first — simple and fast enough for simulated
    topologies while behaving exactly like real LPM.  The probe order
    is rebuilt when a length bucket appears or empties, not per lookup.

    A destination is probed once per table state: its answer (``None``
    when no prefix matches) is remembered until the next ``add`` (also
    through ``add_host``) or ``remove`` (the only mutators), which
    forget every answer.
    """

    def __init__(self) -> None:
        # _buckets[mask] maps masked-network-int -> next hop; one
        # bucket per prefix length in use, never an empty one.
        self._buckets: dict[int, dict[int, Node]] = {}
        #: (mask, bucket) pairs, longest prefix first.
        self._probes: list[tuple[int, dict[int, Node]]] = []
        #: destination -> the answer ``lookup`` gave it (None included).
        self._resolved: dict[int, Optional[Node]] = {}

    def _rebuild_probes(self) -> None:
        self._probes = [
            (mask, self._buckets[mask]) for mask in sorted(self._buckets, reverse=True)
        ]

    def add(self, prefix: Prefix, next_hop: Node) -> None:
        self._resolved.clear()
        bucket = self._buckets.get(prefix.mask)
        if bucket is None:
            bucket = self._buckets[prefix.mask] = {}
            self._rebuild_probes()
        bucket[int(prefix.network)] = next_hop

    def add_host(self, address, next_hop: Node) -> None:
        """Install a /32 host route."""
        self.add(Prefix(IPAddress(address), 32), next_hop)

    def remove(self, prefix: Prefix) -> None:
        self._resolved.clear()
        bucket = self._buckets.get(prefix.mask)
        if bucket is None:
            return
        bucket.pop(int(prefix.network), None)
        if not bucket:
            del self._buckets[prefix.mask]
            self._rebuild_probes()

    def lookup(self, address: IPAddress) -> Optional[Node]:
        try:
            return self._resolved[address]
        except KeyError:
            pass
        next_hop = None
        for mask, bucket in self._probes:
            next_hop = bucket.get(address & mask)
            if next_hop is not None:
                break
        self._resolved[address] = next_hop
        return next_hop

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class Router(Node):
    """A node that forwards packets it does not own via LPM."""

    def __init__(self, sim: "Simulator", name: str, address=None) -> None:
        super().__init__(sim, name, address)
        self.table = ForwardingTable()

    def add_route(self, prefix, next_hop: Node) -> None:
        if not isinstance(prefix, Prefix):
            prefix = Prefix(prefix)
        self.table.add(prefix, next_hop)

    def add_host_route(self, address, next_hop: Node) -> None:
        self.table.add_host(address, next_hop)

    def forward(self, packet: "Packet", link: Optional["Link"]) -> None:
        if packet.ttl <= 1:
            book_drop(self.sim, "ttl-expired")
            return
        next_hop = self.table.lookup(packet.dst)
        if next_hop is None:
            book_drop(self.sim, "no-route")
            return
        packet.ttl -= 1
        self.links[next_hop].transmit(packet)
