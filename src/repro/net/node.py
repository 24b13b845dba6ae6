"""Network nodes: the base class every host, router, base station and
agent builds on.

A node owns zero or more IP addresses, outgoing links keyed by
neighbor, and a table of protocol handlers.  Packets addressed to the
node are dispatched to the handler registered for their ``protocol``
tag; everything else is passed to :meth:`forward` (no-op for plain
hosts, longest-prefix-match forwarding for routers).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.net.addressing import IPAddress

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.net.packet import Packet
    from repro.sim.kernel import Simulator

PacketHandler = Callable[["Packet", Optional["Link"]], None]


class Node:
    """A network endpoint."""

    def __init__(self, sim: "Simulator", name: str, address=None) -> None:
        self.sim = sim
        self.name = name
        self.addresses: list[IPAddress] = []
        if address is not None:
            self.addresses.append(IPAddress(address))
        #: Outgoing links keyed by neighbor node.
        self.links: dict["Node", "Link"] = {}
        self._handlers: dict[str, PacketHandler] = {}
        self._default_handler: Optional[PacketHandler] = None

    # ------------------------------------------------------------------
    @property
    def address(self) -> IPAddress:
        """The node's primary address."""
        if not self.addresses:
            raise AttributeError(f"{self.name} has no address")
        return self.addresses[0]

    def owns(self, address) -> bool:
        return IPAddress(address) in self.addresses

    # ------------------------------------------------------------------
    def attach_link(self, link: "Link") -> None:
        """Register an outgoing link (called by ``connect``)."""
        self.links[link.tail] = link

    def detach_link(self, neighbor: "Node") -> None:
        self.links.pop(neighbor, None)

    def neighbors(self) -> list["Node"]:
        return list(self.links)

    def link_to(self, neighbor: "Node") -> Optional["Link"]:
        return self.links.get(neighbor)

    # ------------------------------------------------------------------
    def on_protocol(self, protocol: str, handler: PacketHandler) -> None:
        """Register ``handler`` for locally delivered ``protocol`` packets."""
        self._handlers[protocol] = handler

    def on_default(self, handler: PacketHandler) -> None:
        """Handler for local packets with no protocol-specific handler."""
        self._default_handler = handler

    # ------------------------------------------------------------------
    def send_via(self, neighbor: "Node", packet: "Packet") -> bool:
        """Transmit ``packet`` on the link towards ``neighbor``."""
        link = self.links.get(neighbor)
        if link is None:
            raise ValueError(f"{self.name} has no link to {neighbor.name}")
        return link.transmit(packet)

    def receive(self, packet: "Packet", link: Optional["Link"] = None) -> None:
        """Entry point for packets arriving at this node."""
        if packet.dst in self.addresses:
            self.deliver_local(packet, link)
        else:
            self.forward(packet, link)

    def deliver_local(self, packet: "Packet", link: Optional["Link"]) -> None:
        handler = self._handlers.get(packet.protocol, self._default_handler)
        if handler is not None:
            handler(packet, link)

    def forward(self, packet: "Packet", link: Optional["Link"]) -> None:
        """Hosts do not forward; routers override this."""

    def __repr__(self) -> str:
        addresses = ",".join(str(a) for a in self.addresses) or "-"
        return f"<{type(self).__name__} {self.name} [{addresses}]>"
