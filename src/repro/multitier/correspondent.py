"""Correspondent node with an RSMC binding cache (§4 route
optimization).

"Then RSMC will update the location information of MN after got this
packet, and send a message to notify HA and CN.  Thus, packets sent by
CN will reach MN correctly via RSMC."  The CN keeps a per-mobile
binding and tunnels subsequent packets straight to the RSMC, skipping
the home-agent triangle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.multitier import messages
from repro.net.addressing import IPAddress
from repro.net.node import Node
from repro.net.packet import Packet, encapsulate

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.sim.kernel import Simulator


class CorrespondentNode(Node):
    """A wired host that streams to mobiles, honouring RSMC notifies."""

    def __init__(self, sim: "Simulator", name: str, address) -> None:
        super().__init__(sim, name, address)
        self.bindings: dict[IPAddress, IPAddress] = {}
        self._binding_sequence: dict[IPAddress, int] = {}
        self.gateway_router: Optional[Node] = None
        self.notifications_received = 0
        self.sent_via_binding = 0
        self.sent_via_home = 0
        self.data_received = 0
        self.on_protocol(messages.BINDING_NOTIFY, self._handle_notify)
        self.on_protocol("data", self._handle_data)

    # ------------------------------------------------------------------
    def _handle_notify(self, packet: Packet, link: Optional["Link"]) -> None:
        notify = packet.payload
        if not isinstance(notify, messages.RSMCBindingNotify):
            return
        last = self._binding_sequence.get(notify.mobile_address, -1)
        if notify.sequence <= last:
            return  # stale notify raced a newer one
        self._binding_sequence[notify.mobile_address] = notify.sequence
        self.bindings[notify.mobile_address] = notify.rsmc_address
        self.notifications_received += 1

    def _handle_data(self, packet: Packet, link: Optional["Link"]) -> None:
        self.data_received += 1

    # ------------------------------------------------------------------
    def send_to_mobile(self, mobile, size: int = 1000, **packet_fields) -> bool:
        """Send one data packet to ``mobile``.

        With a binding: tunnel to the RSMC (route-optimized).  Without:
        plain addressing, which the Internet routes to the home agent.
        """
        return self.send(
            Packet(
                src=self.address,
                dst=mobile,
                size=size,
                protocol="data",
                created_at=packet_fields.pop("created_at", self.sim.now),
                **packet_fields,
            )
        )

    def send(self, packet: Packet) -> bool:
        """Send an already-addressed data packet (``dst`` a mobile's
        home address), the way :meth:`send_to_mobile` sends the one it
        builds.  A traffic source's ``send`` callable: the packet the
        source made is the packet on the wire (or the tunnel's payload).
        """
        binding = self.bindings.get(packet.dst)
        if binding is not None:
            self.sent_via_binding += 1
            packet = encapsulate(packet, self.address, binding)
        else:
            self.sent_via_home += 1
        return self.originate(packet)

    def originate(self, packet: Packet) -> bool:
        target = self.gateway_router
        if target is None and self.links:
            target = next(iter(self.links))
        if target is None:
            return False
        return self.links[target].transmit(packet)
