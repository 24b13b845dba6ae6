"""The Mobile IP Foreign Agent.

A router on a visited link that advertises a care-of address, relays
registrations to home agents, de-tunnels packets arriving for its
visitors and delivers them over the local (wireless) hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.mobileip import messages
from repro.net.addressing import IPAddress
from repro.net.link import book_drop
from repro.net.node import Node
from repro.net.packet import Packet, decapsulate
from repro.net.router import Router
from repro.radio.channel import radio_attach, radio_detach

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.radio.channel import SharedChannel
    from repro.sim.kernel import Simulator

#: Seconds between a foreign agent's advertisements.
ADVERTISEMENT_INTERVAL = 1.0


@dataclass
class Visitor:
    """A mobile currently registered through this FA."""

    home_address: IPAddress
    node: Node
    registered_at: float


class ForeignAgent(Router):
    """Router + visitor list + tunnel exit point + advertisement source."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        address,
        wireless_bandwidth: float = 11e6,
        wireless_delay: float = 0.002,
        shared_channel: Optional["SharedChannel"] = None,
    ) -> None:
        super().__init__(sim, name, address)
        self.wireless_bandwidth = wireless_bandwidth
        self.wireless_delay = wireless_delay
        #: Shared air interface of this FA's cell; ``None`` = legacy
        #: mode (unconstrained per-mobile radio links).  When set, both
        #: downlink deliveries and the mobiles' uplink traffic
        #: (registration requests, elastic acks, data) contend on it —
        #: apples-to-apples with the Cellular IP and multi-tier stacks.
        self.shared_channel = shared_channel
        #: Mobiles radio-attached to this FA's link (pre-registration).
        self.attached: dict[IPAddress, Node] = {}
        #: Mobiles whose registration through this FA was accepted.
        self.visitors: dict[IPAddress, Visitor] = {}
        self._advertisement_sequence = 0
        self.on_protocol("ipip", self._handle_tunneled)
        self.on_protocol(messages.REGISTRATION_REQUEST, self._relay_request)
        self.on_protocol(messages.REGISTRATION_REPLY, self._relay_reply)
        sim.process(self._advertise_loop(), name=f"{name}-adv")

    # ------------------------------------------------------------------
    # Radio attachment management (called by the mobility controller)
    # ------------------------------------------------------------------
    def attach_mobile(self, mobile: Node) -> None:
        """Wire the mobile to this FA's link and advertise immediately.

        With a shared channel configured the link pair is gated on it
        (downlink and uplink budgets both) and the mobile's airtime
        claim is attached here.
        """
        address = mobile.address
        if address in self.attached:
            return
        radio_attach(self, mobile, self.wireless_bandwidth, self.wireless_delay)
        self.attached[address] = mobile
        self._send_advertisement(mobile)

    def detach_mobile(self, mobile: Node) -> None:
        """Tear the radio link down (the mobile left coverage).

        Cancels any airtime the departed mobile still had queued on
        this cell's shared channel (air-interface losses); a no-op in
        legacy mode.
        """
        self.attached.pop(mobile.address, None)
        self.visitors.pop(mobile.address, None)
        radio_detach(self, mobile)

    # ------------------------------------------------------------------
    # Agent advertisement
    # ------------------------------------------------------------------
    def _advertise_loop(self):
        while True:
            yield ADVERTISEMENT_INTERVAL
            for mobile in list(self.attached.values()):
                self._send_advertisement(mobile)

    def _send_advertisement(self, mobile: Node) -> None:
        self._advertisement_sequence += 1
        advertisement = messages.AgentAdvertisement(
            agent_address=self.address,
            care_of_address=self.address,
            sequence=self._advertisement_sequence,
            lifetime=ADVERTISEMENT_INTERVAL * 3,
            is_home_agent=False,
            is_foreign_agent=True,
        )
        self.send_via(
            mobile,
            Packet(
                src=self.address,
                dst=mobile.address,
                size=messages.ADVERTISEMENT_BYTES,
                protocol=messages.AGENT_ADVERTISEMENT,
                payload=advertisement,
                created_at=self.sim.now,
            ),
        )

    # ------------------------------------------------------------------
    # Registration relay
    # ------------------------------------------------------------------
    def _relay_request(self, packet: Packet, link: Optional["Link"]) -> None:
        request = packet.payload
        if not isinstance(request, messages.RegistrationRequest):
            return
        if request.home_address not in self.attached:
            return  # not radio-attached here; ignore
        relayed = Packet(
            src=self.address,
            dst=request.home_agent,
            size=messages.REGISTRATION_REQUEST_BYTES,
            protocol=messages.REGISTRATION_REQUEST,
            payload=request,
            created_at=packet.created_at,
        )
        self.originate(relayed)

    def _relay_reply(self, packet: Packet, link: Optional["Link"]) -> None:
        reply = packet.payload
        if not isinstance(reply, messages.RegistrationReply):
            return
        mobile = self.attached.get(reply.home_address)
        if mobile is None:
            return
        if reply.accepted:
            self.visitors[reply.home_address] = Visitor(
                home_address=reply.home_address,
                node=mobile,
                registered_at=self.sim.now,
            )
        self.send_via(
            mobile,
            Packet(
                src=self.address,
                dst=mobile.address,
                size=messages.REGISTRATION_REPLY_BYTES,
                protocol=messages.REGISTRATION_REPLY,
                payload=reply,
                created_at=packet.created_at,
            ),
        )

    # ------------------------------------------------------------------
    # Tunnel exit
    # ------------------------------------------------------------------
    def _handle_tunneled(self, packet: Packet, link: Optional["Link"]) -> None:
        inner = decapsulate(packet)
        visitor = self.visitors.get(inner.dst)
        if visitor is None:
            book_drop(self.sim, "unknown-visitor")
            return
        self.links[visitor.node].transmit(inner)

    def originate(self, packet: Packet) -> None:
        """Send a locally generated packet using the forwarding table."""
        next_hop = self.table.lookup(packet.dst)
        if next_hop is not None:
            self.send_via(next_hop, packet)
