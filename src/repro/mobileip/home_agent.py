"""The Mobile IP Home Agent.

A router on the mobile node's home link that (a) tracks each mobile's
current care-of address in a *binding cache*, (b) attracts packets sent
to home addresses, and (c) tunnels them to the registered care-of
address (IP-in-IP).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.mobileip import messages
from repro.net.addressing import IPAddress, Prefix
from repro.net.link import book_drop
from repro.net.packet import Packet, encapsulate
from repro.net.router import Router

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.sim.kernel import Simulator


@dataclass
class Binding:
    """One mobility binding: home address -> care-of address."""

    home_address: IPAddress
    care_of_address: IPAddress
    lifetime: float
    registered_at: float

    def expired(self, now: float) -> bool:
        return now > self.registered_at + self.lifetime


class HomeAgent(Router):
    """Router + binding cache + tunnel entry point."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        address,
        home_prefix,
    ) -> None:
        super().__init__(sim, name, address)
        self.home_prefix = (
            home_prefix if isinstance(home_prefix, Prefix) else Prefix(home_prefix)
        )
        self.max_lifetime = 300.0  # longest lifetime granted (s)
        self.bindings: dict[IPAddress, Binding] = {}
        self._last_identification: dict[IPAddress, int] = {}
        self.registrations_accepted = 0
        self.registrations_denied = 0
        self.tunneled_count = 0
        self.on_protocol(messages.REGISTRATION_REQUEST, self._handle_registration)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _handle_registration(self, packet: Packet, link: Optional["Link"]) -> None:
        request = packet.payload
        if not isinstance(request, messages.RegistrationRequest):
            return
        code = self._validate(request)
        lifetime = min(request.lifetime, self.max_lifetime)
        previous = self.bindings.get(request.home_address)
        if code == messages.CODE_ACCEPTED:
            if request.lifetime == 0:
                # Deregistration (mobile returned home).
                self.bindings.pop(request.home_address, None)
            else:
                self.bindings[request.home_address] = Binding(
                    home_address=request.home_address,
                    care_of_address=request.care_of_address,
                    lifetime=lifetime,
                    registered_at=self.sim.now,
                )
            self._last_identification[request.home_address] = request.identification
            self.registrations_accepted += 1
            if (
                previous is not None
                and request.lifetime > 0
                and previous.care_of_address != request.care_of_address
            ):
                # The paper's inter-domain step (§3.2, Fig 3.3): "home
                # network will reply new location information to original
                # domain", so the old domain can forward held packets.
                self._notify_previous_domain(previous, request)
        else:
            self.registrations_denied += 1

        reply = messages.RegistrationReply(
            home_address=request.home_address,
            home_agent=self.address,
            code=code,
            lifetime=lifetime,
            identification=request.identification,
        )
        # The reply is sent to the relaying agent (packet source), which
        # is the FA for foreign registration or the MN itself at home.
        self.originate(
            Packet(
                src=self.address,
                dst=packet.src,
                size=messages.REGISTRATION_REPLY_BYTES,
                protocol=messages.REGISTRATION_REPLY,
                payload=reply,
                created_at=self.sim.now,
            )
        )

    def _notify_previous_domain(
        self, previous: Binding, request: messages.RegistrationRequest
    ) -> None:
        notification = messages.BindingNotification(
            home_address=request.home_address,
            forward_to=request.care_of_address,
            sequence=request.identification,
        )
        self.originate(
            Packet(
                src=self.address,
                dst=previous.care_of_address,
                size=messages.BINDING_NOTIFY_BYTES,
                protocol=messages.BINDING_NOTIFY,
                payload=notification,
                created_at=self.sim.now,
            )
        )

    def _validate(self, request: messages.RegistrationRequest) -> int:
        if request.home_agent != self.address:
            return messages.CODE_DENIED_UNKNOWN_HA
        if request.home_address not in self.home_prefix:
            return messages.CODE_DENIED_UNKNOWN_HA
        last = self._last_identification.get(request.home_address)
        if last is not None and request.identification <= last:
            return messages.CODE_DENIED_ID_MISMATCH
        return messages.CODE_ACCEPTED

    # ------------------------------------------------------------------
    # Data plane: intercept and tunnel
    # ------------------------------------------------------------------
    def forward(self, packet: Packet, link: Optional["Link"]) -> None:
        if packet.dst in self.home_prefix and packet.protocol != "ipip":
            binding = self.lookup_binding(packet.dst)
            if binding is not None:
                tunneled = encapsulate(packet, self.address, binding.care_of_address)
                self.tunneled_count += 1
                super().forward(tunneled, link)
                return
            # No binding: the mobile is (presumed) at home; fall through to
            # normal forwarding, which drops if it is not actually here.
            if self.table.lookup(packet.dst) is None:
                book_drop(self.sim, "no-binding")
                return
        super().forward(packet, link)

    def lookup_binding(self, home_address: IPAddress) -> Optional[Binding]:
        binding = self.bindings.get(home_address)
        if binding is None:
            return None
        if binding.expired(self.sim.now):
            del self.bindings[binding.home_address]
            return None
        return binding

    def originate(self, packet: Packet) -> None:
        """Send a locally generated packet using the forwarding table."""
        next_hop = self.table.lookup(packet.dst)
        if next_hop is not None:
            self.send_via(next_hop, packet)
