"""The Mobile IP mobile node: movement detection, registration state
machine with retransmission, and plain data endpoints."""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Optional

from repro.mobileip import messages
from repro.net.addressing import IPAddress
from repro.net.node import Node
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.sim.kernel import Simulator


class MobileIPNode(Node):
    """A mobile host with a permanent home address.

    The node watches agent advertisements to detect movement; on
    discovering a new foreign agent it registers through it with its
    home agent, retransmitting with exponential backoff until a reply
    arrives.  Successful registrations renew before expiry.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        home_address,
        home_agent_address,
    ) -> None:
        super().__init__(sim, name, home_address)
        self.home_address = IPAddress(home_address)
        self.home_agent_address = IPAddress(home_agent_address)
        self.registration_lifetime = 60.0  # asked for in each request (s)

        self.current_agent: Optional[IPAddress] = None
        self.registered_agent: Optional[IPAddress] = None
        self.registered_at: Optional[float] = None
        self._identification = itertools.count(1)
        self._pending_identification: Optional[int] = None
        self._retransmit_process = None
        self.registration_latencies: list[float] = []
        self.registration_attempts = 0
        #: Hooks fired with (agent_address, latency) on registration.
        self.on_registered: list[Callable[[IPAddress, float], None]] = []
        #: Hooks fired with each received data packet.
        self.on_data: list[Callable[[Packet], None]] = []

        self.on_protocol(messages.AGENT_ADVERTISEMENT, self._handle_advertisement)
        self.on_protocol(messages.REGISTRATION_REPLY, self._handle_reply)
        self.on_protocol("data", self._handle_data)

    # ------------------------------------------------------------------
    @property
    def is_registered(self) -> bool:
        if self.registered_agent is None or self.registered_at is None:
            return False
        return self.sim.now <= self.registered_at + self.registration_lifetime

    def _agent_node(self) -> Optional[Node]:
        """The neighbor that is our current agent, if still linked."""
        for neighbor in self.links:
            if neighbor.owns(self.current_agent):
                return neighbor
        return None

    # ------------------------------------------------------------------
    # Movement detection & registration
    # ------------------------------------------------------------------
    def _handle_advertisement(self, packet: Packet, link: Optional["Link"]) -> None:
        advertisement = packet.payload
        if not isinstance(advertisement, messages.AgentAdvertisement):
            return
        agent = advertisement.agent_address
        if agent != self.current_agent:
            # New point of attachment detected: (re-)register.
            self.current_agent = agent
            self._start_registration()
        elif self.is_registered and self._near_expiry():
            self._start_registration()

    def _near_expiry(self) -> bool:
        remaining = (self.registered_at + self.registration_lifetime) - self.sim.now
        return remaining < self.registration_lifetime * 0.25

    def _start_registration(self) -> None:
        identification = next(self._identification)
        self._pending_identification = identification
        if self._retransmit_process is not None and self._retransmit_process.is_alive:
            self._retransmit_process.interrupt("superseded")
        self._retransmit_process = self.sim.process(
            self._register_with_retry(identification),
            name=f"{self.name}-reg-{identification}",
        )

    def _register_with_retry(self, identification: int):
        from repro.sim.errors import Interrupt

        backoff = 1.0  # doubling to 8 s between retransmissions
        started = self.sim.now
        while self._pending_identification == identification:
            self._send_registration_request(identification, started)
            try:
                yield backoff
            except Interrupt:
                return
            backoff = min(backoff * 2.0, 8.0)

    def _send_registration_request(self, identification: int, started: float) -> None:
        agent_node = self._agent_node()
        if agent_node is None or self.current_agent is None:
            return
        self.registration_attempts += 1
        request = messages.RegistrationRequest(
            home_address=self.home_address,
            home_agent=self.home_agent_address,
            care_of_address=self.current_agent,
            lifetime=self.registration_lifetime,
            identification=identification,
        )
        self.send_via(
            agent_node,
            Packet(
                src=self.home_address,
                dst=self.current_agent,
                size=messages.REGISTRATION_REQUEST_BYTES,
                protocol=messages.REGISTRATION_REQUEST,
                payload=request,
                created_at=started,
            ),
        )

    def _handle_reply(self, packet: Packet, link: Optional["Link"]) -> None:
        reply = packet.payload
        if not isinstance(reply, messages.RegistrationReply):
            return
        if reply.identification != self._pending_identification:
            return  # stale reply
        self._pending_identification = None
        if self._retransmit_process is not None and self._retransmit_process.is_alive:
            self._retransmit_process.interrupt("answered")
        if reply.accepted:
            self.registered_agent = self.current_agent
            self.registered_at = self.sim.now
            latency = self.sim.now - packet.created_at
            self.registration_latencies.append(latency)
            for hook in self.on_registered:
                hook(self.registered_agent, latency)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def _handle_data(self, packet: Packet, link: Optional["Link"]) -> None:
        for hook in self.on_data:
            hook(packet)

    def originate(self, packet: Packet) -> bool:
        """Send a data packet via the current point of attachment."""
        agent_node = self._agent_node()
        if agent_node is None:
            # Fall back to any link (e.g. wired home link in tests).
            neighbors = self.neighbors()
            if not neighbors:
                return False
            agent_node = neighbors[0]
        return self.links[agent_node].transmit(packet)
