"""The Resource Switching Management Center (§4).

The RSMC roots a domain's base-station hierarchy and fuses the
Cellular IP gateway with the base stations' caches.  Paper duties:

* store the location information of every MN in the domain
  (inherited: the root's cell tables see every Location Message);
* forward data packets to MNs — and, during a handoff, *buffer* them
  so the radio switch loses nothing (the "resource switching" that
  "reduce[s] data packet loss");
* authenticate the identity of MNs arriving in the domain;
* on a route/location update after a move, notify the HA and the CN
  so traffic flows directly to this RSMC (no HA triangle).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.mobileip import messages as mip_messages
from repro.multitier import messages
from repro.multitier.basestation import MultiTierBaseStation
from repro.multitier.domain import BUFFER_GUARD_TIME, FORWARD_GRACE
from repro.net.addressing import IPAddress
from repro.net.link import book_drop
from repro.net.node import Node
from repro.net.packet import Packet, decapsulate
from repro.radio.cells import Tier

if TYPE_CHECKING:  # pragma: no cover
    from repro.multitier.domain import MultiTierDomain
    from repro.sim.kernel import Simulator


class RSMC(MultiTierBaseStation):
    """Domain root: gateway + location store + handoff buffer + auth."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        address,
        domain: "MultiTierDomain",
        home_agent_address=None,
        mnld_address=None,
    ) -> None:
        super().__init__(
            sim, name, address, domain, tier=Tier.MACRO, channels=1_000_000
        )
        if domain.rsmc is not None:
            raise ValueError("domain already has an RSMC")
        domain.rsmc = self
        self.internet_neighbor: Optional[Node] = None
        self.home_agent_address = (
            IPAddress(home_agent_address) if home_agent_address is not None else None
        )
        self.mnld_address = (
            IPAddress(mnld_address) if mnld_address is not None else None
        )

        #: Handoff buffers: mobile -> queued downlink packets.
        self._buffers: dict[IPAddress, deque[Packet]] = {}
        self._buffer_guards: dict[IPAddress, object] = {}
        #: MNs whose identity this domain has verified.
        self.authenticated: set[IPAddress] = set()
        self._auth_in_progress: set[IPAddress] = set()
        #: MNs whose current Mobile IP care-of address is this RSMC.
        self._registered: set[IPAddress] = set()
        #: Last correspondent seen sending to each mobile (for notify).
        self._correspondents: dict[IPAddress, IPAddress] = {}
        #: Mobiles that arrived before we knew their correspondent: the
        #: route-optimization notify is sent as soon as we learn it.
        self._pending_cn_notify: set[IPAddress] = set()
        self._notify_sequence = 0

        #: Grace-period forwarding pointers for mobiles that left the
        #: domain: mobile -> (new care-of address, valid-until).
        self._forward_to: dict[IPAddress, tuple[IPAddress, float]] = {}

        self.buffered_packets = 0
        self.flushed_packets = 0
        self.forwarded_to_new_domain = 0
        self.authentications = 0
        self.on_protocol("ipip", self._handle_tunneled)
        self.on_protocol(
            mip_messages.BINDING_NOTIFY, self._handle_home_binding_notify
        )

    # ------------------------------------------------------------------
    # Overridden packet paths
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, link=None) -> None:
        from_node = link.head if link is not None else None
        if packet.protocol == messages.HANDOFF_BEGIN and packet.dst in self.addresses:
            self._start_buffering(packet.payload.mobile_address)
            return
        if (
            packet.protocol == "data"
            and from_node is self.internet_neighbor
            and packet.dst in self.domain.realm.mobile_addresses
        ):
            # Remember who talks to this mobile, for route optimization.
            self._learn_correspondent(packet.dst, packet.src)
        super().receive(packet, link)

    def _learn_correspondent(self, mobile: IPAddress, correspondent: IPAddress) -> None:
        self._correspondents[mobile] = correspondent
        if mobile in self._pending_cn_notify:
            self._pending_cn_notify.discard(mobile)
            self._notify_correspondent(mobile)

    def _forward_up(self, packet: Packet) -> None:
        """The root consumes domain control and bridges data upward."""
        protocol = packet.protocol
        if protocol in (
            messages.LOCATION,
            messages.UPDATE_LOCATION,
            messages.DELETE_LOCATION,
            messages.HANDOFF_BEGIN,
        ):
            return
        if self.internet_neighbor is not None:
            self.links[self.internet_neighbor].transmit(packet)

    def _handle_tunneled(self, packet: Packet, link) -> None:
        """Tunnel exit: the RSMC is the domain's care-of address."""
        inner = decapsulate(packet)
        mobiles = self.domain.realm.mobile_addresses
        if inner.dst in mobiles:
            if inner.protocol == "data" and inner.src not in mobiles:
                self._learn_correspondent(inner.dst, inner.src)
            self._route_mobile_packet(inner, link.head if link else None)
        # Non-mobile inner destinations are not ours to forward.

    # ------------------------------------------------------------------
    # Location handling: flush buffers, authenticate, notify
    # ------------------------------------------------------------------
    def _handle_location(self, packet: Packet, from_node) -> None:
        payload = packet.payload
        mobile = payload.mobile_address
        if packet.protocol == messages.UPDATE_LOCATION and not self._is_authenticated(
            mobile
        ):
            # First contact in this domain: authenticate, then apply.
            self.sim.process(
                self._authenticate_then_apply(packet, from_node),
                name=f"{self.name}-auth-{mobile}",
            )
            return
        super()._handle_location(packet, from_node)
        if packet.protocol == messages.UPDATE_LOCATION:
            self._finish_handoff(mobile)
            if mobile not in self._registered:
                # (Re-)entering the domain: the HA and MNLD must learn
                # the new care-of address.  Intra-domain handoffs keep
                # the registration and never touch the home network.
                self._register_with_home(mobile)
                self._update_mnld(mobile)

    def _is_authenticated(self, mobile: IPAddress) -> bool:
        return mobile in self.authenticated

    def _authenticate_then_apply(self, packet: Packet, from_node):
        mobile = packet.payload.mobile_address
        if mobile in self._auth_in_progress:
            return
        self._auth_in_progress.add(mobile)
        # Start buffering so nothing is lost while we verify identity.
        self._start_buffering(mobile)
        yield self.domain.auth_delay
        self._auth_in_progress.discard(mobile)
        self.authenticated.add(mobile)
        self.authentications += 1
        MultiTierBaseStation._handle_location(self, packet, from_node)
        self._finish_handoff(mobile)
        self._register_with_home(mobile)
        self._update_mnld(mobile)

    def _finish_handoff(self, mobile: IPAddress) -> None:
        # The mobile (re-)appeared in this domain: any stale departure
        # pointer is obsolete.
        self._forward_to.pop(mobile, None)
        self._flush_buffer(mobile)
        self._notify_correspondent(mobile)

    def _handle_delete(self, packet: Packet, from_node) -> None:
        """Delete reaching the domain root may mean the mobile left the
        domain entirely (Fig 3.3): per the paper, keep serving it "a
        while" — buffer its packets until the home network replies with
        the new location, then forward them there."""
        mobile = packet.payload.mobile_address
        had_record, _probes = self.tables.lookup(mobile)
        super()._handle_delete(packet, from_node)
        still_there, _probes = self.tables.lookup(mobile)
        if had_record is not None and still_there is None:
            self._start_buffering(mobile)

    def _handle_home_binding_notify(self, packet: Packet, link) -> None:
        """HA -> old domain: the mobile now binds to another care-of
        address; forward held and future packets there for a grace
        period."""
        notify = packet.payload
        if not isinstance(notify, mip_messages.BindingNotification):
            return
        mobile = notify.home_address
        new_coa = notify.forward_to
        if new_coa == self.address:
            return  # we *are* the current domain
        self._registered.discard(mobile)
        self._forward_to[mobile] = (
            new_coa,
            self.sim.now + FORWARD_GRACE,
        )
        buffer = self._buffers.pop(mobile, None)
        self._buffer_guards.pop(mobile, None)
        if buffer:
            for held in buffer:
                self._tunnel_to_new_domain(held, new_coa)

    def _tunnel_to_new_domain(self, packet: Packet, new_coa: IPAddress) -> None:
        if self.internet_neighbor is None:
            book_drop(self.sim, "no-route")
            return
        from repro.net.packet import encapsulate

        self.forwarded_to_new_domain += 1
        self.send_via(
            self.internet_neighbor, encapsulate(packet, self.address, new_coa)
        )

    # ------------------------------------------------------------------
    # Handoff buffering ("resource switching")
    # ------------------------------------------------------------------
    def _start_buffering(self, mobile: IPAddress) -> None:
        if mobile not in self._buffers:
            self._buffers[mobile] = deque()
        guard = self._buffer_guards.get(mobile)
        if guard is None or not getattr(guard, "is_alive", False):
            self._buffer_guards[mobile] = self.sim.process(
                self._buffer_guard(mobile), name=f"{self.name}-bufguard-{mobile}"
            )

    def _buffer_guard(self, mobile: IPAddress):
        """Abandon a buffer if the handoff never completes."""
        yield BUFFER_GUARD_TIME
        buffer = self._buffers.pop(mobile, None)
        self._buffer_guards.pop(mobile, None)
        if buffer:
            book_drop(self.sim, "buffer-abandoned", len(buffer))
            # The mobile vanished without an update or a home notify:
            # treat it as departed so a return re-registers.
            self._registered.discard(mobile)

    def _flush_buffer(self, mobile: IPAddress) -> None:
        buffer = self._buffers.pop(mobile, None)
        self._buffer_guards.pop(mobile, None)
        if not buffer:
            return
        record, _probes = self.tables.lookup(mobile)
        if record is None or record.via is None or record.via not in self.links:
            book_drop(self.sim, "buffer-unroutable", len(buffer))
            return
        for packet in buffer:
            self.flushed_packets += 1
            self.send_via(record.via, packet)

    def _route_mobile_packet(self, packet: Packet, from_node) -> None:
        buffer = self._buffers.get(packet.dst)
        if buffer is not None and packet.protocol == "data":
            self._buffer_packet(packet.dst, buffer, packet)
            return
        forward = self._forward_to.get(packet.dst)
        if forward is not None:
            new_coa, valid_until = forward
            if self.sim.now < valid_until:
                if packet.protocol == "data":
                    self._tunnel_to_new_domain(packet, new_coa)
                    return
            else:
                del self._forward_to[packet.dst]
        record, _probes = self.tables.lookup(packet.dst)
        if record is not None:
            down = record.via
            if down is not None and down in self.links and down is not from_node:
                self.links[down].transmit(packet)
                return
            if packet.protocol == "data":
                # Stale branch drained back to us mid-handoff: hold the
                # packet until the Update Location Message lands.
                self._start_buffering(packet.dst)
                self._buffer_packet(packet.dst, self._buffers[packet.dst], packet)
                return
        if record is None and self.domain.broadcast_paging and self.children:
            if packet.paged:
                book_drop(self.sim, "no-record")
                return
            for child in self.children:
                copy = packet.copy(
                    duplicate_of=packet.duplicate_of or packet.uid, paged=True
                )
                self.send_via(child, copy)
            return
        book_drop(self.sim, "no-record")

    def _buffer_packet(self, mobile: IPAddress, buffer, packet: Packet) -> None:
        if len(buffer) >= self.domain.buffer_size:
            book_drop(self.sim, "buffer-full")
            return
        self.buffered_packets += 1
        buffer.append(packet)

    # ------------------------------------------------------------------
    # Route optimization and wide-area integration (§4)
    # ------------------------------------------------------------------
    def _notify_correspondent(self, mobile: IPAddress) -> None:
        correspondent = self._correspondents.get(mobile)
        if correspondent is None:
            # No known CN yet: notify as soon as its traffic shows up.
            self._pending_cn_notify.add(mobile)
            return
        if self.internet_neighbor is None:
            return
        # Timestamp-based sequence so notifies from *different* RSMCs
        # compare correctly at the correspondent (latest move wins).
        self._notify_sequence = max(
            self._notify_sequence + 1, int(self.sim.now * 1e9)
        )
        notify = messages.RSMCBindingNotify(
            mobile_address=mobile,
            rsmc_address=self.address,
            sequence=self._notify_sequence,
        )
        self.send_via(
            self.internet_neighbor,
            Packet(
                src=self.address,
                dst=correspondent,
                size=messages.BINDING_NOTIFY_BYTES,
                protocol=messages.BINDING_NOTIFY,
                payload=notify,
                created_at=self.sim.now,
            ),
        )

    def _register_with_home(self, mobile: IPAddress) -> None:
        """Proxy Mobile IP registration: this RSMC is the MN's CoA."""
        self._registered.add(mobile)
        if self.home_agent_address is None or self.internet_neighbor is None:
            return
        identification = int(self.sim.now * 1e6) + 1
        request = mip_messages.RegistrationRequest(
            home_address=mobile,
            home_agent=self.home_agent_address,
            care_of_address=self.address,
            lifetime=300.0,
            identification=identification,
        )
        self.send_via(
            self.internet_neighbor,
            Packet(
                src=self.address,
                dst=self.home_agent_address,
                size=mip_messages.REGISTRATION_REQUEST_BYTES,
                protocol=mip_messages.REGISTRATION_REQUEST,
                payload=request,
                created_at=self.sim.now,
            ),
        )

    def _update_mnld(self, mobile: IPAddress) -> None:
        if self.mnld_address is None or self.internet_neighbor is None:
            return
        update = messages.MNLDUpdate(mobile_address=mobile, rsmc_address=self.address)
        self.send_via(
            self.internet_neighbor,
            Packet(
                src=self.address,
                dst=self.mnld_address,
                size=messages.MNLD_BYTES,
                protocol=messages.MNLD_UPDATE,
                payload=update,
                created_at=self.sim.now,
            ),
        )
