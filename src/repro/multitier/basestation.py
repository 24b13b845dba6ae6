"""Multi-tier base stations (§3).

A base station belongs to the micro or macro tier, keeps the paper's
cell tables (micro_table, and macro_table for macro cells), admits
mobiles through a guarded channel pool (the "resources of BS" handoff
factor), and routes data packets by walking the location records:
down when a record is known, up toward the RSMC otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Optional

from repro.multitier import messages
from repro.multitier.tables import TablePair
from repro.net.addressing import IPAddress
from repro.net.link import book_drop
from repro.net.node import Node
from repro.net.packet import Packet
from repro.radio.cells import Cell, Tier
from repro.radio.channel import airtime_key, radio_attach, radio_detach

if TYPE_CHECKING:  # pragma: no cover
    from repro.multitier.domain import MultiTierDomain
    from repro.net.link import Link
    from repro.radio.channel import SharedChannel
    from repro.sim.kernel import Simulator


class GuardedChannelPool:
    """A channel pool with *guard channels* reserved for handoffs.

    A classic cellular admission policy: of ``capacity`` channels, the
    last ``guard`` may only be taken by handoff requests.  New calls are
    blocked once ``capacity - guard`` channels are busy; handoffs are
    blocked only when every channel is busy.  This is the "resources of
    BS" decision factor in the paper's handoff strategy (§3.2).

    Admission is immediate (nothing ever waits for a channel), so the
    pool is a plain counter: an admission hands out an opaque token and
    :meth:`release` takes it back.
    """

    def __init__(self, capacity: int, guard: int = 0) -> None:
        if not capacity > 0:  # also rejects nan, which would admit every call
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 0 <= guard < capacity:
            raise ValueError(f"guard must be in [0, capacity), got {guard}")
        self.capacity = capacity
        self.guard = guard
        self._held: set[int] = set()
        self._tokens = count(1)

    @property
    def free(self) -> int:
        """Number of channels currently available (to a handoff)."""
        return self.capacity - len(self._held)

    def admit_new_call(self) -> Optional[int]:
        """Try to admit a new call; returns a channel token or ``None``."""
        return self._take(self.capacity - self.guard)

    def admit_handoff(self) -> Optional[int]:
        """Try to admit a handoff; returns a channel token or ``None``."""
        return self._take(self.capacity)

    def _take(self, limit: int) -> Optional[int]:
        if len(self._held) >= limit:
            return None
        token = next(self._tokens)
        self._held.add(token)
        return token

    def release(self, token: int) -> None:
        """Return a channel; a token the pool does not hold is ignored."""
        self._held.discard(token)


@dataclass
class Attachment:
    """One mobile currently holding a channel on this base station."""

    node: Node
    channel: Optional[int]
    since: float


class MultiTierBaseStation(Node):
    """A micro- or macro-tier base station with cell tables."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        address,
        domain: "MultiTierDomain",
        tier: Tier,
        cell: Optional[Cell] = None,
        channels: Optional[int] = None,
        shared_channel: Optional["SharedChannel"] = None,
    ) -> None:
        super().__init__(sim, name, address)
        if tier not in (Tier.PICO, Tier.MICRO, Tier.MACRO):
            raise ValueError(f"unknown tier {tier!r}")
        self.domain = domain
        self.tier = tier
        self.cell = cell
        #: The cell's shared air interface; ``None`` = legacy mode
        #: (every radio link gets its own unconstrained transmitter).
        self.shared_channel = shared_channel
        # Pico cells are mobility-managed exactly like micro cells
        # (§4: "The focused facilities of mobility management and
        # handoff strategy are separated into micro-cell and macro-cell")
        # — they keep a micro_table only.
        self.tables = TablePair(
            sim,
            record_lifetime=domain.record_lifetime,
            has_macro_table=(tier is Tier.MACRO),
        )
        capacity = channels or (cell.channels if cell else 32)
        guard = min(domain.guard_channels, max(capacity - 1, 0))
        self.channels = GuardedChannelPool(capacity=capacity, guard=guard)
        self.parent: Optional["MultiTierBaseStation"] = None
        self.children: list["MultiTierBaseStation"] = []
        self.attached: dict[IPAddress, Attachment] = {}
        #: Channel held between handoff-accept and update-location.
        self._pending_channels: dict[IPAddress, int] = {}

        self.location_messages_seen = 0
        domain.add_station(self)

    # ------------------------------------------------------------------
    def radio_connect(self, mobile: Node) -> None:
        """Create the radio link pair (signalling-only until admitted).

        When this cell has a :class:`~repro.radio.channel.SharedChannel`
        the link pair is gated on it and the mobile's airtime claim is
        attached here — during make-before-break handoff the mobile
        briefly holds claims on both the old and the new cell.
        """
        if self.link_to(mobile) is None:
            radio_attach(
                self,
                mobile,
                self.domain.wireless_bandwidth,
                self.domain.wireless_delay,
                demand=getattr(mobile, "bandwidth_demand", 0.0),
            )

    def radio_disconnect(self, mobile: Node) -> None:
        """Tear the radio link down, migrating the airtime claim away.

        Detaching the claim cancels any airtime the departed mobile
        still had queued on this cell's shared channel (counted as
        air-interface losses); a no-op in legacy mode.
        """
        radio_detach(self, mobile)

    # ------------------------------------------------------------------
    # Admission (the "resources of BS" factor)
    # ------------------------------------------------------------------
    def admit_new_call(self, mobile: Node) -> Optional[str]:
        """Initial attachment: may not take guard channels.

        Checks both resource pools — the shared channel's demand
        budget first (when admission control is on), then the guarded
        channel pool.  Returns ``None`` once admitted, else the cause
        of the refusal: ``air-budget-exceeded`` or ``channel-pool-full``.
        """
        if self.shared_channel is not None and not self.shared_channel.admit(
            airtime_key(mobile), getattr(mobile, "bandwidth_demand", 0.0)
        ):
            return "air-budget-exceeded"
        channel = self.channels.admit_new_call()
        if channel is None:
            return "channel-pool-full"
        self.radio_connect(mobile)
        self.attached[mobile.address] = Attachment(mobile, channel, self.sim.now)
        return None

    def detach_mobile(self, mobile: Node) -> None:
        attachment = self.attached.pop(mobile.address, None)
        if attachment is not None and attachment.channel is not None:
            self.channels.release(attachment.channel)
        pending = self._pending_channels.pop(mobile.address, None)
        if pending is not None:
            self.channels.release(pending)
        self.radio_disconnect(mobile)

    # ------------------------------------------------------------------
    # Packet handling
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, link: Optional["Link"] = None) -> None:
        from_node = link.head if link is not None else None
        protocol = packet.protocol

        # Data and tunnelled data, nearly every packet, skip the four
        # control-protocol comparisons.
        if protocol != "data" and protocol != "ipip":
            if protocol in (messages.LOCATION, messages.UPDATE_LOCATION):
                self._handle_location(packet, from_node)
                return
            if protocol == messages.DELETE_LOCATION:
                self._handle_delete(packet, from_node)
                return
            if protocol == messages.HANDOFF_REQUEST:
                self._handle_handoff_request(packet, from_node)
                return
            if protocol == messages.HANDOFF_BEGIN:
                self._forward_up(packet)
                return
        dst = packet.dst
        if dst in self.addresses:
            self.deliver_local(packet, link)
        elif dst in self.domain.realm.mobile_addresses:
            self._route_mobile_packet(packet, from_node)
        else:
            # Plain uplink traffic toward the Internet.
            self._forward_up(packet)

    def _forward_up(self, packet: Packet) -> None:
        if self.parent is not None:
            self.links[self.parent].transmit(packet)
        # The RSMC overrides to bridge to the Internet / consume control.

    # ------------------------------------------------------------------
    # Location management (§3.1)
    # ------------------------------------------------------------------
    def _handle_location(self, packet: Packet, from_node: Optional[Node]) -> None:
        payload = packet.payload
        self.location_messages_seen += 1
        mobile = payload.mobile_address
        serving_macro = payload.serving_tier is Tier.MACRO
        came_from_mobile = from_node is not None and mobile in from_node.addresses
        via = None if came_from_mobile else from_node
        self.tables.store(mobile, via, serving_tier_is_macro=serving_macro)

        if packet.protocol == messages.UPDATE_LOCATION:
            self._finalize_handoff_attachment(mobile, from_node)
        self._forward_up(packet)

    def _finalize_handoff_attachment(
        self, mobile_address: IPAddress, from_node: Optional[Node]
    ) -> None:
        """Promote a pending handoff channel to a full attachment."""
        pending = self._pending_channels.pop(mobile_address, None)
        if pending is None:
            return
        mobile = self._linked_mobile(mobile_address, from_node)
        if mobile is None:
            self.channels.release(pending)
            return
        self.attached[mobile_address] = Attachment(mobile, pending, self.sim.now)

    def _linked_mobile(
        self, mobile_address: IPAddress, from_node: Optional[Node]
    ) -> Optional[Node]:
        """The linked neighbour owning ``mobile_address``: ``from_node``
        when the message came over the mobile's own radio (still linked
        — a message in flight outlives a torn-down radio), else, for a
        relayed message, whichever neighbour has the address."""
        if from_node is not None and mobile_address in from_node.addresses:
            return from_node if from_node in self.links else None
        for neighbor in self.links:
            if mobile_address in neighbor.addresses:
                return neighbor
        return None

    def _handle_delete(self, packet: Packet, from_node: Optional[Node]) -> None:
        """Delete Location Message: erase the stale branch (§3.2).

        The record is deleted only while it still points toward where
        the delete came from (the stale branch / the departed radio);
        if an Update Location Message already repointed it, propagation
        stops — that node is the crossover.
        """
        payload = packet.payload
        mobile = payload.mobile_address
        record = self.tables.micro_table.peek(mobile)
        if record is None and self.tables.macro_table is not None:
            record = self.tables.macro_table.peek(mobile)
        if record is None:
            return
        came_from_mobile = from_node is not None and mobile in from_node.addresses
        if came_from_mobile:
            # We are the old serving BS: always erase and release radio.
            self.tables.delete(mobile)
            mobile_node = self.attached.get(mobile)
            if mobile_node is not None:
                self.detach_mobile(mobile_node.node)
            self._forward_up(packet)
            return
        if record.via is from_node:
            self.tables.delete(mobile)
            self._forward_up(packet)
        # else: record points elsewhere (crossover reached) — stop.

    # ------------------------------------------------------------------
    # Handoff admission (§3.2)
    # ------------------------------------------------------------------
    def _handle_handoff_request(self, packet: Packet, from_node: Optional[Node]) -> None:
        request = packet.payload
        mobile_address = request.mobile_address
        mobile = self._linked_mobile(mobile_address, from_node)
        # Resources factor, checked in order: the shared channel's
        # demand budget (when admission control is on), then the
        # guarded channel pool.
        air_ok = (
            self.shared_channel is None
            or mobile is None
            or self.shared_channel.admit(
                airtime_key(mobile), request.bandwidth_demand
            )
        )
        channel = self.channels.admit_handoff() if air_ok else None
        accepted = channel is not None
        reason = ""
        if accepted:
            # Hold the channel until the Update Location Message lands.
            previous = self._pending_channels.pop(mobile_address, None)
            if previous is not None:
                self.channels.release(previous)
            self._pending_channels[mobile_address] = channel
            self._notify_handoff_begin(request)
        else:
            reason = "channel-pool-full" if air_ok else "air-budget-exceeded"

        answer = messages.HandoffAnswer(
            mobile_address=mobile_address,
            handoff_id=request.handoff_id,
            accepted=accepted,
            reason=reason,
        )
        if mobile is not None:
            self.send_via(
                mobile,
                Packet(
                    src=self.address,
                    dst=mobile_address,
                    size=messages.HANDOFF_CONTROL_BYTES,
                    protocol=messages.HANDOFF_ACCEPT
                    if accepted
                    else messages.HANDOFF_REJECT,
                    payload=answer,
                    created_at=packet.created_at,
                ),
            )

    def _notify_handoff_begin(self, request) -> None:
        """Tell the RSMC to start buffering for this mobile."""
        if self.parent is None:
            # We are the root: handle locally (RSMC overrides).
            return
        begin = messages.HandoffBegin(
            mobile_address=request.mobile_address, handoff_id=request.handoff_id
        )
        self.send_via(
            self.parent,
            Packet(
                src=self.address,
                dst=self._root_address(),
                size=messages.HANDOFF_CONTROL_BYTES,
                protocol=messages.HANDOFF_BEGIN,
                payload=begin,
                created_at=self.sim.now,
            ),
        )

    def _root_address(self) -> IPAddress:
        node: MultiTierBaseStation = self
        while node.parent is not None:
            node = node.parent
        return node.address

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def _route_mobile_packet(self, packet: Packet, from_node: Optional[Node]) -> None:
        """Forward a packet destined to a mobile.

        Normal case: follow the location record downward.  If the
        record is stale (departed radio) or points back at the sender
        (the stale branch of an in-progress handoff), the packet is
        *bounced upward* toward the RSMC, which re-routes or buffers
        it — the paper's resource switching.  Bouncing is loop-free: a
        packet never goes back down the link it arrived on.
        """
        destination = packet.dst
        attachment = self.attached.get(destination)
        if attachment is not None:
            radio = self.links.get(attachment.node)
            if radio is not None:
                radio.transmit(packet)
            else:
                book_drop(self.sim, "stale-radio")
            return

        record, _probes = self.tables.lookup(destination)
        if record is not None:
            down = record.via
            usable = (
                down is not None and down in self.links and down is not from_node
            )
            if usable:
                self.links[down].transmit(packet)
                return
        # No usable downward pointer: drain upward (resource switching)
        # unless this copy is a paging flood that found nobody.
        if packet.paged:
            book_drop(self.sim, "no-record")
            return
        if self.parent is not None:
            if packet.ttl <= 1:
                book_drop(self.sim, "ttl-expired")
                return
            packet.ttl -= 1
            self.send_via(self.parent, packet)
            return
        book_drop(self.sim, "no-record")
