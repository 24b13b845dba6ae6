"""The Cellular IP mobile host.

Implements the paper's §2.2.2 behaviours: route-update packets while
*active*, paging-update packets while *idle* (idle = no data for
``active_state_timeout``), and duplicate suppression for the semisoft
handoff's dual-path interval.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.cellularip import messages
from repro.cellularip.base_station import CIPBaseStation
from repro.net.node import Node
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.sim.kernel import Simulator


class CIPMobileHost(Node):
    """A mobile host inside a Cellular IP access network."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        address,
        domain,
        airtime_key: Optional[int] = None,
    ) -> None:
        super().__init__(sim, name, address)
        self.domain = domain
        #: Deterministic shared-channel arbitration key; ``None`` falls
        #: back to a name hash in :func:`repro.radio.channel.airtime_key`.
        self.airtime_key = airtime_key
        domain.register_mobile(address)
        self.serving_bs: Optional[CIPBaseStation] = None
        #: During semisoft handoff the host briefly hears two stations.
        self.secondary_bs: Optional[CIPBaseStation] = None
        self._last_uplink = -float("inf")
        self._last_activity = -float("inf")
        self._seen_keys: set[int] = set()
        self._seen_order: deque[int] = deque()
        self.duplicates_discarded = 0
        self.route_updates_sent = 0
        self.paging_updates_sent = 0
        self.data_received = 0
        #: Hooks fired with each received data packet.
        self.on_data: list[Callable[[Packet], None]] = []
        sim.process(self._update_loop(), name=f"{name}-cip-loop")

    # ------------------------------------------------------------------
    @property
    def is_active(self) -> bool:
        """Active = sent or received data within active_state_timeout."""
        return (
            self.sim.now - self._last_activity <= self.domain.active_state_timeout
        )

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach_to(self, bs: CIPBaseStation) -> None:
        """Initial attachment: associate and announce our route."""
        bs.attach_mobile(self)
        self.serving_bs = bs
        self.send_route_update()

    def handoff_hard(self, new_bs: CIPBaseStation) -> None:
        """Cellular IP hard handoff: break-then-make.

        The radio retunes first; the route-update through the new base
        station races the packets still flowing down the old path —
        those are the handoff losses the paper's semisoft variant and
        RSMC buffering are designed to eliminate.
        """
        old = self.serving_bs
        if old is not None:
            old.detach_mobile(self)
        new_bs.attach_mobile(self)
        self.serving_bs = new_bs
        self.send_route_update()

    def handoff_semisoft(self, new_bs: CIPBaseStation):
        """Cellular IP semisoft handoff (generator: run as a process).

        The host first sends a *semisoft* route-update through the new
        base station while still listening to the old one; the crossover
        node then feeds both paths.  After ``semisoft_delay`` the radio
        switches and a regular route-update hardens the new path.
        """
        old = self.serving_bs
        new_bs.attach_mobile(self)
        self.secondary_bs = new_bs
        self._send_update(new_bs, semisoft=True)
        yield self.domain.semisoft_delay
        self.serving_bs = new_bs
        self.secondary_bs = None
        if old is not None:
            old.detach_mobile(self)
        self.send_route_update()

    # ------------------------------------------------------------------
    # Control packets
    # ------------------------------------------------------------------
    def send_route_update(self) -> None:
        if self.serving_bs is None:
            return
        self._send_update(self.serving_bs, semisoft=False)

    def _send_update(self, bs: CIPBaseStation, semisoft: bool) -> None:
        gateway = self.domain.gateway
        if gateway is None:
            raise RuntimeError("domain has no gateway")
        self.route_updates_sent += 1
        self._last_uplink = self.sim.now
        self.send_via(
            bs,
            Packet(
                src=self.address,
                dst=gateway.address,
                size=messages.ROUTE_UPDATE_BYTES,
                protocol=messages.ROUTE_UPDATE,
                payload=messages.RouteUpdate(self.address, semisoft=semisoft),
                created_at=self.sim.now,
            ),
        )

    def send_paging_update(self) -> None:
        if self.serving_bs is None or self.domain.gateway is None:
            return
        self.paging_updates_sent += 1
        self.send_via(
            self.serving_bs,
            Packet(
                src=self.address,
                dst=self.domain.gateway.address,
                size=messages.PAGING_UPDATE_BYTES,
                protocol=messages.PAGING_UPDATE,
                payload=messages.PagingUpdate(self.address),
                created_at=self.sim.now,
            ),
        )

    def _update_loop(self):
        """Periodic route/paging updates per the host's state.

        Ticks at route-update granularity so the idle->active transition
        is noticed promptly; paging updates keep their own (longer)
        cadence via a last-sent timestamp.
        """
        domain = self.domain
        last_paging = -float("inf")
        while True:
            yield domain.route_update_time
            if self.serving_bs is None:
                continue
            if self.is_active:
                # Data already refreshes caches; only fill silent gaps.
                # Strict > so data sent at this very tick suppresses the
                # redundant route-update.
                if self.sim.now - self._last_uplink > domain.route_update_time:
                    self.send_route_update()
            elif self.sim.now - last_paging >= domain.paging_update_time:
                self.send_paging_update()
                last_paging = self.sim.now

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def originate(self, packet: Packet) -> bool:
        """Send a data packet uplink via the serving base station."""
        if self.serving_bs is None:
            return False
        self._last_activity = self.sim.now
        self._last_uplink = self.sim.now
        return self.links[self.serving_bs].transmit(packet)

    def deliver_local(self, packet: Packet, link: Optional["Link"]) -> None:
        key = packet.duplicate_of or packet.uid
        if key in self._seen_keys:
            self.duplicates_discarded += 1
            return
        self._remember(key)
        if packet.protocol == "data":
            self._last_activity = self.sim.now
            self.data_received += 1
            for hook in self.on_data:
                hook(packet)
        super().deliver_local(packet, link)

    def _remember(self, key: int) -> None:
        self._seen_keys.add(key)
        self._seen_order.append(key)
        while len(self._seen_order) > 4096:  # packets remembered
            self._seen_keys.discard(self._seen_order.popleft())
