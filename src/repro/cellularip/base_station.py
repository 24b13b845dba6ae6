"""Cellular IP base stations, gateway and the access-network domain.

A Cellular IP access network is a tree of base stations rooted at a
gateway.  Uplink packets from mobiles refresh soft-state routing-cache
mappings hop-by-hop on their way to the gateway; downlink packets
follow those mappings in reverse.  There is no per-mobile signalling
to tear down or move routes — handoff is just a route-update through
the new base station plus cache timeout of the old path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cellularip import messages
from repro.cellularip.routing_cache import RoutingCache
from repro.net.addressing import IPAddress, Prefix
from repro.net.link import book_drop, connect
from repro.net.node import Node
from repro.net.packet import Packet
from repro.radio.channel import radio_attach, radio_detach

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.radio.channel import SharedChannel
    from repro.sim.kernel import Simulator


class CIPDomain:
    """Configuration and registry for one Cellular IP access network."""

    def __init__(
        self,
        sim: "Simulator",
        route_timeout: float = 1.5,
        route_update_time: float = 0.5,
        paging_update_time: float = 5.0,
        active_state_timeout: float = 2.0,
        semisoft_delay: float = 0.1,
        wireless_bandwidth: float = 2e6,
        wireless_delay: float = 0.002,
        wired_bandwidth: float = 100e6,
        wired_delay: float = 0.002,
        broadcast_paging: bool = True,
    ) -> None:
        self.sim = sim
        self.route_timeout = route_timeout
        self.route_update_time = route_update_time
        self.paging_update_time = paging_update_time
        self.active_state_timeout = active_state_timeout
        self.semisoft_delay = semisoft_delay
        self.wireless_bandwidth = wireless_bandwidth
        self.wireless_delay = wireless_delay
        self.wired_bandwidth = wired_bandwidth
        self.wired_delay = wired_delay
        self.broadcast_paging = broadcast_paging

        self.gateway: Optional["CIPGateway"] = None
        self.base_stations: list["CIPBaseStation"] = []
        self.mobile_addresses: set[IPAddress] = set()

    def register_mobile(self, address) -> None:
        self.mobile_addresses.add(IPAddress(address))

    def add_gateway(self, gateway: "CIPGateway") -> "CIPGateway":
        if self.gateway is not None:
            raise ValueError("domain already has a gateway")
        self.gateway = gateway
        if gateway not in self.base_stations:
            self.base_stations.append(gateway)
        return gateway

    def link(self, parent: "CIPBaseStation", child: "CIPBaseStation") -> None:
        """Wire ``child`` under ``parent`` in the access tree."""
        if child.parent is not None:
            raise ValueError(f"{child.name} already has a parent")
        connect(
            self.sim,
            parent,
            child,
            bandwidth=self.wired_bandwidth,
            delay=self.wired_delay,
        )
        child.parent = parent
        parent.children.append(child)
        if child not in self.base_stations:
            self.base_stations.append(child)

    def total_control_packets(self) -> int:
        return sum(bs.control_packets_seen for bs in self.base_stations)


class CIPBaseStation(Node):
    """One node of the Cellular IP access tree."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        address,
        domain: CIPDomain,
        shared_channel: Optional["SharedChannel"] = None,
    ) -> None:
        super().__init__(sim, name, address)
        self.domain = domain
        self.parent: Optional["CIPBaseStation"] = None
        self.children: list["CIPBaseStation"] = []
        self.routing_cache = RoutingCache(sim, domain.route_timeout)
        self.paging_cache = RoutingCache(sim, 12.0)  # paging lifetime (s)
        #: Shared air interface of this station's cell; ``None`` =
        #: legacy mode (unconstrained per-mobile radio links).
        self.shared_channel = shared_channel
        #: Radio-attached mobiles: address -> node.
        self.attached: dict[IPAddress, Node] = {}
        #: The wired Internet router; ``None`` except at the gateway.
        self.internet_neighbor: Optional[Node] = None
        self.control_packets_seen = 0
        self.paging_broadcasts = 0
        if self not in domain.base_stations:
            domain.base_stations.append(self)

    # ------------------------------------------------------------------
    # Radio side
    # ------------------------------------------------------------------
    def attach_mobile(self, mobile: Node) -> None:
        """Associate ``mobile`` on the radio side.

        With a shared channel configured the link pair is gated on it
        and the mobile's airtime claim is attached here — a semisoft
        handoff therefore briefly holds claims on both the old and the
        new base station, exactly like its dual radio paths.
        """
        address = mobile.address
        if address in self.attached:
            return
        radio_attach(
            self, mobile, self.domain.wireless_bandwidth, self.domain.wireless_delay
        )
        self.attached[address] = mobile

    def detach_mobile(self, mobile: Node) -> None:
        """Tear the radio association down, migrating the airtime claim.

        Cancels any airtime the departed mobile still had queued on
        this cell's shared channel (air-interface losses); a no-op in
        legacy mode.
        """
        self.attached.pop(mobile.address, None)
        radio_detach(self, mobile)

    # ------------------------------------------------------------------
    # Packet handling
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, link: Optional["Link"] = None) -> None:
        from_node = link.head if link is not None else None

        # An uplink arrival from a mobile refreshes the soft state.  An
        # arrival without a link never does: the gateway's parent and
        # every other station's Internet side are ``None``.
        mobiles = self.domain.mobile_addresses
        if (
            from_node is not self.parent
            and from_node is not self.internet_neighbor
            and packet.src in mobiles
        ):
            self._refresh_caches(packet, from_node)

        if packet.protocol in (messages.ROUTE_UPDATE, messages.PAGING_UPDATE):
            self.control_packets_seen += 1
            self._forward_up_or_consume(packet)
            return

        if packet.dst in mobiles:
            self.deliver_downlink(packet)
            return

        if packet.dst in self.addresses:
            self.deliver_local(packet, link)
            return

        # Uplink data toward the Internet.
        self._forward_up_or_consume(packet)

    def _refresh_caches(self, packet: Packet, from_node: Node) -> None:
        source = packet.src
        if packet.protocol == messages.PAGING_UPDATE:
            self.paging_cache.refresh(source, from_node)
            return
        semisoft = False
        if packet.protocol == messages.ROUTE_UPDATE and isinstance(
            packet.payload, messages.RouteUpdate
        ):
            semisoft = packet.payload.semisoft
        self.routing_cache.refresh(source, from_node, semisoft=semisoft)
        self.paging_cache.refresh(source, from_node)

    def _forward_up_or_consume(self, packet: Packet) -> None:
        if self.parent is not None:
            self.links[self.parent].transmit(packet)
        # else: gateway override handles the Internet side; control
        # packets terminate here.

    # ------------------------------------------------------------------
    # Downlink
    # ------------------------------------------------------------------
    def deliver_downlink(self, packet: Packet) -> None:
        destination = packet.dst
        mobile = self.attached.get(destination)
        if mobile is not None:
            self.links[mobile].transmit(packet)
            return

        hops = self.routing_cache.lookup(destination)
        if not hops:
            hops = self.paging_cache.lookup(destination)
        if len(hops) == 1:  # nearly every hop: one live mapping, no copies
            link = self.links.get(hops[0])
            if link is None:
                # The mapping points at a departed mobile's dead radio link.
                book_drop(self.sim, "stale-mapping")
            else:
                link.transmit(packet)
            return
        if hops:  # semisoft dual-cast
            self._fan_out(packet, hops)
            return

        if self.domain.broadcast_paging and self.children:
            # Paging fallback: flood to every downlink neighbor.
            self.paging_broadcasts += 1
            self._fan_out(packet, list(self.children))
            return

        book_drop(self.sim, "no-mapping")

    def _fan_out(self, packet: Packet, hops: list[Node]) -> None:
        """Send ``packet`` down every live hop, a copy on all but the
        first: semisoft dual-cast and the paging flood."""
        links = self.links
        live = [links[hop] for hop in hops if hop in links]
        if not live:
            book_drop(self.sim, "stale-mapping")
            return
        live[0].transmit(packet)
        for extra in live[1:]:
            extra.transmit(
                packet.copy(duplicate_of=packet.duplicate_of or packet.uid)
            )


class CIPGateway(CIPBaseStation):
    """The access-network root: bridges the tree to the wired Internet.

    The gateway owns the domain's care-of address when Cellular IP is
    combined with Mobile IP (the paper's architecture), and decides
    whether unroutable downlink packets are paged or dropped.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        address,
        domain: CIPDomain,
        mobile_prefix=None,
    ) -> None:
        super().__init__(sim, name, address, domain)
        domain.add_gateway(self)
        self.mobile_prefix: Optional[Prefix] = (
            Prefix(mobile_prefix) if mobile_prefix is not None else None
        )

    def connect_internet(
        self, router: Node, bandwidth: float = 100e6, delay: float = 0.005
    ) -> None:
        connect(self.sim, self, router, bandwidth=bandwidth, delay=delay)
        self.internet_neighbor = router

    def _forward_up_or_consume(self, packet: Packet) -> None:
        if packet.protocol in (messages.ROUTE_UPDATE, messages.PAGING_UPDATE):
            return  # control packets terminate at the gateway
        if self.internet_neighbor is not None:
            self.links[self.internet_neighbor].transmit(packet)
