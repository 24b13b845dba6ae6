"""Domain configuration and construction helpers.

A *domain* is the paper's unit of wide-area mobility: the coverage of
one macro-tier hierarchy rooted at an RSMC (§3.2 defines "a domain to
be coverage of macro-tier").  Several domains share a
:class:`MobileRealm` — the set of mobile home addresses — and are
stitched together over the wired Internet by Mobile IP.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.net.addressing import IPAddress

if TYPE_CHECKING:  # pragma: no cover
    from repro.multitier.basestation import MultiTierBaseStation
    from repro.multitier.rsmc import RSMC
    from repro.sim.kernel import Simulator

#: How long a mobile waits for a handoff answer before it gives up (s).
HANDOFF_TIMEOUT = 1.0
#: How long the RSMC holds a handoff buffer no update location claims (s).
BUFFER_GUARD_TIME = 2.0
#: How long the old RSMC forwards to a mobile that left the domain (s).
FORWARD_GRACE = 5.0


class MobileRealm:
    """The set of mobile home addresses known across all domains."""

    def __init__(self) -> None:
        self.mobile_addresses: set[IPAddress] = set()

    def register(self, address) -> None:
        self.mobile_addresses.add(IPAddress(address))


class MultiTierDomain:
    """Parameters and registry for one multi-tier domain."""

    def __init__(
        self,
        sim: "Simulator",
        realm: Optional[MobileRealm] = None,
        record_lifetime: float = 5.0,
        location_update_period: float = 1.0,
        buffer_size: int = 64,
        auth_delay: float = 0.020,
        guard_channels: int = 1,
        wireless_bandwidth: float = 2e6,
        wireless_delay: float = 0.002,
        wired_bandwidth: float = 100e6,
        wired_delay: float = 0.002,
        broadcast_paging: bool = True,
    ) -> None:
        self.sim = sim
        self.realm = realm if realm is not None else MobileRealm()
        self.record_lifetime = record_lifetime
        self.location_update_period = location_update_period
        self.buffer_size = buffer_size
        self.auth_delay = auth_delay
        self.guard_channels = guard_channels
        self.wireless_bandwidth = wireless_bandwidth
        self.wireless_delay = wireless_delay
        self.wired_bandwidth = wired_bandwidth
        self.wired_delay = wired_delay
        self.broadcast_paging = broadcast_paging

        self.rsmc: Optional["RSMC"] = None
        self.base_stations: list["MultiTierBaseStation"] = []

    # ------------------------------------------------------------------
    def add_station(self, station: "MultiTierBaseStation") -> None:
        if station not in self.base_stations:
            self.base_stations.append(station)

    def link(self, parent: "MultiTierBaseStation", child: "MultiTierBaseStation") -> None:
        """Wire ``child`` under ``parent`` in the hierarchy."""
        from repro.net.link import connect

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

    # ------------------------------------------------------------------
    # Accounting across the whole domain
    # ------------------------------------------------------------------
    def total_location_messages(self) -> int:
        return sum(bs.location_messages_seen for bs in self.base_stations)

    def total_table_records(self) -> int:
        return sum(bs.tables.total_records() for bs in self.base_stations)

