"""Soft-state route/paging caches (the heart of Cellular IP).

Each base station keeps per-mobile *downward* mappings: which child
(or radio interface) leads to the mobile.  Mappings are refreshed by
any uplink packet from the mobile and silently time out — there is no
explicit teardown signalling, which is exactly what makes Cellular IP
handoff cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.net.addressing import IPAddress

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node
    from repro.sim.kernel import Simulator


@dataclass
class CacheEntry:
    next_hop: "Node"
    expires: float
    semisoft: bool = False
    #: Monotonic freshness rank (same-instant refreshes stay ordered).
    freshness: int = 0


class RoutingCache:
    """Per-node soft-state mobile -> next-hop mappings.

    Entries are per-neighbor soft state, each with its own timer (real
    Cellular IP semantics): a refresh updates *its* entry and never
    deletes the others — they simply time out.  Lookup returns the most
    recently refreshed *regular* mapping; while any *semisoft* mapping
    is alive, it is returned as well, so the node feeds both paths for
    the dual-cast interval of a semisoft handoff.  A regular refresh on
    a semisoft entry hardens it (clears the flag).
    """

    def __init__(self, sim: "Simulator", timeout: float) -> None:
        if not timeout > 0:  # nan fails too
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.sim = sim
        self.timeout = timeout
        self._entries: dict[IPAddress, list[CacheEntry]] = {}
        self.refreshes = 0
        self.expirations = 0
        self._freshness = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, mobile) -> bool:
        return bool(self.lookup(mobile))

    def refresh(
        self, mobile: IPAddress, next_hop: "Node", semisoft: bool = False
    ) -> None:
        self.refreshes += 1
        self._freshness += 1
        expires = self.sim.now + self.timeout
        for entry in self._entries.get(mobile, ()):
            if entry.next_hop is next_hop:
                entry.expires = expires
                entry.freshness = self._freshness
                entry.semisoft = semisoft
                return
        self._entries.setdefault(mobile, []).append(
            CacheEntry(
                next_hop, expires, semisoft=semisoft, freshness=self._freshness
            )
        )

    def lookup(self, mobile: IPAddress) -> list["Node"]:
        """Live next hops for ``mobile``: the freshest regular mapping,
        plus every live semisoft mapping (dual-cast during handoff).
        Expired entries are purged on access."""
        entries = self._entries.get(mobile)
        if not entries:
            return []
        now = self.sim.now
        if len(entries) == 1 and entries[0].expires > now:
            return [entries[0].next_hop]  # nearly every call: no list to build
        live = [entry for entry in entries if entry.expires > now]
        expired = len(entries) - len(live)
        if expired:
            self.expirations += expired
        if live:
            self._entries[mobile] = live
        else:
            del self._entries[mobile]
            return []

        regular = [entry for entry in live if not entry.semisoft]
        semisoft = [entry for entry in live if entry.semisoft]
        hops: list["Node"] = []
        if regular:
            freshest = max(regular, key=lambda entry: entry.freshness)
            hops.append(freshest.next_hop)
        for entry in semisoft:
            if entry.next_hop not in hops:
                hops.append(entry.next_hop)
        return hops

    def remove(self, mobile: IPAddress) -> None:
        """Explicitly clear the mapping (paper's Delete Location Message)."""
        self._entries.pop(mobile, None)
