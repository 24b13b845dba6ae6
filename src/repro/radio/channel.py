"""Shared air-interface contention: per-cell airtime arbitration.

The paper's core claim — pico-cell overlays absorb multimedia load that
macro cells cannot carry — is only testable when the air interface is a
*shared* resource.  This module provides :class:`SharedChannel`, a
per-cell airtime arbiter that every radio :class:`~repro.net.link.Link`
attached to one base station contends on, replacing the historic
unconstrained per-mobile radio links.

Semantics
---------
* One channel per cell, with **separate downlink and uplink budgets**
  in bits per second (the cell's aggregate over-the-air rate, not a
  per-user rate).
* Each budget is a single-server queue the channel arbitrates itself
  (one heap and a busy flag per direction): a packet's airtime is
  ``size * 8 / budget`` seconds and transmissions never overlap within
  one direction.
* Arbitration is FIFO by submission time with **deterministic
  tie-breaking keyed by the mobile index** (``airtime_key``): packets
  submitted at the same simulation instant (before that instant's
  zero-delay arbitration event fires) are granted airtime in ascending
  key order, then submission order.
* A mobile holds an *airtime claim* (:meth:`SharedChannel.attach`) on
  its serving cell's channel; handoff migrates the claim — the new base
  station attaches it at radio-link creation (make-before-break and
  semisoft handoffs briefly hold claims on both cells) and the old one
  detaches it, cancelling any airtime the departed mobile still had
  queued there (those packets are air-interface losses, booked as
  ``air-cancelled`` in the drop ledger).
* **Admission control** (off by default): a channel built with an
  ``admission_factor`` tracks each claim's declared bandwidth demand
  and :meth:`SharedChannel.admit` rejects a newcomer whose demand
  would push the cell's committed load past
  ``admission_factor * downlink budget`` — the §3.2 "resources of BS"
  factor, surfaced by the base station as a handoff rejection that
  makes the mobile "turn to ask" the next tier.

Legacy mode: a link built with ``shared_channel=None`` (the default
everywhere) keeps the historic per-link transmitter, byte-identical to
pre-channel behaviour — the paper-replication experiments run in this
mode.

Determinism: the arbiter is driven entirely by the simulator's event
queue and the deterministic (time, key, submission) ordering; given the
same world and seed it grants identical airtime schedules in any
process, on any execution backend.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import TYPE_CHECKING, Optional

from repro.net.link import connect
from repro.radio.cells import Cell, Tier

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.net.node import Node
    from repro.net.packet import Packet
    from repro.sim.kernel import Simulator

#: Transmission directions, as stored on ``Link.channel_direction``.
#: Plain strings so the net layer never has to import the radio layer.
DOWNLINK = "downlink"
UPLINK = "uplink"
DIRECTIONS = (DOWNLINK, UPLINK)


def airtime_key(node) -> int:
    """The deterministic tie-breaking key for ``node``'s transmissions.

    Mobiles built by the scenario builder carry their population index
    as ``node.airtime_key``; hand-built worlds fall back to a CRC-32 of
    the node name (stable across processes, unlike ``hash()``).
    """
    key = getattr(node, "airtime_key", None)
    if key is not None:
        return int(key)
    return zlib.crc32(node.name.encode("utf-8"))


class _Airtime:
    """One transmission queued for (or holding) a direction's airtime."""

    __slots__ = ("link", "packet")

    def __init__(self, link: "Link", packet: "Packet") -> None:
        #: ``None`` once a claim detach cancelled this transmission; the
        #: arbiter skips it when it surfaces (lazy heap deletion).
        self.link: Optional["Link"] = link
        self.packet = packet


class ChannelStats:
    """Per-channel airtime counters, split by direction."""

    __slots__ = ("submitted", "granted", "busy_seconds")

    def __init__(self) -> None:
        #: direction -> packets handed to the arbiter.
        self.submitted = {DOWNLINK: 0, UPLINK: 0}
        #: direction -> packets granted airtime.
        self.granted = {DOWNLINK: 0, UPLINK: 0}
        #: direction -> total airtime seconds granted so far.
        self.busy_seconds = {DOWNLINK: 0.0, UPLINK: 0.0}


class SharedChannel:
    """The shared air interface of one cell.

    Parameters
    ----------
    sim:
        The owning simulator (channels are per-world, like links).
    name:
        Diagnostic name, conventionally ``air-<cell name>``.
    downlink_bps / uplink_bps:
        Aggregate over-the-air budgets in bits per second.  Every radio
        link attached to the cell's base station serializes through
        these two single-server FIFO queues instead of its private
        ``bandwidth``.
    admission_factor:
        ``None`` (default) admits everyone — the historical
        never-reject behavior.  A positive number enables admission
        control: :meth:`admit` rejects a newcomer whose declared
        demand would push the sum of claimed demands past
        ``admission_factor * downlink_bps``.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        downlink_bps: float,
        uplink_bps: float,
        admission_factor: Optional[float] = None,
    ) -> None:
        for label, value in (
            ("downlink_bps", downlink_bps), ("uplink_bps", uplink_bps)
        ):
            if not value > 0:  # also rejects nan
                raise ValueError(f"{label} must be positive, got {value}")
        if admission_factor is not None and not admission_factor > 0:
            raise ValueError(
                f"admission_factor must be positive, got {admission_factor}"
            )
        self.sim = sim
        self.name = name
        self.rates = {DOWNLINK: float(downlink_bps), UPLINK: float(uplink_bps)}
        self.admission_factor = (
            float(admission_factor) if admission_factor is not None else None
        )
        # The arbiter, per direction: a heap of waiting transmissions
        # ordered ``(time, key, seq)``, whether one is on the air, and
        # whether this instant's zero-delay arbitration is already
        # scheduled.
        self._heaps: dict[str, list[tuple]] = {DOWNLINK: [], UPLINK: []}
        self._busy = {DOWNLINK: False, UPLINK: False}
        self._arbitrating = {DOWNLINK: False, UPLINK: False}
        self._seq = count()
        #: direction -> transmissions currently waiting for airtime.
        self.queued = {DOWNLINK: 0, UPLINK: 0}
        #: Mobile keys currently holding an airtime claim here.
        self.attached: set[int] = set()
        #: key -> declared bandwidth demand (bit/s) of each claim; the
        #: admission bookkeeping.
        self.claims: dict[int, float] = {}
        #: Analytic background claims (bit/s) from the hybrid fluid
        #: layer (:mod:`repro.fluid`), per direction.  Zero by default
        #: — the legacy-identical state.
        self.background = {DOWNLINK: 0.0, UPLINK: 0.0}
        #: Residual budgets the discrete foreground serializes against
        #: (``rate - background``); kept in lockstep by
        #: :meth:`set_background` so :meth:`airtime` stays one lookup.
        self._effective = dict(self.rates)
        self.stats = ChannelStats()

    def __repr__(self) -> str:
        return (
            f"<SharedChannel {self.name} "
            f"down={self.rates[DOWNLINK]/1e6:g}Mbps "
            f"up={self.rates[UPLINK]/1e6:g}Mbps "
            f"attached={len(self.attached)}>"
        )

    # ------------------------------------------------------------------
    # Airtime claims (the per-mobile attachment, migrated on handoff)
    # ------------------------------------------------------------------
    def attach(self, key: int, demand: float = 0.0) -> None:
        """Register mobile ``key``'s airtime claim on this channel.

        Called by the base station when it creates the radio link pair;
        during make-before-break / semisoft handoff a mobile briefly
        holds claims on both the old and the new cell.  ``demand`` is
        the claim's declared bandwidth demand (bit/s), which admission
        control counts.
        Idempotent (a re-attach keeps the existing claim).
        """
        if key not in self.attached:
            self.attached.add(key)
            self.claims[key] = float(demand)

    def admit(self, key: int, demand: float) -> bool:
        """Would this channel accept a claim of ``demand`` bit/s?

        Pure capacity check — no state changes.  Always ``True`` with
        admission control off (``admission_factor=None``).  Otherwise
        ``key`` is admitted only while the other claims' committed
        demand plus its own stays within ``admission_factor * downlink
        budget`` (the §3.2 "resources of BS" factor).  The asker's own
        claim is excluded from the committed sum because a handing-off
        mobile attaches a signalling claim here *before* asking — the
        check evaluates the cell as if that claim were replaced by
        ``demand``.
        """
        if self.admission_factor is None:
            return True
        committed = sum(d for k, d in self.claims.items() if k != key)
        # The fluid layer's background claim counts as committed load:
        # a cell carrying 100k analytic mobiles has that much less
        # headroom for discrete newcomers.  Zero in non-hybrid runs.
        committed += self.background[DOWNLINK]
        budget = self.admission_factor * self.rates[DOWNLINK]
        return committed + float(demand) <= budget

    def detach(self, key: int) -> None:
        """Drop mobile ``key``'s claim and cancel its queued airtime.

        The old base station calls this when the radio link is torn
        down after handoff: any transmission of the departed mobile
        still *waiting* for airtime is cancelled (an air-interface
        loss), while a transmission already being serialized completes
        — exactly like a packet in flight on a legacy link.  Idempotent.
        """
        self.attached.discard(key)
        self.claims.pop(key, None)
        for direction in DIRECTIONS:
            for item in self._heaps[direction]:
                entry = item[-1]
                link = entry.link
                if link is not None and link.channel_key == key:
                    link.channel_drop(entry.packet)
                    entry.link = None  # cancelled; skipped when it surfaces
                    self.queued[direction] -= 1

    # ------------------------------------------------------------------
    # Transmission (called by Link.transmit for channel-gated links)
    # ------------------------------------------------------------------
    def set_background(
        self, direction: str, bps: float, max_fraction: float = 0.95
    ) -> float:
        """Set the analytic background claim for ``direction``.

        The hybrid fluid layer calls this each refresh: ``bps`` of the
        direction's budget is considered spoken for by untracked
        background mobiles, so discrete transmissions serialize at the
        *residual* rate and admission control counts the claim as
        committed demand.  The claim is clamped to ``max_fraction`` of
        the budget (the foreground must keep some airtime) and the
        applied value is returned.  ``set_background(d, 0.0)`` restores
        the legacy budget exactly.
        """
        if direction not in self.rates:
            raise ValueError(f"unknown direction {direction!r}")
        rate = self.rates[direction]
        applied = min(max(0.0, float(bps)), max_fraction * rate)
        self.background[direction] = applied
        self._effective[direction] = rate - applied
        return applied

    def airtime(self, direction: str, packet: "Packet") -> float:
        """Seconds of airtime ``packet`` occupies in ``direction``.

        Hybrid runs serialize against the residual budget
        (``rate - background``); with no background claim this is the
        full budget, bit-identical to the pre-fluid formula.
        """
        return packet.size * 8.0 / self._effective[direction]

    def submit(self, link: "Link", packet: "Packet") -> None:
        """Queue ``packet`` from ``link`` for airtime.

        The link has already accepted the packet (queue-limit and
        up/down checks are the link's); the channel grants airtime FIFO
        with the (time, key) tie-break and calls back into the link to
        schedule propagation once serialization finishes.
        """
        direction = link.channel_direction
        self.stats.submitted[direction] += 1
        self.queued[direction] += 1
        heappush(
            self._heaps[direction],
            (self.sim.now, link.channel_key, next(self._seq), _Airtime(link, packet)),
        )
        if not self._busy[direction]:
            self._schedule_arbitration(direction)

    # Every grant is made in a zero-delay arbitration callback, so all
    # transmissions submitted at one simulation instant (before that
    # callback fires) reach the heap first and the (time, key) order
    # applies both when the channel is idle and when it frees up
    # mid-instant.  It is scheduled only where a grant can follow: by a
    # submit onto an idle direction and by a finish that leaves someone
    # waiting.  Two kernel entries per packet: arbitrate -> finish.
    def _schedule_arbitration(self, direction: str) -> None:
        if not self._arbitrating[direction]:
            self._arbitrating[direction] = True
            self.sim.call_later(0.0, self._arbitrate, direction)

    def _arbitrate(self, direction: str) -> None:
        """Grant the direction's airtime to the first live waiter."""
        self._arbitrating[direction] = False
        heap = self._heaps[direction]
        while heap:
            entry = heappop(heap)[-1]
            if entry.link is None:
                continue  # cancelled by detach
            # Start serializing: hold the direction for the airtime.
            self._busy[direction] = True
            self.queued[direction] -= 1
            seconds = self.airtime(direction, entry.packet)
            self.stats.granted[direction] += 1
            self.stats.busy_seconds[direction] += seconds
            self.sim.call_later(seconds, self._finish, direction, entry)
            return

    def _finish(self, direction: str, entry: _Airtime) -> None:
        """Serialization done: free the direction, start propagation."""
        self._busy[direction] = False
        if self.queued[direction]:
            self._schedule_arbitration(direction)
        entry.link.channel_serialized(entry.packet)


def radio_attach(
    station: "Node",
    mobile: "Node",
    bandwidth: float,
    delay: float,
    demand: float = 0.0,
) -> None:
    """Create the ``station``/``mobile`` radio link pair.

    The one place the attach rule lives: with ``station.shared_channel``
    set the pair is gated on it (``station -> mobile`` consumes the
    downlink budget, the reverse the uplink budget) and the mobile's
    airtime claim of ``demand`` bit/s is attached as the links are
    created; with ``None`` the pair is a legacy unconstrained link.
    """
    channel = station.shared_channel
    key = airtime_key(mobile)
    connect(
        station.sim,
        station,
        mobile,
        bandwidth=bandwidth,
        delay=delay,
        shared_channel=channel,
        channel_key=key,
    )
    if channel is not None:
        channel.attach(key, demand)


def radio_detach(station: "Node", mobile: "Node") -> None:
    """Tear the radio link pair down, migrating the airtime claim away.

    The claim is detached — cancelling any airtime the departed mobile
    still had queued on the cell's channel (air-interface losses) —
    only if the radio link still exists; a no-op in legacy mode.
    """
    channel = station.shared_channel
    if channel is not None and station.link_to(mobile) is not None:
        channel.detach(airtime_key(mobile))
    station.detach_link(mobile)
    mobile.detach_link(station)


#: Uplink budget as a fraction of an overridden downlink budget.
UPLINK_FRACTION = 0.5


@dataclass(frozen=True)
class ChannelPlan:
    """Per-tier air-interface budgets: the knob scenarios sweep.

    ``None`` for a tier means "use the cell's own (tier-default)
    budgets" from :data:`repro.radio.cells.TIER_DEFAULTS`; a number
    overrides the *downlink* budget for every cell of that tier, with
    the uplink budget derived as ``downlink * UPLINK_FRACTION``.
    ``admission_factor`` is handed to every channel the plan builds
    (see :class:`SharedChannel`); its default keeps the historical
    admit-everyone behavior.

    A plan only exists when contention is enabled at all —
    ``MultiTierWorld(channel_plan=None)`` (the default) builds legacy
    unconstrained radio links.  Deterministic: pure data.
    """

    macro_bandwidth: Optional[float] = None
    micro_bandwidth: Optional[float] = None
    pico_bandwidth: Optional[float] = None
    admission_factor: Optional[float] = None

    def __post_init__(self) -> None:
        for label in (
            "macro_bandwidth", "micro_bandwidth", "pico_bandwidth", "admission_factor"
        ):
            value = getattr(self, label)
            if value is not None and not value > 0:  # also rejects nan
                raise ValueError(f"{label} must be positive, got {value}")

    def budgets(self, cell: Cell) -> tuple[float, float]:
        """The ``(downlink, uplink)`` bits/s budgets for ``cell``."""
        override = {
            Tier.MACRO: self.macro_bandwidth,
            Tier.MICRO: self.micro_bandwidth,
            Tier.PICO: self.pico_bandwidth,
        }[cell.tier]
        if override is not None:
            return float(override), float(override) * UPLINK_FRACTION
        return cell.channel_downlink, cell.channel_uplink

    def channel_for(self, sim: "Simulator", cell: Cell) -> SharedChannel:
        """Build ``cell``'s :class:`SharedChannel` under this plan."""
        downlink, uplink = self.budgets(cell)
        return SharedChannel(
            sim,
            f"air-{cell.name}",
            downlink,
            uplink,
            admission_factor=self.admission_factor,
        )


__all__ = [
    "DIRECTIONS",
    "DOWNLINK",
    "UPLINK",
    "ChannelPlan",
    "ChannelStats",
    "SharedChannel",
    "airtime_key",
    "radio_attach",
    "radio_detach",
]
