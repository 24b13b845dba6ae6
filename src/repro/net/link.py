"""Point-to-point links with bandwidth, propagation delay and a finite
drop-tail queue.

A link is unidirectional; :func:`connect` wires a bidirectional pair.
The implementation is callback-based (no per-link process): each link
tracks when its transmitter frees up and schedules packet arrival
directly, which keeps large topologies cheap to simulate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node
    from repro.net.packet import Packet
    from repro.sim.kernel import Simulator


#: Every cause a packet is discarded under (see :func:`drop_totals`),
#: in the order of where it is booked: links, routers and the
#: multi-tier bounce, Cellular IP stations, multi-tier stations and
#: the RSMC, the RSMC handoff buffer, the Mobile IP agents.
DROP_CAUSES = (
    "queue-full", "link-down", "in-flight-down", "link-loss", "air-cancelled",
    "ttl-expired", "no-route", "no-mapping", "stale-mapping", "no-record",
    "stale-radio", "buffer-full", "buffer-abandoned", "buffer-unroutable",
    "no-binding", "unknown-visitor",
)


def _books(sim: "Simulator") -> tuple[dict[str, int], dict[str, int]]:
    """The (lazily created) hop tally and drop ledger of ``sim``.

    ``{protocol: delivered hops}`` and ``{cause: discarded packets}``,
    one pair per simulator, bumped by every link and node under it, so
    whole-network accounting (e.g. the T1 signalling table) covers radio
    links torn down during a handoff without keeping those links alive.
    Stored on the simulator itself: worlds run back-to-back (or
    concurrently on a parallel backend) never share books, and they
    live exactly as long as their world.
    """
    books = getattr(sim, "_net_books", None)
    if books is None:
        books = sim._net_books = ({}, {})
    return books


def protocol_hop_totals(sim: "Simulator") -> dict[str, int]:
    """Per-protocol delivered-hop totals over every link under ``sim``."""
    return dict(_books(sim)[0])


def book_drop(sim: "Simulator", cause: str, count: int = 1) -> None:
    """Book ``count`` packets discarded under ``cause`` (one of
    :data:`DROP_CAUSES`) in ``sim``'s drop ledger."""
    ledger = _books(sim)[1]
    ledger[cause] = ledger.get(cause, 0) + count


def drop_totals(sim: "Simulator") -> dict[str, int]:
    """Discarded packets by cause over every node and link under ``sim``."""
    return dict(_books(sim)[1])


class Link:
    """A unidirectional link from ``head`` to ``tail``.

    Every delivered hop is counted in its simulator's hop tally (see
    :func:`protocol_hop_totals`), every discarded packet in its drop
    ledger (see :func:`drop_totals`), and no registry holds links: once
    its nodes have detached it, a link is freed as soon as its last
    in-flight packet lands.

    Parameters
    ----------
    bandwidth:
        Transmission rate in bits per second.
    delay:
        Propagation delay in seconds.
    queue_limit:
        Maximum packets queued or in serialization before tail-drop.
    loss_rate:
        Independent per-packet corruption probability (0 for wired links).
    shared_channel:
        Optional :class:`~repro.radio.channel.SharedChannel` gating this
        link's serialization: instead of the private ``bandwidth``
        transmitter, accepted packets queue for airtime on the cell's
        shared per-direction budget (FIFO, mobile-index tie-break).
        ``None`` (the default) keeps the legacy per-link transmitter,
        byte-identical to pre-channel behaviour.
    channel_direction:
        ``"downlink"`` or ``"uplink"``: which budget of the shared
        channel this link's transmissions consume.  Ignored without a
        channel.
    channel_key:
        Deterministic arbitration tie-break key (the mobile's
        population index).  Ignored without a channel.
    """

    def __init__(
        self,
        sim: "Simulator",
        head: "Node",
        tail: "Node",
        bandwidth: float = 100e6,
        delay: float = 0.001,
        queue_limit: int = 100,
        loss_rate: float = 0.0,
        name: Optional[str] = None,
        shared_channel=None,
        channel_direction: str = "downlink",
        channel_key: int = 0,
    ) -> None:
        # Written so that nan fails too, as loss_rate's chained test does.
        if not bandwidth > 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if not delay >= 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        if not queue_limit >= 1:
            raise ValueError(f"queue_limit must be at least 1, got {queue_limit}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if channel_direction not in ("downlink", "uplink"):
            raise ValueError(
                f"channel_direction must be 'downlink' or 'uplink', "
                f"got {channel_direction!r}"
            )
        self.sim = sim
        self.head = head
        self.tail = tail
        self.bandwidth = bandwidth
        self.delay = delay
        self.queue_limit = queue_limit
        self.loss_rate = loss_rate
        self.name = name or f"{head.name}->{tail.name}"
        self.shared_channel = shared_channel
        self.channel_direction = channel_direction
        self.channel_key = int(channel_key)
        self._busy_until = 0.0
        self._in_flight = 0
        self._loss_draw = None  # lazily bound RNG for lossy links
        self._hops, self._drops = _books(sim)
        #: The plain function, with the link passed in the entry's args:
        #: a bound method stored here would be a self-cycle, which only
        #: the cyclic collector (off during a run) could free.
        self._arrival = type(self)._deliver
        self.up = True

    def __repr__(self) -> str:
        return f"<Link {self.name} {self.bandwidth/1e6:g}Mbps {self.delay*1e3:g}ms>"

    @property
    def queue_depth(self) -> int:
        """Packets currently queued or being serialized."""
        return self._in_flight

    def transmit(self, packet: "Packet") -> bool:
        """Enqueue ``packet`` for transmission.

        Returns False if the packet was refused (``queue-full`` or
        ``link-down``); True if it was accepted (it may still be lost in
        flight).
        """
        if not self.up or self._in_flight >= self.queue_limit:
            cause = "queue-full" if self.up else "link-down"
            drops = self._drops
            drops[cause] = drops.get(cause, 0) + 1
            return False
        self._in_flight += 1

        if self.shared_channel is not None:
            # Contention mode: the cell's shared airtime arbiter owns
            # serialization; it calls channel_serialized()/channel_drop()
            # back on this link.  Per-link queue accounting is unchanged.
            self.shared_channel.submit(self, packet)
            return True

        # max() inlined: this runs once per hop.
        sim = self.sim
        now = sim.now
        start = self._busy_until
        if start < now:
            start = now
        self._busy_until = finish = start + packet.size * 8.0 / self.bandwidth
        sim.call_later((finish + self.delay) - now, self._arrival, self, packet)
        return True

    # ------------------------------------------------------------------
    # Shared-channel callbacks (contention mode only)
    # ------------------------------------------------------------------
    def channel_serialized(self, packet: "Packet") -> None:
        """Airtime finished: start propagation toward the tail node."""
        self.sim.call_later(self.delay, self._arrival, self, packet)

    def channel_drop(self, packet: "Packet") -> None:
        """The channel cancelled a queued packet (claim detached).

        Booked as ``air-cancelled``: the radio is gone, like a legacy
        link going down mid-delivery (``in-flight-down``).
        """
        self._in_flight -= 1
        drops = self._drops
        drops["air-cancelled"] = drops.get("air-cancelled", 0) + 1

    def _deliver(self, packet: "Packet") -> None:
        self._in_flight -= 1
        if self.up and not (self.loss_rate > 0.0 and self._random_loss()):
            hops = self._hops
            hops[packet.protocol] = hops.get(packet.protocol, 0) + 1
            self.tail.receive(packet, self)
            return
        cause = "link-loss" if self.up else "in-flight-down"
        drops = self._drops
        drops[cause] = drops.get(cause, 0) + 1

    def _random_loss(self) -> bool:
        if self._loss_draw is None:
            import random
            import zlib

            # crc32, not hash(): str hashes are salted per process and
            # would make loss patterns unreproducible across runs.
            seed = zlib.crc32(self.name.encode("utf-8"))
            self._loss_draw = random.Random(seed).random
        return self._loss_draw() < self.loss_rate


def connect(
    sim: "Simulator",
    a: "Node",
    b: "Node",
    bandwidth: float = 100e6,
    delay: float = 0.001,
    queue_limit: int = 100,
    loss_rate: float = 0.0,
    shared_channel=None,
    channel_key: int = 0,
) -> tuple[Link, Link]:
    """Create a bidirectional connection: two mirrored links.

    Registers each direction with the endpoint nodes so routing can find
    the outgoing link by neighbor.  When ``shared_channel`` is given,
    ``a`` must be the base-station side: the ``a -> b`` link consumes
    the channel's downlink budget and ``b -> a`` the uplink budget,
    both tie-broken by ``channel_key`` (the mobile's index).
    """
    forward = Link(
        sim, a, b, bandwidth, delay, queue_limit, loss_rate,
        shared_channel=shared_channel,
        channel_direction="downlink",
        channel_key=channel_key,
    )
    backward = Link(
        sim, b, a, bandwidth, delay, queue_limit, loss_rate,
        shared_channel=shared_channel,
        channel_direction="uplink",
        channel_key=channel_key,
    )
    a.attach_link(forward)
    b.attach_link(backward)
    return forward, backward
