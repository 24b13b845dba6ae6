"""Flow sinks: per-flow QoS measurement at the receiver.

A :class:`FlowSink` is attached to a receiving node's data hook and
computes loss, delay and jitter (RFC 3550 interarrival jitter), plus
the largest delivery gap (handoff interruption time).
"""

from __future__ import annotations

from array import array
from typing import Optional

import numpy as np

from repro.net.packet import Packet


class FlowSink:
    """Collects receive-side statistics for one flow id.

    Per delivered packet it keeps about 9 bytes: the delay as a float64 in
    ``delays`` and one byte of the ``seq``-indexed seen-map.  Arrivals
    are kept only as what the metrics read: the last arrival and the
    largest gap between consecutive arrivals so far.
    """

    def __init__(self, flow_id: Optional[str] = None) -> None:
        self.flow_id = flow_id
        self.received = 0
        self.bytes_received = 0
        self.duplicates = 0
        #: One-way delay of each first delivery, in arrival order.
        self.delays = array("d")
        #: ``_seen[seq]`` is 1 once ``seq`` was delivered.  Sources number
        #: their packets densely from 0, so the map is as long as the flow.
        self._seen = bytearray()
        self._jitter = 0.0
        self._last_transit: Optional[float] = None
        self._last_arrival = 0.0
        self._max_gap = float("-inf")

    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet, now: float) -> None:
        """Feed one received packet (call from the node's data hook)."""
        if self.flow_id is not None and packet.flow_id != self.flow_id:
            return
        seq = packet.seq
        seen = self._seen
        unseen = seq - len(seen)
        if unseen >= 0:  # beyond the map: in order, or after a gap
            if unseen:
                seen.extend(bytes(unseen))
            seen.append(1)
        elif seq < 0:  # would index the map from its tail
            raise ValueError(f"seq must be non-negative, got {seq}")
        elif seen[seq]:
            self.duplicates += 1
            return
        else:
            seen[seq] = 1
        self.received += 1
        self.bytes_received += packet.size
        transit = now - packet.created_at
        self.delays.append(transit)
        if self._last_transit is not None:
            # RFC 3550 §6.4.1 interarrival jitter estimator.
            deviation = abs(transit - self._last_transit)
            self._jitter += (deviation - self._jitter) / 16.0
            gap = now - self._last_arrival
            if gap > self._max_gap:
                self._max_gap = gap
        self._last_transit = transit
        self._last_arrival = now

    def bind(self, sim) -> "callable":
        """A hook suitable for ``node.on_data.append``."""
        on_packet = self.on_packet

        def hook(packet: Packet) -> None:
            on_packet(packet, sim.now)

        return hook

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def loss_rate(self, sent: int) -> float:
        """Fraction of ``sent`` packets never delivered."""
        if sent <= 0:
            return 0.0
        return max(0.0, 1.0 - self.received / sent)

    def lost(self, sent: int) -> int:
        return max(0, sent - self.received)

    def mean_delay(self) -> float:
        return float(np.mean(self.delays)) if self.delays else float("nan")

    def jitter(self) -> float:
        return self._jitter

    def max_gap(self) -> float:
        """Largest silence between consecutive deliveries — the
        observable service interruption during a handoff."""
        if self.received < 2:
            return 0.0
        return self._max_gap

