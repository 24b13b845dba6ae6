"""Flow sinks: per-flow QoS measurement at the receiver.

A :class:`FlowSink` is attached to a receiving node's data hook and
computes loss, delay, jitter (RFC 3550 interarrival jitter) and
throughput, plus the largest delivery gap (handoff interruption time).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.net.packet import Packet


class FlowSink:
    """Collects receive-side statistics for one flow id."""

    def __init__(self, flow_id: Optional[str] = None) -> None:
        self.flow_id = flow_id
        self.received = 0
        self.bytes_received = 0
        self.duplicates = 0
        self.out_of_order = 0
        self.delays: list[float] = []
        self.arrival_times: list[float] = []
        self._seen: set[int] = set()
        self._highest_seq = -1
        self._jitter = 0.0
        self._last_transit: Optional[float] = None

    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet, now: float) -> None:
        """Feed one received packet (call from the node's data hook)."""
        if self.flow_id is not None and packet.flow_id != self.flow_id:
            return
        if packet.seq in self._seen:
            self.duplicates += 1
            return
        self._seen.add(packet.seq)
        self.received += 1
        self.bytes_received += packet.size
        if packet.seq < self._highest_seq:
            self.out_of_order += 1
        self._highest_seq = max(self._highest_seq, packet.seq)
        transit = now - packet.created_at
        self.delays.append(transit)
        self.arrival_times.append(now)
        if self._last_transit is not None:
            # RFC 3550 §6.4.1 interarrival jitter estimator.
            deviation = abs(transit - self._last_transit)
            self._jitter += (deviation - self._jitter) / 16.0
        self._last_transit = transit

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

    def p95_delay(self) -> float:
        return float(np.percentile(self.delays, 95)) if self.delays else float("nan")

    def jitter(self) -> float:
        return self._jitter

    def throughput_bps(self) -> float:
        if len(self.arrival_times) < 2:
            return 0.0
        span = self.arrival_times[-1] - self.arrival_times[0]
        if span <= 0:
            return 0.0
        return self.bytes_received * 8.0 / span

    def max_gap(self) -> float:
        """Largest silence between consecutive deliveries — the
        observable service interruption during a handoff."""
        if len(self.arrival_times) < 2:
            return 0.0
        arrivals = np.asarray(self.arrival_times)
        return float(np.max(np.diff(arrivals)))

    def missing_sequences(self, sent: int) -> list[int]:
        return [seq for seq in range(sent) if seq not in self._seen]

    def summary(self, sent: Optional[int] = None) -> dict[str, float]:
        result = {
            "received": float(self.received),
            "mean_delay": self.mean_delay(),
            "p95_delay": self.p95_delay(),
            "jitter": self.jitter(),
            "throughput_bps": self.throughput_bps(),
            "max_gap": self.max_gap(),
            "duplicates": float(self.duplicates),
            "out_of_order": float(self.out_of_order),
        }
        if sent is not None:
            result["sent"] = float(sent)
            result["loss_rate"] = self.loss_rate(sent)
        return result
