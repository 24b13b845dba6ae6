"""Traffic sources for the multimedia workloads the paper motivates.

Each source is a process that emits packets through a ``send``
callable (``send(packet) -> bool``); the caller decides whether that
means a CN streaming downlink or a mobile talking uplink.  Sources
stamp ``flow_id``/``seq`` so sinks can compute loss and reordering.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.net.addressing import IPAddress
from repro.net.packet import Packet
from repro.sim.rng import standard_exponentials, standard_normals

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

SendFn = Callable[[Packet], bool]
_flow_ids = itertools.count(1)

#: Size of the bare ack packets elastic sinks send uplink.
ACK_BYTES = 40


def make_ack_hook(sim, reply: Callable[[Packet], object], flow_id=None):
    """An on-data hook that acks each received data packet via ``reply``.

    The canonical receiver-side wiring for :class:`ElasticSource`: the
    ack echoes the data packet's seq as its payload and travels the real
    uplink (``reply`` is typically ``node.originate``), so feedback pays
    the same path costs as data.  With ``flow_id`` set, packets of other
    flows are ignored — required when several elastic flows share one
    receiving node's hook list.
    """

    def hook(packet: Packet) -> None:
        if flow_id is not None and packet.flow_id != flow_id:
            return
        reply(
            Packet(  # positional, in field order; the payload echoes seq
                packet.dst, packet.src, ACK_BYTES, "ack", packet.seq,
                packet.flow_id, packet.seq, sim.now,
            )
        )

    return hook


class TrafficSource:
    """Base class: sequence numbering and bookkeeping."""

    def __init__(
        self,
        sim: "Simulator",
        send: SendFn,
        src: IPAddress,
        dst: IPAddress,
        flow_id: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self._send = send
        self.src = IPAddress(src)
        self.dst = IPAddress(dst)
        self.flow_id = flow_id or f"flow-{next(_flow_ids)}"
        self.packets_sent = 0
        self.bytes_sent = 0
        self._sequence = itertools.count()
        self.process = None

    def start(self) -> "TrafficSource":
        self.process = self.sim.process(self._run(), name=f"src-{self.flow_id}")
        return self

    def _emit(self, size: int) -> bool:
        packet = Packet(  # positional, in field order: no payload
            self.src, self.dst, size, "data", None,
            self.flow_id, next(self._sequence), self.sim.now,
        )
        accepted = self._send(packet)
        if accepted is not False:
            self.packets_sent += 1
            self.bytes_sent += size
        return accepted

    def _run(self):  # pragma: no cover - abstract
        raise NotImplementedError
        yield


class CBRSource(TrafficSource):
    """Constant bit rate: fixed-size packets at a fixed interval.

    The canonical voice/video transport model; ``rate_bps`` and
    ``packet_size`` determine the interval.
    """

    def __init__(
        self,
        sim,
        send,
        src,
        dst,
        rate_bps: float = 64e3,
        packet_size: int = 200,
        duration: Optional[float] = None,
        flow_id: Optional[str] = None,
    ) -> None:
        super().__init__(sim, send, src, dst, flow_id)
        if not rate_bps > 0:  # nan fails too
            raise ValueError(f"rate_bps must be positive, got {rate_bps}")
        if not packet_size > 0:
            raise ValueError(f"packet_size must be positive, got {packet_size}")
        self.packet_size = packet_size
        self.interval = packet_size * 8.0 / rate_bps
        self.duration = duration

    def _run(self):
        stop_at = None if self.duration is None else self.sim.now + self.duration
        while stop_at is None or self.sim.now < stop_at:
            self._emit(self.packet_size)
            yield self.interval


class PoissonSource(TrafficSource):
    """Poisson packet arrivals (exponential gaps) — bursty data."""

    def __init__(
        self,
        sim,
        send,
        src,
        dst,
        rng: np.random.Generator,
        mean_rate_pps: float = 50.0,
        packet_size: int = 500,
        duration: Optional[float] = None,
        flow_id: Optional[str] = None,
    ) -> None:
        super().__init__(sim, send, src, dst, flow_id)
        if not mean_rate_pps > 0:  # nan fails too
            raise ValueError(f"mean_rate_pps must be positive, got {mean_rate_pps}")
        self._exponential = standard_exponentials(rng).__next__
        self.mean_gap = 1.0 / mean_rate_pps
        self.packet_size = packet_size
        self.duration = duration

    def _run(self):
        stop_at = None if self.duration is None else self.sim.now + self.duration
        while stop_at is None or self.sim.now < stop_at:
            yield self.mean_gap * self._exponential()  # numpy's exponential(mean_gap)
            self._emit(self.packet_size)


class OnOffSource(TrafficSource):
    """Exponential on/off voice model: CBR talkspurts, silent gaps."""

    def __init__(
        self,
        sim,
        send,
        src,
        dst,
        rng: np.random.Generator,
        rate_bps: float = 64e3,
        packet_size: int = 200,
        duration: Optional[float] = None,
        flow_id: Optional[str] = None,
    ) -> None:
        super().__init__(sim, send, src, dst, flow_id)
        # Written so that nan fails too.
        if not (rate_bps > 0 and packet_size > 0):
            raise ValueError(
                f"rate and packet size must be positive, got "
                f"rate_bps={rate_bps}, packet_size={packet_size}"
            )
        self._exponential = standard_exponentials(rng).__next__
        self.packet_size = packet_size
        self.interval = packet_size * 8.0 / rate_bps
        self.duration = duration

    def _run(self):
        stop_at = None if self.duration is None else self.sim.now + self.duration
        while stop_at is None or self.sim.now < stop_at:
            # ``mean * e`` is numpy's exponential(mean), bit for bit: a
            # talkspurt of mean 1 s, a silence of mean 1.35 s.
            burst_end = self.sim.now + 1.0 * self._exponential()
            while self.sim.now < burst_end:
                self._emit(self.packet_size)
                yield self.interval
            yield 1.35 * self._exponential()


class VBRVideoSource(TrafficSource):
    """Variable-bit-rate video: AR(1)-correlated frame sizes at a fixed
    frame rate, fragmented into MTU-sized packets.

    This approximates MPEG-style rate variation without codec detail;
    QoS behaviour depends on burstiness, which ``burstiness`` controls.
    """

    def __init__(
        self,
        sim,
        send,
        src,
        dst,
        rng: np.random.Generator,
        mean_rate_bps: float = 384e3,
        frame_rate: float = 25.0,
        burstiness: float = 0.5,
        correlation: float = 0.8,
        mtu: int = 1000,
        duration: Optional[float] = None,
        flow_id: Optional[str] = None,
    ) -> None:
        super().__init__(sim, send, src, dst, flow_id)
        if not 0.0 <= correlation < 1.0:
            raise ValueError("correlation must be in [0, 1)")
        if not burstiness >= 0:  # nan fails too
            raise ValueError(f"burstiness must be non-negative, got {burstiness}")
        if not mean_rate_bps > 0:
            raise ValueError(f"mean_rate_bps must be positive, got {mean_rate_bps}")
        if not frame_rate > 0:
            raise ValueError(f"frame_rate must be positive, got {frame_rate}")
        if not mtu > 0:
            raise ValueError(f"mtu must be positive, got {mtu}")
        self._normal = standard_normals(rng).__next__
        self.frame_interval = 1.0 / frame_rate
        self.mean_frame_bytes = mean_rate_bps / frame_rate / 8.0
        self.burstiness = burstiness
        self.correlation = correlation
        #: The AR(1) innovation's weight, sqrt(1 - rho^2): a float, so
        #: the state stays one.
        self._innovation = math.sqrt(1 - correlation * correlation)
        self.mtu = mtu
        self.duration = duration
        self._state = 0.0
        self.frames_sent = 0

    def _next_frame_bytes(self) -> int:
        noise = 0.0 + 1.0 * self._normal()  # numpy's normal(0.0, 1.0)
        self._state = self.correlation * self._state + self._innovation * noise
        factor = max(0.1, 1.0 + self.burstiness * self._state)
        return max(64, int(self.mean_frame_bytes * factor))

    def _run(self):
        stop_at = None if self.duration is None else self.sim.now + self.duration
        while stop_at is None or self.sim.now < stop_at:
            frame_bytes = self._next_frame_bytes()
            self.frames_sent += 1
            remaining = frame_bytes
            while remaining > 0:
                fragment = min(remaining, self.mtu)
                self._emit(fragment)
                remaining -= fragment
            yield self.frame_interval


class ElasticSource(TrafficSource):
    """A greedy AIMD source: a coarse TCP stand-in.

    Sends a window of packets, waits for sink feedback via
    :meth:`acknowledge`, grows additively on clean windows and halves
    on any loss.  Good enough to show handoff-loss -> throughput-dip
    dynamics without a full TCP implementation.
    """

    def __init__(
        self,
        sim,
        send,
        src,
        dst,
        packet_size: int = 1000,
        initial_window: int = 2,
        max_window: int = 64,
        feedback_timeout: float = 0.5,
        duration: Optional[float] = None,
        flow_id: Optional[str] = None,
    ) -> None:
        super().__init__(sim, send, src, dst, flow_id)
        if not (  # written so that nan fails too
            packet_size > 0
            and initial_window > 0
            and max_window >= 1
            and feedback_timeout > 0
        ):
            raise ValueError(
                f"packet size, windows and feedback timeout must be positive, got "
                f"packet_size={packet_size}, initial_window={initial_window}, "
                f"max_window={max_window}, feedback_timeout={feedback_timeout}"
            )
        self.packet_size = packet_size
        self.window = float(initial_window)
        self.max_window = max_window
        self.feedback_timeout = feedback_timeout
        self.duration = duration
        #: Unacked seqs of the window in flight; the event its last ack succeeds.
        self._awaited: set[int] = set()
        self._feedback = None
        self.windows_clean = 0
        self.windows_lossy = 0

    def acknowledge(self, seq: int) -> None:
        """Sink-side callback: mark ``seq`` received.

        Only the ack completing the window in flight wakes the source.
        """
        if seq in self._awaited:
            self._awaited.remove(seq)
            if not self._awaited and self._feedback is not None:
                self._feedback.succeed()

    def _run(self):
        stop_at = None if self.duration is None else self.sim.now + self.duration
        next_seq = 0
        while stop_at is None or self.sim.now < stop_at:
            burst = max(1, int(self.window))
            # Armed before the burst: a send may deliver its ack inline.
            awaited = self._awaited = set(range(next_seq, next_seq + burst))
            next_seq += burst
            for _ in range(burst):
                self._emit(self.packet_size)
            deadline = self.sim.timeout(self.feedback_timeout)
            if awaited:  # one wait per window: its last ack, or the deadline
                self._feedback = self.sim.event()
                yield self.sim.any_of([self._feedback, deadline])
                self._feedback = None
            if not awaited:
                self.window = min(self.window + 1.0, self.max_window)
                self.windows_clean += 1
            else:
                self.window = max(1.0, self.window / 2.0)
                self.windows_lossy += 1
            yield 0.01
