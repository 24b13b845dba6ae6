"""The packet model.

A :class:`Packet` is an immutable-ish record of addressing, size and an
arbitrary payload.  Control-plane messages (registration requests,
route updates, location messages, ...) travel as payloads of packets
with a ``protocol`` tag, so the control plane pays the same queueing,
propagation and loss costs as the data plane — essential for honest
handoff-latency measurements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.net.addressing import IPAddress

_next_packet_id = itertools.count(1).__next__

#: Size in bytes of an IPv4 header, used for tunnelling overhead.
IP_HEADER_BYTES = 20


@dataclass(init=False, slots=True)
class Packet:
    """One IP datagram (or an encapsulated datagram).

    Slotted: packets are the highest-churn object in any traffic-bearing
    run (every hop holds one in its queue tuple), so they carry no
    per-instance ``__dict__``, and the constructor is written out (a
    generated one, with its post-init hook, costs twice as much).
    """

    src: IPAddress
    dst: IPAddress
    size: int
    protocol: str = "data"
    payload: object = None
    flow_id: Optional[str] = None
    seq: int = 0
    created_at: float = 0.0
    ttl: int = 64
    uid: int = field(default_factory=_next_packet_id)
    #: Set by semisoft handoff when a copy is sent down two paths.
    duplicate_of: Optional[int] = None
    #: Set on paging-broadcast copies so they are not re-flooded.
    paged: bool = False

    def __init__(
        self,
        src,
        dst,
        size: int,
        protocol: str = "data",
        payload: object = None,
        flow_id: Optional[str] = None,
        seq: int = 0,
        created_at: float = 0.0,
        ttl: int = 64,
        uid: Optional[int] = None,
        duplicate_of: Optional[int] = None,
        paged: bool = False,
    ) -> None:
        self.uid = _next_packet_id() if uid is None else uid
        # Coerce only when needed: copies and forwarded packets already
        # carry IPAddress instances, and re-wrapping them per packet is
        # measurable at scale.
        self.src = src if type(src) is IPAddress else IPAddress(src)
        self.dst = dst if type(dst) is IPAddress else IPAddress(dst)
        if not size > 0:  # also rejects nan
            raise ValueError(f"packet size must be positive, got {size}")
        self.size = size
        self.protocol = protocol
        self.payload = payload
        self.flow_id = flow_id
        self.seq = seq
        self.created_at = created_at
        self.ttl = ttl
        self.duplicate_of = duplicate_of
        self.paged = paged

    def copy(self, **overrides) -> "Packet":
        """A fresh packet: a new uid, this packet's addressing, size,
        protocol, payload, flow, seq, timestamp and ttl, then overrides.

        ``duplicate_of`` and ``paged`` mark one particular copy, so they
        are *not* carried over: a copy has the defaults (``None`` /
        ``False``) unless an override sets them."""
        marks = {"uid": None, "duplicate_of": None, "paged": False}
        return replace(self, **{**marks, **overrides})

    def __repr__(self) -> str:
        return (
            f"<Packet #{self.uid} {self.protocol} {self.src}->{self.dst} "
            f"{self.size}B seq={self.seq}>"
        )


def encapsulate(inner: Packet, src: IPAddress, dst: IPAddress) -> Packet:
    """IP-in-IP encapsulation as used by Mobile IP HA->FA tunnels.

    The outer datagram carries the whole inner datagram as payload and
    adds one IP header of overhead (RFC 2003 behaviour).
    """
    return Packet(
        src, dst, inner.size + IP_HEADER_BYTES, "ipip", inner,
        inner.flow_id, inner.seq, inner.created_at,
    )


def decapsulate(outer: Packet) -> Packet:
    """Strip one layer of IP-in-IP encapsulation."""
    if outer.protocol != "ipip" or not isinstance(outer.payload, Packet):
        raise ValueError(f"{outer!r} is not an IP-in-IP packet")
    return outer.payload
