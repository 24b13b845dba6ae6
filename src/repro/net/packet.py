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
from dataclasses import dataclass, field
from typing import Optional

from repro.net.addressing import IPAddress

_packet_ids = itertools.count(1)

#: Size in bytes of an IPv4 header, used for tunnelling overhead.
IP_HEADER_BYTES = 20


@dataclass(slots=True)
class Packet:
    """One IP datagram (or an encapsulated datagram).

    Slotted: packets are the highest-churn object in any traffic-bearing
    run (every hop holds one in its queue tuple), so they carry no
    per-instance ``__dict__``.
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
    uid: int = field(default_factory=_packet_ids.__next__)
    #: Set by semisoft handoff when a copy is sent down two paths.
    duplicate_of: Optional[int] = None
    #: Set on paging-broadcast copies so they are not re-flooded.
    paged: bool = False

    def __post_init__(self) -> None:
        # Coerce only when needed: copies and forwarded packets already
        # carry IPAddress instances, and re-wrapping them per packet is
        # measurable at scale.
        if type(self.src) is not IPAddress:
            self.src = IPAddress(self.src)
        if type(self.dst) is not IPAddress:
            self.dst = IPAddress(self.dst)
        if self.size <= 0:
            raise ValueError(f"packet size must be positive, got {self.size}")

    def copy(self, **overrides) -> "Packet":
        """A fresh packet with the same fields, a new uid, and overrides."""
        fields = {
            "src": self.src,
            "dst": self.dst,
            "size": self.size,
            "protocol": self.protocol,
            "payload": self.payload,
            "flow_id": self.flow_id,
            "seq": self.seq,
            "created_at": self.created_at,
            "ttl": self.ttl,
        }
        fields.update(overrides)
        return Packet(**fields)

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
        src=src,
        dst=dst,
        size=inner.size + IP_HEADER_BYTES,
        protocol="ipip",
        payload=inner,
        flow_id=inner.flow_id,
        seq=inner.seq,
        created_at=inner.created_at,
        ttl=64,
    )


def decapsulate(outer: Packet) -> Packet:
    """Strip one layer of IP-in-IP encapsulation."""
    if outer.protocol != "ipip" or not isinstance(outer.payload, Packet):
        raise ValueError(f"{outer!r} is not an IP-in-IP packet")
    return outer.payload
