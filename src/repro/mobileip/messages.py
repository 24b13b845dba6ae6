"""Mobile IP control messages (RFC 2002/3344-style, simplified).

Each message is a payload carried in a :class:`repro.net.Packet` with
the matching ``protocol`` tag, so control traffic experiences real
queueing and propagation delay.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.addressing import IPAddress

#: Protocol tags used on the wire.
AGENT_ADVERTISEMENT = "mip-agent-adv"
REGISTRATION_REQUEST = "mip-reg-request"
REGISTRATION_REPLY = "mip-reg-reply"
BINDING_NOTIFY = "mip-binding-notify"

#: Wire sizes in bytes (IP+UDP+message, RFC-ish ballpark).
ADVERTISEMENT_BYTES = 48
REGISTRATION_REQUEST_BYTES = 52
REGISTRATION_REPLY_BYTES = 44
BINDING_NOTIFY_BYTES = 44

#: Registration reply codes (subset of RFC 3344 §3.8.2).
CODE_ACCEPTED = 0
CODE_DENIED_UNKNOWN_HA = 136
CODE_DENIED_ID_MISMATCH = 133
CODE_DENIED_LIFETIME = 69


@dataclass(frozen=True)
class AgentAdvertisement:
    """Broadcast by home/foreign agents so MNs can detect movement."""

    agent_address: IPAddress
    care_of_address: IPAddress
    sequence: int
    lifetime: float
    is_home_agent: bool
    is_foreign_agent: bool


@dataclass(frozen=True)
class RegistrationRequest:
    """MN -> (FA) -> HA: please bind my home address to this CoA."""

    home_address: IPAddress
    home_agent: IPAddress
    care_of_address: IPAddress
    lifetime: float
    identification: int


@dataclass(frozen=True)
class RegistrationReply:
    """HA -> (FA) -> MN: binding accepted or denied."""

    home_address: IPAddress
    home_agent: IPAddress
    code: int
    lifetime: float
    identification: int

    @property
    def accepted(self) -> bool:
        return self.code == CODE_ACCEPTED


@dataclass(frozen=True)
class BindingNotification:
    """Out-of-band binding hint (used by the paper's RSMC to tell the HA
    and CN where an MN now is, enabling route optimization)."""

    home_address: IPAddress
    forward_to: IPAddress
    sequence: int
