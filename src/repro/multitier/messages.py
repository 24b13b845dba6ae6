"""Control messages of the paper's multi-tier mobility management.

Protocol tags are prefixed ``mt-``.  §3.1 defines the periodic
*Location Message*; §3.2 adds *Update Location Message* and *Delete
Location Message* plus the handoff request/accept exchange; §4 adds
the RSMC's binding notifications and authentication exchange.

A message is a value: nothing writes to one.  Like
:class:`~repro.radio.geometry.Point` it is slotted rather than frozen
(a frozen dataclass sets each field through ``object.__setattr__``),
with the frozen class's equality, hash and ``repr``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.addressing import IPAddress
from repro.radio.cells import Tier

LOCATION = "mt-location"
UPDATE_LOCATION = "mt-update-location"
DELETE_LOCATION = "mt-delete-location"
HANDOFF_REQUEST = "mt-handoff-request"
HANDOFF_ACCEPT = "mt-handoff-accept"
HANDOFF_REJECT = "mt-handoff-reject"
HANDOFF_BEGIN = "mt-handoff-begin"
BINDING_NOTIFY = "mt-binding-notify"
AUTH_REQUEST = "mt-auth-request"
AUTH_REPLY = "mt-auth-reply"
MNLD_UPDATE = "mnld-update"

LOCATION_BYTES = 40
UPDATE_LOCATION_BYTES = 44
DELETE_LOCATION_BYTES = 40
HANDOFF_CONTROL_BYTES = 44
BINDING_NOTIFY_BYTES = 44
AUTH_BYTES = 64
MNLD_BYTES = 48


@dataclass(slots=True, unsafe_hash=True)
class LocationMessage:
    """Periodic soft-state refresh sent by the MN to the top of the
    macro tier (§3.1)."""

    mobile_address: IPAddress
    serving_tier: Tier


@dataclass(slots=True, unsafe_hash=True)
class UpdateLocationMessage:
    """Sent through the *new* base station after a handoff is accepted."""

    mobile_address: IPAddress
    serving_tier: Tier
    handoff_id: int


@dataclass(slots=True, unsafe_hash=True)
class DeleteLocationMessage:
    """Sent to the *old* base station so the stale branch is erased
    instead of waiting for soft-state expiry."""

    mobile_address: IPAddress
    handoff_id: int


@dataclass(slots=True, unsafe_hash=True)
class HandoffRequest:
    """MN -> candidate BS: admission request (channel needed)."""

    mobile_address: IPAddress
    handoff_id: int
    bandwidth_demand: float = 0.0


@dataclass(slots=True, unsafe_hash=True)
class HandoffAnswer:
    """Candidate BS -> MN: accept or reject (resources factor, §3.2)."""

    mobile_address: IPAddress
    handoff_id: int
    accepted: bool
    #: Machine-readable rejection cause (empty when accepted), e.g.
    #: ``channel-pool-full`` or ``air-budget-exceeded``.
    reason: str = ""


@dataclass(slots=True, unsafe_hash=True)
class HandoffBegin:
    """New BS -> RSMC: start buffering downlink packets for the MN."""

    mobile_address: IPAddress
    handoff_id: int


@dataclass(slots=True, unsafe_hash=True)
class RSMCBindingNotify:
    """RSMC -> HA / CN: the MN is now reachable via this RSMC (§4),
    enabling route optimization around the HA triangle."""

    mobile_address: IPAddress
    rsmc_address: IPAddress
    sequence: int


@dataclass(slots=True, unsafe_hash=True)
class MNLDUpdate:
    """RSMC -> MNLD: record the MN's current domain."""

    mobile_address: IPAddress
    rsmc_address: IPAddress
