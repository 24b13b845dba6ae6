"""The Mobile Node Location Database (Fig 4.1).

A wired service storing which RSMC currently serves each mobile.
RSMCs push updates on arrival; :meth:`MNLD.lookup` reads the record.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.multitier import messages
from repro.net.addressing import IPAddress
from repro.net.node import Node
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.sim.kernel import Simulator


class MNLD(Node):
    """Mobile Node Location Database server."""

    def __init__(self, sim: "Simulator", name: str, address) -> None:
        super().__init__(sim, name, address)
        self.records: dict[IPAddress, IPAddress] = {}
        self.on_protocol(messages.MNLD_UPDATE, self._handle_update)

    def _handle_update(self, packet: Packet, link: Optional["Link"]) -> None:
        update = packet.payload
        if not isinstance(update, messages.MNLDUpdate):
            return
        self.records[update.mobile_address] = update.rsmc_address

    def lookup(self, mobile) -> Optional[IPAddress]:
        return self.records.get(IPAddress(mobile))
