"""The multi-tier mobile node (the paper's MN).

Mobility is mobile-controlled (§3.2 picks mechanism "(1) managed by
MN"): the node requests admission from a candidate base station,
and on acceptance performs make-before-break signalling — Delete
Location Message down the old radio, Update Location Message up the
new one, "in the same time".
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Optional

from repro.multitier import messages
from repro.multitier.basestation import MultiTierBaseStation
from repro.multitier.domain import HANDOFF_TIMEOUT
from repro.net.addressing import IPAddress
from repro.net.node import Node
from repro.net.packet import Packet
from repro.radio.cells import Tier

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.sim.kernel import Simulator

_handoff_ids = itertools.count(1)


class MultiTierMobileNode(Node):
    """A mobile node roaming a multi-tier network."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        home_address,
        realm,
        bandwidth_demand: float = 0.0,
        airtime_key: Optional[int] = None,
    ) -> None:
        super().__init__(sim, name, home_address)
        self.home_address = IPAddress(home_address)
        realm.register(self.home_address)
        self.realm = realm
        #: Deterministic shared-channel arbitration key (the mobile's
        #: population index); ``None`` falls back to a name hash in
        #: :func:`repro.radio.channel.airtime_key`.
        self.airtime_key = airtime_key
        self.serving_bs: Optional[MultiTierBaseStation] = None
        self.bandwidth_demand = bandwidth_demand

        self._location_loop = None
        self._pending_answers: dict[int, object] = {}
        #: Seconds each completed handoff took, request to accept.
        self.handoff_latencies: list[float] = []
        self.data_received = 0
        self.on_data: list[Callable[[Packet], None]] = []

        self.on_protocol(messages.HANDOFF_ACCEPT, self._handle_answer)
        self.on_protocol(messages.HANDOFF_REJECT, self._handle_answer)

    # ------------------------------------------------------------------
    @property
    def serving_tier(self) -> Optional[Tier]:
        return self.serving_bs.tier if self.serving_bs is not None else None

    # ------------------------------------------------------------------
    # Attachment / location refresh
    # ------------------------------------------------------------------
    def initial_attach(self, bs: MultiTierBaseStation) -> Optional[str]:
        """First association: new-call admission (guard channels
        excluded).  ``None`` once attached, else the refusing station's
        reason token."""
        refusal = bs.admit_new_call(self)
        if refusal is not None:
            return refusal
        self.serving_bs = bs
        self._send_update_location()
        self._ensure_location_loop()
        return None

    def _ensure_location_loop(self) -> None:
        if self._location_loop is not None and self._location_loop.is_alive:
            return
        self._location_loop = self.sim.process(
            self._location_refresh_loop(), name=f"{self.name}-location-loop"
        )

    def _location_refresh_loop(self):
        from repro.sim.errors import Interrupt

        while True:
            serving = self.serving_bs
            interval = serving.domain.location_update_period if serving else 1.0
            try:
                yield interval
            except Interrupt:
                return
            if self.serving_bs is not None:
                self.send_location_message()

    def send_location_message(self) -> None:
        serving = self.serving_bs
        if serving is None:
            return
        self.send_via(
            serving,
            Packet(
                src=self.home_address,
                dst=serving.address,
                size=messages.LOCATION_BYTES,
                protocol=messages.LOCATION,
                payload=messages.LocationMessage(
                    mobile_address=self.home_address, serving_tier=serving.tier
                ),
                created_at=self.sim.now,
            ),
        )

    def _send_update_location(self, handoff_id: int = 0) -> None:
        serving = self.serving_bs
        if serving is None:
            return
        self.send_via(
            serving,
            Packet(
                src=self.home_address,
                dst=serving.address,
                size=messages.UPDATE_LOCATION_BYTES,
                protocol=messages.UPDATE_LOCATION,
                payload=messages.UpdateLocationMessage(
                    mobile_address=self.home_address,
                    serving_tier=serving.tier,
                    handoff_id=handoff_id,
                ),
                created_at=self.sim.now,
            ),
        )

    def _send_delete_location(self, old_bs: MultiTierBaseStation, handoff_id: int) -> None:
        self.send_via(
            old_bs,
            Packet(
                src=self.home_address,
                dst=old_bs.address,
                size=messages.DELETE_LOCATION_BYTES,
                protocol=messages.DELETE_LOCATION,
                payload=messages.DeleteLocationMessage(
                    mobile_address=self.home_address, handoff_id=handoff_id
                ),
                created_at=self.sim.now,
            ),
        )

    # ------------------------------------------------------------------
    # Handoff procedure (§3.2, mobile-controlled)
    # ------------------------------------------------------------------
    def perform_handoff(self, new_bs: MultiTierBaseStation):
        """Generator: run as ``sim.process(mn.perform_handoff(bs))``.

        Returns ``None`` on success, else why it failed:
        ``handoff-timeout`` or the rejecting station's reason token.  On
        failure the mobile stays with its old base station (the caller
        may then try the next candidate — tier overflow).
        """
        if new_bs is self.serving_bs:
            return None
        handoff_id = next(_handoff_ids)
        started = self.sim.now

        # 1. Admission over the new radio ("resources of BS").
        new_bs.radio_connect(self)
        answer_event = self.sim.event()
        self._pending_answers[handoff_id] = answer_event
        self.send_via(
            new_bs,
            Packet(
                src=self.home_address,
                dst=new_bs.address,
                size=messages.HANDOFF_CONTROL_BYTES,
                protocol=messages.HANDOFF_REQUEST,
                payload=messages.HandoffRequest(
                    mobile_address=self.home_address,
                    handoff_id=handoff_id,
                    bandwidth_demand=self.bandwidth_demand,
                ),
                created_at=started,
            ),
        )
        timeout_guard = self.sim.timeout(HANDOFF_TIMEOUT)
        outcome = yield self.sim.any_of([answer_event, timeout_guard])
        self._pending_answers.pop(handoff_id, None)

        if answer_event not in outcome:
            refusal = "handoff-timeout"
        elif not answer_event.value.accepted:
            refusal = answer_event.value.reason
        else:
            refusal = None
        if refusal is not None:
            if new_bs is not self.serving_bs:
                new_bs.radio_disconnect(self)
            return refusal

        # 2. Make-before-break: erase the stale branch via the old radio
        #    and announce the new location via the new one, "in the same
        #    time" (§3.2 case a).
        old_bs = self.serving_bs
        if old_bs is not None:
            self._send_delete_location(old_bs, handoff_id)
        self.serving_bs = new_bs
        self._send_update_location(handoff_id)
        self._ensure_location_loop()
        self.handoff_latencies.append(self.sim.now - started)
        return None

    def _handle_answer(self, packet: Packet, link: Optional["Link"]) -> None:
        answer = packet.payload
        event = self._pending_answers.get(answer.handoff_id)
        if event is not None and not event.triggered:
            event.succeed(answer)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def originate(self, packet: Packet) -> bool:
        if self.serving_bs is None:
            return False
        return self.links[self.serving_bs].transmit(packet)

    def deliver_local(self, packet: Packet, link: Optional["Link"]) -> None:
        if packet.protocol == "data":
            self.data_received += 1
            for hook in self.on_data:
                hook(packet)
        super().deliver_local(packet, link)
