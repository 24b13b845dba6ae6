"""The mobility controller: the one sample → scan → decide → move loop
that every protocol stack runs, one controller per mobile.

Determinism: decisions read only the seeded model, the pure signal
survey and (for an airtime-aware decider) the cells' queue lengths, so
one ``(spec, seed)`` moves identically in any process, on any backend.
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.policy.types import (
    Candidate,
    HandoffFactors,
    NextAction,
    TierDecision,
)
from repro.radio.channel import DOWNLINK

#: The refusal actions' trace values, looked up once rather than per refusal.
_STOP = NextAction.STOP.value
_ESCALATE_TIER = NextAction.ESCALATE_TIER.value
_RETRY_SAME_TIER = NextAction.RETRY_SAME_TIER.value

if TYPE_CHECKING:  # pragma: no cover
    from repro.mobility.base import MobilityModel
    from repro.policy.decider import TierDecider
    from repro.policy.trace import DecisionTrace
    from repro.radio.cells import Tier
    from repro.radio.signal import SignalMeter
    from repro.sim.kernel import Simulator


class MobilityController:
    """Drives one mobile: samples its mobility model, applies the
    decider's three-factor decision and runs the stack's moves (§3.2).

    Stacks differ only in what they pass in: the multi-tier stack its
    speed-aware :class:`~repro.policy.decider.TierDecider` (or an E9
    ablation mode) and the mobile's admission-checked moves; the flat
    baselines :data:`~repro.stacks.flat.STRONGEST_SIGNAL` and two moves
    that never refuse.  ``nodes`` are what the stack placed at the cells
    of ``meter``, indexed alike; a node needs a ``name`` (for the trace)
    and, under an airtime-aware decider, a ``shared_channel``.  A
    candidate's tier is its cell's.  ``attach(node)`` and
    ``handoff(old, new)`` return ``None`` when done or a reason token
    (``channel-pool-full``, ...) when refused, or a generator returning
    that outcome when the move takes simulated time; the controller runs
    it to completion.  A refusal leaves a record in ``trace`` whose
    ``kind`` names the move (``"attach"`` or ``"handoff"``), and the
    next candidate is asked.  ``name`` labels the records; ``demand``
    (bit/s) is the decider's bandwidth factor.
    """

    #: Margin (dB) by which a same-tier rival must beat the serving cell.
    hysteresis_db = 4.0
    #: Contention mode only: downlink packets waiting on the serving
    #: cell's shared channel before a traffic-bearing mobile looks for a
    #: covering cell with spare airtime (the "resources of BS" factor
    #: made real; no effect in legacy mode, where cells have no shared
    #: channel, nor under a decider that is not airtime-aware).
    offload_queue_threshold = 3

    def __init__(
        self,
        sim: "Simulator",
        model: "MobilityModel",
        nodes: list,
        meter: "SignalMeter",
        trace: "DecisionTrace",
        decider: "TierDecider",
        attach: Callable[[Any], Any],
        handoff: Callable[[Any, Any], Any],
        sample_period: float = 0.5,
        *,
        name: str = "",
        demand: float = 0.0,
    ) -> None:
        if not sample_period > 0:
            raise ValueError(
                f"sample_period must be > 0 seconds, got {sample_period!r}"
            )
        if not demand >= 0:
            raise ValueError(f"demand must be >= 0 bit/s, got {demand!r}")
        self.sim = sim
        self.model = model
        self.nodes = nodes
        self.meter = meter
        self.trace = trace
        self.decider = decider
        self.attach = attach
        self.handoff = handoff
        self.sample_period = sample_period
        self.name = name
        self.demand = demand
        #: The node (and its cell's tier) the last accepted move reached.
        self.serving = None
        self.serving_tier: Optional["Tier"] = None
        self.handoffs = 0
        self.handoff_latencies: list[float] = []
        if not decider.airtime_aware:
            # Decided once: a decider blind to the cells' queues never
            # sees one congested (no airtime relief, no rival excluded).
            self._channel_congested = lambda station: False
        self.process = sim.process(self._run(), name=f"{name}-controller")

    # ------------------------------------------------------------------
    def _run(self):
        sim = self.sim
        model = self.model
        period = self.sample_period
        scan = self.meter.scan
        cells = self.meter.cells
        nodes = self.nodes
        attach = self.attach
        while True:
            yield period
            position = model.advance(period)
            # The decision reads the survey itself: the audible cells
            # covering us as (rss, index) pairs, strongest first.
            # Candidates are built only for a decision the controller
            # tries; an attach asks the survey's own cells.
            survey = scan(position, covering=True)
            if not survey:
                continue

            if self.serving is None:
                ordered = self._attach_order(survey)
                for rank, (_rss, index) in enumerate(ordered, 1):
                    station = nodes[index]
                    refusal = attach(station)
                    if type(refusal) is GeneratorType:
                        refusal = yield from refusal
                    tier = cells[index].tier
                    if refusal is None:
                        self.serving = station
                        self.serving_tier = tier
                        break
                    if rank < len(ordered):
                        following = ordered[rank][1]
                        self._note_fallback(
                            "attach", tier, refusal,
                            nodes[following], cells[following].tier,
                        )
                    else:
                        self._note_fallback("attach", tier, refusal)
                continue

            decision = self._decide(survey)
            if decision is None:
                continue
            self.trace.record(
                sim.now, self.name, "decision", decision.reasons,
                target=decision.target.station.name,
            )
            # Try candidates best-first until one admits us (the paper's
            # tier overflow: "turns to ask micro-tier for handoff").
            targets = decision.targets
            for rank, candidate in enumerate(targets, 1):
                if candidate.station is self.serving:
                    break
                started = sim.now
                refusal = self.handoff(self.serving, candidate.station)
                if type(refusal) is GeneratorType:
                    refusal = yield from refusal
                if refusal is None:
                    self.serving = candidate.station
                    self.serving_tier = candidate.tier
                    self.handoffs += 1
                    self.handoff_latencies.append(sim.now - started)
                    break
                if rank < len(targets):
                    following = targets[rank]
                    self._note_fallback(
                        "handoff", candidate.tier, refusal,
                        following.station, following.tier,
                    )
                else:
                    self._note_fallback("handoff", candidate.tier, refusal)

    def _note_fallback(
        self,
        move: str,
        failed_tier: "Tier",
        reason: str,
        following: Any = None,
        following_tier: Optional["Tier"] = None,
    ) -> None:
        """Record one refused or timed-out ``move`` (``"attach"`` or
        ``"handoff"``) on a cell of ``failed_tier``, why it failed, and
        what happens next.

        Mirrors the try-next-candidate loop exactly: ``following`` is
        the station asked next, on a cell of ``following_tier`` (none
        left, or the serving node there, means the loop will stop), a
        different tier means the §3.2 "turn to ask" overflow
        (``ESCALATE_TIER``), the same tier a plain retry.
        """
        if following is None or following is self.serving:
            action, target = _STOP, ""
        elif following_tier is not failed_tier:
            action, target = _ESCALATE_TIER, following.name
        else:
            action, target = _RETRY_SAME_TIER, following.name
        self.trace.record(
            self.sim.now, self.name, move, [reason],
            action=action, target=target,
        )

    def _channel_congested(self, station) -> bool:
        """True when ``station``'s shared downlink queue is at or above
        the offload threshold; always False in legacy mode (no channel).
        """
        channel = station.shared_channel
        return (
            channel is not None
            and channel.queued[DOWNLINK] >= self.offload_queue_threshold
        )

    def _attach_order(
        self, survey: list[tuple[float, int]]
    ) -> list[tuple[float, int]]:
        """The survey pairs in the order :meth:`_targets` gives their
        candidates, building none: the survey is already strongest
        first with ties in cell order, and both of
        ``order_by_preference``'s sorts are stable."""
        decider = self.decider
        if decider.tier_agnostic or len(survey) < 2:
            return survey
        cells = self.meter.cells
        return [
            pair
            for tier in decider.preference_for(self.model.speed, self.demand)
            for pair in survey
            if cells[pair[1]].tier is tier
        ]

    def _factors(self) -> HandoffFactors:
        """The §3.2 factors as observed now, for a move being made."""
        return HandoffFactors(self.model.speed, self.demand, self.serving_tier)

    def _targets(
        self, heard: list[tuple[float, int]], factors: HandoffFactors
    ) -> list[Candidate]:
        """``heard`` survey pairs as candidates, best-first in the
        decider's order.  Ordering a subset of the survey equals
        filtering the ordered survey: both sorts are stable."""
        nodes = self.nodes
        cells = self.meter.cells
        decider = self.decider
        return decider.order_by_preference(
            [Candidate(nodes[index], rss, cells[index].tier) for rss, index in heard],
            decider.tier_preference(factors),
        )

    def _decide(self, survey: list[tuple[float, int]]) -> Optional[TierDecision]:
        """None = stay; otherwise an explainable decision whose
        ``targets`` are the ordered candidates to try and whose
        ``reasons`` name the branch that fired (reason vocabulary:
        ``docs/POLICY.md``).  ``survey`` is the meter's covering scan,
        ``(rss_dbm, index)`` strongest first; nothing is built unless a
        branch fires."""
        serving = self.serving
        nodes = self.nodes
        cells = self.meter.cells
        decider = self.decider
        for serving_rss, serving_index in survey:
            if nodes[serving_index] is serving:
                break
        else:
            # Factor: signal — out of the serving cell entirely, must
            # move (the survey is exactly the audible cells covering us,
            # so every one is a target).
            factors = self._factors()
            return TierDecision(
                self._targets(survey, factors),
                ["out-of-coverage"] + decider.preference_reasons(factors),
                factors,
            )

        congested = self._channel_congested
        # Factor: resources — in contention mode a congested shared
        # channel sheds traffic-bearing mobiles toward covering cells
        # with spare airtime (the paper's pico-overlay absorption:
        # "system will switch MN" when the serving tier cannot carry
        # its bandwidth).  Never fires in legacy mode (no channel).
        if self.demand > 0 and congested(serving):
            relief = [
                (rss, index)
                for rss, index in survey
                if nodes[index] is not serving
                and nodes[index].shared_channel is not None
                and not congested(nodes[index])
            ]
            if relief:
                factors = self._factors()
                return TierDecision(
                    self._targets(relief, factors),
                    ["airtime-relief", "serving-channel-congested"],
                    factors,
                )

        # Nothing but the serving cell covers us: no tier to prefer and
        # no rival to beat it.
        if len(survey) == 1:
            return None

        serving_tier = cells[serving_index].tier
        tier_agnostic = decider.tier_agnostic
        if not tier_agnostic:
            # Factors: speed / bandwidth demand — switch to the best
            # tier the decider ranks strictly above the serving one.  In
            # contention mode a congested target is never "better":
            # without this filter the preference branch would bounce a
            # mobile straight back into the congested cell that airtime
            # relief just moved it off (handoff ping-pong).
            preference = decider.preference_for(self.model.speed, self.demand)
            serving_rank = best_rank = preference.index(serving_tier)
            if serving_rank:  # some tier ranks above the serving one
                for _rss, index in survey:
                    rank = preference.index(cells[index].tier)
                    if rank < best_rank and not congested(nodes[index]):
                        best_rank = rank
            if best_rank < serving_rank:
                best_tier = preference[best_rank]
                factors = self._factors()
                return TierDecision(
                    self._targets(
                        [
                            (rss, index)
                            for rss, index in survey
                            if cells[index].tier is best_tier
                            and not congested(nodes[index])
                        ],
                        factors,
                    ),
                    ["better-tier"] + decider.preference_reasons(factors),
                    factors,
                )

        # Factor: signal — a rival (of the serving tier, unless the
        # decider ignores tiers) beats us by the hysteresis margin;
        # congested rivals are excluded in contention mode for the same
        # reason as above.  The survey is strongest first: the first
        # rival is the loudest, and once a cell is quieter than the
        # level a rival needs, so is every later one.
        needed = serving_rss + self.hysteresis_db
        for rss, index in survey:
            if rss < needed:
                return None
            best = nodes[index]
            if (
                best is not serving
                and (tier_agnostic or cells[index].tier is serving_tier)
                and not congested(best)
            ):
                factors = self._factors()
                return TierDecision(
                    self._targets([(rss, index)], factors)
                    + self._targets(
                        [
                            (other_rss, other)
                            for other_rss, other in survey
                            if nodes[other] is not best
                            and nodes[other] is not serving
                        ],
                        factors,
                    ),
                    ["signal-hysteresis"],
                    factors,
                )
        return None


__all__ = ["MobilityController"]
