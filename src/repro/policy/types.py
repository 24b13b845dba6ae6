"""Decision types of the explainable policy engine.

The paper's §3.2 handoff strategy weighs three factors — the speed of
the MN, the power of the signal from the BS, and the resources of the
BS — and acts on them: pick a tier, rank the candidates, and when a
base station refuses admission "turn to ask" the next tier.  This
module gives each of those acts a typed, *explainable* value:

* :class:`HandoffFactors` — the locally observable inputs (one
  snapshot per decision, embedded in the emitted record);
* :class:`Candidate` — one admissible target base station;
* :class:`TierDecision` — an ordered target list plus the
  machine-readable reasons that produced it;
* :class:`NextAction` — what the mobile does after a rejection or
  timeout (retry the same tier, escalate to the next tier, or stop).

Reason strings are drawn from the fixed vocabulary documented in
``docs/POLICY.md`` (kebab-case tokens such as ``better-tier`` or
``air-budget-exceeded``); the decision-trace log aggregates them into
the ``policy.*`` scenario metrics.

Determinism: pure data containers — construction and comparison have
no side effects and no randomness, so records built from a
deterministic simulation are byte-identical across processes and
execution backends.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.radio.cells import Tier


@dataclass(slots=True)
class HandoffFactors:
    """Inputs the mobile can observe locally (the §3.2 factors)."""

    speed: float
    bandwidth_demand: float = 0.0
    serving_tier: Optional[Tier] = None


@dataclass(init=False, slots=True)
class Candidate:
    """One admissible target: a station heard at some signal level on
    a cell of ``tier`` (default: the station's own ``.tier``)."""

    station: object  # whatever the stack placed at the cell
    rss_dbm: float
    tier: Tier

    def __init__(
        self, station: object, rss_dbm: float, tier: Optional[Tier] = None
    ) -> None:
        self.station = station
        self.rss_dbm = rss_dbm
        self.tier = station.tier if tier is None else tier


@dataclass
class TierDecision:
    """An explainable handoff decision: where to go, and why.

    ``targets`` is the best-first list of candidates the mobile will
    ask (tier overflow tries them in order until one admits);
    ``reasons`` is a non-empty list of machine-readable tokens from the
    vocabulary in ``docs/POLICY.md``; ``factors`` snapshots the
    :class:`HandoffFactors` the decision was made from.
    """

    targets: list[Candidate]
    reasons: list[str]
    factors: HandoffFactors

    @property
    def target(self) -> Optional[Candidate]:
        """The preferred (first) candidate, or ``None`` when empty."""
        return self.targets[0] if self.targets else None


class NextAction(str, enum.Enum):
    """What the mobile does after a rejected or timed-out attempt."""

    #: Ask the next candidate of the same tier.
    RETRY_SAME_TIER = "retry_same_tier"
    #: "Turn to ask" a different tier (§3.2's overflow).
    ESCALATE_TIER = "escalate_tier"
    #: No further candidates: stay with the serving base station.
    STOP = "stop"


__all__ = [
    "Candidate",
    "HandoffFactors",
    "NextAction",
    "TierDecision",
]
