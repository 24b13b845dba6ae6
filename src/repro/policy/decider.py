"""The config-driven tier decider (the paper's §3.2 brain, explained).

"When MN demands a handoff request, three kinds of factor are
considered to decide the suitable tier that MN should hop.  The first
is the speed of MN, the power of signal from BS is considered also,
and the last is the resources of BS."

:class:`TierDecider` turns a :class:`~repro.policy.config.PolicyConfig`
into that decision: speed and bandwidth demand pick the *preferred
tier*, signal strength ranks candidates inside a tier, and the
resources factor is applied downstream by trying the returned
candidates in order until one admits (each refusal becomes a decision
trace record named after the refused move).  Unlike the
historical threshold-only class it is *explainable*: :meth:`decide`
returns a :class:`~repro.policy.types.TierDecision` whose ``reasons``
name, in machine-readable tokens, why the candidates are ordered the
way they are.

With the default config the ordering is byte-identical to the
historical threshold-only class (pinned by the 16 golden tables and
``results/scenarios_smoke/``); the E9 ablation arms are this class in
its other modes.

Determinism: pure functions of the candidate list and factors — no
randomness, no simulation state — so identical inputs order
identically in any process, on any execution backend.
"""

from __future__ import annotations

from operator import attrgetter

from repro.policy.config import PolicyConfig
from repro.policy.types import Candidate, HandoffFactors, TierDecision
from repro.radio.cells import Tier

_RSS_DBM = attrgetter("rss_dbm")


class TierDecider:
    """Order handoff candidates by tier preference, then signal.

    * Fast mobiles prefer the macro tier: micro cells would hand off
      every few seconds ("the speed of MN").
    * Slow mobiles with high bandwidth demand prefer the smallest
      cells, whose shared budgets offer more per-user bandwidth (§3.2
      case a: "MN needs more bandwidth ... system will switch MN to
      micro-cell").
    * Within a tier, stronger signal wins ("the power of signal").

    The admission (resources) factor is applied by trying candidates
    in the returned order until one accepts.  ``mode`` selects the
    paper's ``speed-aware`` policy or one of the E9 ablation
    baselines (``always-strongest`` chases signal across tiers;
    ``always-micro`` / ``always-macro`` pin the preferred tier).
    """

    def __init__(
        self,
        speed_threshold: float = 15.0,
        demand_threshold: float = 200e3,
        mode: str = "speed-aware",
        airtime_aware: bool = True,
    ) -> None:
        # Reuse the config validation so thresholds reject the same
        # inputs (non-positive, NaN) with the same ValueError shape
        # whether they arrive here or through a ScenarioSpec.
        config = PolicyConfig(
            mode=mode,
            speed_threshold=speed_threshold,
            demand_threshold=demand_threshold,
        )
        self.mode = config.mode
        self.speed_threshold = config.speed_threshold
        self.demand_threshold = config.demand_threshold
        #: True for policies that ignore tiers entirely (signal chasing):
        #: the controller then applies hysteresis across all tiers
        #: instead of preferring one.
        self.tier_agnostic = self.mode == "always-strongest"
        #: Whether the controller reads the cells' shared-channel queues
        #: (the resources factor in contention mode): airtime relief off
        #: a congested serving cell, and congested cells never a better
        #: tier or a rival.  Every multi-tier mode is; the flat
        #: baselines' strongest-signal rule is not.
        self.airtime_aware = airtime_aware

    @classmethod
    def from_config(
        cls, config: PolicyConfig, contention: bool = False
    ) -> "TierDecider":
        """Build the decider one validated config block describes.

        ``contention`` resolves a ``demand_threshold=None`` config to
        the stack's historical default (see
        :meth:`PolicyConfig.resolved_demand_threshold`), so the
        default block reproduces pre-refactor behavior byte-for-byte
        in both legacy and shared-channel worlds.
        """
        return cls(
            speed_threshold=config.speed_threshold,
            demand_threshold=config.resolved_demand_threshold(contention),
            mode=config.mode,
        )

    # ------------------------------------------------------------------
    def tier_preference(self, factors: HandoffFactors) -> list[Tier]:
        """Tiers best-first for these factors.

        Fast mobiles: macro first (fewest handoffs).  Slow mobiles with
        high bandwidth demand: smallest cell first (pico offers the most
        per-user bandwidth, then micro).  Everyone else: micro first,
        pico as a local bonus, macro as overflow.  The ablation modes
        pin the order regardless of factors.
        """
        return self.preference_for(factors.speed, factors.bandwidth_demand)

    def preference_for(self, speed: float, demand: float) -> list[Tier]:
        """:meth:`tier_preference` from the two factors it reads (the
        controller's stay test asks it without a factors snapshot)."""
        if self.mode == "always-micro":
            return [Tier.MICRO, Tier.PICO, Tier.MACRO]
        if self.mode == "always-macro":
            return [Tier.MACRO, Tier.MICRO, Tier.PICO]
        if speed >= self.speed_threshold:
            return [Tier.MACRO, Tier.MICRO, Tier.PICO]
        if demand >= self.demand_threshold:
            return [Tier.PICO, Tier.MICRO, Tier.MACRO]
        return [Tier.MICRO, Tier.PICO, Tier.MACRO]

    def preference_reasons(self, factors: HandoffFactors) -> list[str]:
        """Machine-readable tokens naming why the preference holds.

        One mode token for the ablation baselines; for the paper's
        policy, the threshold comparison that fired plus the resulting
        tier preference (vocabulary: ``docs/POLICY.md``).  Always
        non-empty.
        """
        if self.mode == "always-strongest":
            return ["mode-always-strongest", "strongest-signal-first"]
        if self.mode == "always-micro":
            return ["mode-always-micro", "prefer-micro"]
        if self.mode == "always-macro":
            return ["mode-always-macro", "prefer-macro"]
        if factors.speed >= self.speed_threshold:
            return ["speed-at-or-above-threshold", "prefer-macro"]
        if factors.bandwidth_demand >= self.demand_threshold:
            return ["demand-at-or-above-threshold", "prefer-pico"]
        return ["speed-and-demand-below-thresholds", "prefer-micro"]

    def order_candidates(
        self, candidates: list[Candidate], factors: HandoffFactors
    ) -> list[Candidate]:
        """Best-first list of stations to ask, never empty-handed: the
        non-preferred tiers follow as overflow (tier-agnostic modes
        sort purely by signal strength)."""
        return self.order_by_preference(candidates, self.tier_preference(factors))

    def order_by_preference(
        self, candidates: list[Candidate], preference: list[Tier]
    ) -> list[Candidate]:
        """:meth:`order_candidates` for a :meth:`tier_preference` the
        caller already holds."""
        if len(candidates) < 2:
            return list(candidates)
        # Both sorts are stable: equal signals keep their given order.
        by_signal = sorted(candidates, key=_RSS_DBM, reverse=True)
        if self.tier_agnostic:
            return by_signal
        return [c for tier in preference for c in by_signal if c.tier == tier]

    def decide(
        self, candidates: list[Candidate], factors: HandoffFactors
    ) -> TierDecision:
        """The explainable decision for one candidate survey.

        Returns a :class:`~repro.policy.types.TierDecision` whose
        ``targets`` are :meth:`order_candidates` of the inputs and
        whose ``reasons`` are :meth:`preference_reasons` — every
        decision carries at least one reason, with the factors
        snapshot attached for the trace log.
        """
        return TierDecision(
            targets=self.order_candidates(candidates, factors),
            reasons=self.preference_reasons(factors),
            factors=factors,
        )


__all__ = ["TierDecider"]
