"""The one-pass decision against its specification.

``MobilityController`` goes from a scan to a decision in one pass: the
tier preference is computed once and shared by the ordering and the
decision, a sample whose only candidate is the serving cell returns
early, and ``TierDecider.order_by_preference`` orders without a
per-candidate key function.  The specification is what it replaced —
the controller's sampling loop, ``_decide`` and ``order_candidates`` as
they stood before, kept here verbatim as :class:`ReferenceController` —
and the new pass must agree with it on every generated input and on a
whole run's decision trace.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.multitier.architecture as architecture
from repro.multitier.architecture import MobilityController
from repro.policy import (
    Candidate,
    DecisionTrace,
    HandoffFactors,
    TierDecider,
    TierDecision,
)
from repro.radio import DOWNLINK, Cell, Point, PropagationModel, SignalMeter, Tier
from repro.scenarios import build_scenario, get_scenario
from repro.sim import Simulator


# ----------------------------------------------------------------------
# The specification: the sampling path as it was, verbatim
# ----------------------------------------------------------------------
def reference_order(policy, candidates, factors):
    if policy.tier_agnostic:
        return sorted(candidates, key=lambda c: -c.rss_dbm)
    preference = policy.tier_preference(factors)
    return sorted(
        candidates,
        key=lambda c: (preference.index(c.tier), -c.rss_dbm),
    )


class ReferenceController(MobilityController):
    def _candidates(self, position):
        stations = self.stations
        return [
            Candidate(stations[index], rss)
            for rss, index in self.meter.scan(position, covering=True)
        ]

    def _factors(self):
        return HandoffFactors(
            speed=self.mobile.speed,
            bandwidth_demand=self.mobile.bandwidth_demand,
            serving_tier=self.mobile.serving_tier,
        )

    def _run(self):
        mobile = self.mobile
        while True:
            yield self.sim.timeout(self.sample_period)
            position = self.model.advance(self.sample_period)
            mobile.speed = self.model.speed
            candidates = self._candidates(position)
            if not candidates:
                continue
            factors = self._factors()
            ordered = reference_order(self.policy, candidates, factors)

            if mobile.serving_bs is None:
                for index, candidate in enumerate(ordered):
                    if mobile.initial_attach(candidate.station):
                        break
                    self.blocked_attach_attempts += 1
                    self._note_fallback(
                        candidate,
                        ordered[index + 1:],
                        candidate.station.last_rejection_reason
                        or "attach-blocked",
                    )
                continue

            decision = self.reference_decide(candidates, factors, ordered)
            if decision is None:
                continue
            self.trace.record(
                self.sim.now,
                mobile.name,
                "decision",
                decision.reasons,
                target=(
                    decision.target.station.name
                    if decision.target is not None
                    else ""
                ),
            )
            for index, candidate in enumerate(decision.targets):
                if candidate.station is mobile.serving_bs:
                    break
                accepted = yield from mobile.perform_handoff(candidate.station)
                if accepted:
                    break
                self._note_fallback(
                    candidate,
                    decision.targets[index + 1:],
                    mobile.last_handoff_failure or "handoff-rejected",
                )

    def reference_airtime_relief(self, ordered, factors):
        serving = self.mobile.serving_bs
        if serving.shared_channel is None or factors.bandwidth_demand <= 0:
            return None
        if not self._channel_congested(serving):
            return None
        relief = [
            c
            for c in ordered
            if c.station is not serving
            and c.station.shared_channel is not None
            and not self._channel_congested(c.station)
        ]
        return relief or None

    def reference_decide(self, candidates, factors, ordered):
        mobile = self.mobile
        serving = mobile.serving_bs
        serving_candidate = next(
            (c for c in candidates if c.station is serving), None
        )

        def decision(targets, reasons):
            return TierDecision(targets=targets, reasons=reasons, factors=factors)

        if serving_candidate is None:
            return decision(
                [c for c in ordered if c.station is not serving],
                ["out-of-coverage"] + self.policy.preference_reasons(factors),
            )

        relief = self.reference_airtime_relief(ordered, factors)
        if relief is not None:
            return decision(
                relief, ["airtime-relief", "serving-channel-congested"]
            )

        if not self.policy.tier_agnostic:
            preference = self.policy.tier_preference(factors)
            serving_rank = preference.index(serving.tier)
            better_tier = [
                c
                for c in ordered
                if preference.index(c.tier) < serving_rank
                and not self._channel_congested(c.station)
            ]
            if better_tier:
                best_rank = min(preference.index(c.tier) for c in better_tier)
                return decision(
                    [
                        c
                        for c in better_tier
                        if preference.index(c.tier) == best_rank
                    ],
                    ["better-tier"] + self.policy.preference_reasons(factors),
                )
            rivals = [
                c
                for c in candidates
                if c.tier is serving.tier and c.station is not serving
            ]
        else:
            rivals = [c for c in candidates if c.station is not serving]

        rivals = [c for c in rivals if not self._channel_congested(c.station)]
        if rivals:
            best = max(rivals, key=lambda c: c.rss_dbm)
            if best.rss_dbm >= serving_candidate.rss_dbm + self.hysteresis_db:
                return decision(
                    [best]
                    + [
                        c
                        for c in ordered
                        if c.station not in (best.station, serving)
                    ],
                    ["signal-hysteresis"],
                )
        return None


# ----------------------------------------------------------------------
# Generated inputs
# ----------------------------------------------------------------------
OFFLOAD_QUEUE_THRESHOLD = MobilityController.offload_queue_threshold

#: Small pools: tied signal values, and both sides of the 4 dB margin.
signals = st.sampled_from([-90.0, -74.0, -70.0, -66.0, -60.0])
#: No channel (legacy mode), or a downlink queue either side of the
#: offload threshold.
queues = st.sampled_from([None, 0, OFFLOAD_QUEUE_THRESHOLD - 1,
                          OFFLOAD_QUEUE_THRESHOLD, OFFLOAD_QUEUE_THRESHOLD + 4])
stations = st.tuples(st.sampled_from(list(Tier)), signals, queues)


def stub_station(index, tier, queue):
    channel = None if queue is None else SimpleNamespace(queued={DOWNLINK: queue})
    return SimpleNamespace(
        name=f"bs{index}",
        tier=tier,
        cell=Cell(f"cell{index}", Point(0.0, 0.0), tier),
        shared_channel=channel,
    )


@st.composite
def samples(draw):
    heard = draw(st.lists(stations, min_size=0, max_size=6))
    candidates = [
        Candidate(stub_station(index, tier, queue), rss)
        for index, (tier, rss, queue) in enumerate(heard)
    ]
    serving = draw(st.sampled_from(
        ["none", "absent"] + ["present"] * bool(candidates)
    ))
    if serving == "present":
        serving_bs = draw(st.sampled_from(candidates)).station
    elif serving == "absent":
        tier, _rss, queue = draw(stations)
        serving_bs = stub_station(99, tier, queue)
    else:
        serving_bs = None
    policy = TierDecider(
        speed_threshold=15.0,
        demand_threshold=200e3,
        mode=draw(st.sampled_from(
            ["speed-aware", "always-strongest", "always-micro", "always-macro"]
        )),
    )
    mobile = SimpleNamespace(
        name="mn",
        serving_bs=serving_bs,
        speed=draw(st.sampled_from([0.0, 14.9, 15.0, 30.0])),
        bandwidth_demand=draw(st.sampled_from([0.0, 199e3, 200e3, 1e6])),
    )
    return candidates, policy, mobile


def identities(candidates):
    return [(id(c.station), c.rss_dbm, c.tier) for c in candidates]


@settings(max_examples=600, deadline=None)
@given(samples())
def test_one_pass_equals_the_reference_on_generated_samples(sample):
    candidates, policy, mobile = sample
    stations = [c.station for c in candidates]
    controller = ReferenceController(
        Simulator(), mobile, None, stations,
        SignalMeter(PropagationModel(), [bs.cell for bs in stations]),
        DecisionTrace(), policy=policy,
    )
    tier = mobile.serving_bs.tier if mobile.serving_bs is not None else None
    factors = HandoffFactors(mobile.speed, mobile.bandwidth_demand, tier)

    expected_order = reference_order(policy, candidates, factors)
    preference = policy.tier_preference(factors)
    ordered = policy.order_by_preference(candidates, preference)
    assert identities(ordered) == identities(expected_order)
    assert ordered is not candidates
    assert identities(policy.order_candidates(candidates, factors)) == identities(
        expected_order
    )
    if mobile.serving_bs is None or not candidates:
        return  # the attach loop walks ``ordered``; an empty sample is skipped

    expected = controller.reference_decide(candidates, factors, expected_order)
    decision = controller._decide(candidates, factors, ordered, preference)
    if expected is None:
        assert decision is None
    else:
        assert identities(decision.targets) == identities(expected.targets)
        assert decision.reasons == expected.reasons
        assert decision.factors == expected.factors == factors


# ----------------------------------------------------------------------
# A whole run: same trace, record for record
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec",
    [
        # More mobiles than the cells have channels for: most samples
        # are blocked attach retries, the rest roam and hand off.
        get_scenario("mega").replace(
            population=400, duration=6.0, traffic_mix={"idle": 1.0},
            hotspot_fraction=0.0,
        ),
        # Shared channels: airtime relief and better-tier moves.
        get_scenario("campus-air").replace(duration=10.0),
    ],
    ids=["blocked-attach", "airtime-relief"],
)
def test_one_pass_leaves_the_same_decision_trace_as_the_reference(spec, monkeypatch):
    built = build_scenario(spec, seed=3)
    metrics = built.execute()
    trace = built.world.decision_trace

    monkeypatch.setattr(architecture, "MobilityController", ReferenceController)
    reference = build_scenario(spec, seed=3)
    assert type(reference.world.controllers[0]) is ReferenceController
    reference_metrics = reference.execute()
    reference_trace = reference.world.decision_trace

    assert trace.counts == reference_trace.counts
    assert list(trace.records) == list(reference_trace.records)
    assert len(trace.records) > 0
    assert metrics == reference_metrics
    blocked = sum(c.blocked_attach_attempts for c in built.world.controllers)
    assert blocked == sum(
        c.blocked_attach_attempts for c in reference.world.controllers
    )
