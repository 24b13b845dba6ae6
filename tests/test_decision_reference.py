"""The one mobility controller against its specifications.

``MobilityController`` decides on the meter's survey itself: ``_decide``
reads the ``(rss_dbm, index)`` pairs, strongest first, in the fixed
order out of coverage, airtime relief, alone in reach, better tier,
signal hysteresis, and builds ``Candidate``s, ``HandoffFactors``, the
ordering and the ``TierDecision`` only for a decision it tries, so a
sample that stays builds nothing; an attach asks the survey's cells in
the same order without building them.
``TierDecider.order_by_preference`` orders without a per-candidate key
function.  The same class drives every stack: the
flat baselines pass an always-strongest decider blind to shared-channel
queues and two moves that never refuse.  The specifications are what
it replaced, kept here verbatim and self-contained:

* :class:`ReferenceController` — the multi-tier controller's sampling
  loop, ``_decide`` and ``order_candidates`` as they stood before the
  one-pass change;
* :class:`ReferenceFlatController` — the flat baselines' own
  strongest-signal + hysteresis controller, before the two loops became
  one.

The controller must agree with the first on every generated sample and
on a whole run's decision trace, and with the second on every
generated script of positions: the same moves at the same instants.  A
generated sample reaches ``_decide`` as the survey pairs of the same
candidates, strongest first with ties in cell order, as the meter
returns them.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.multitier.architecture as architecture
from repro.mobility.controller import MobilityController
from repro.policy import (
    REFUSAL_CAUSES,
    Candidate,
    DecisionTrace,
    HandoffFactors,
    NextAction,
    TierDecider,
    TierDecision,
)
from repro.radio import DOWNLINK, Cell, Point, PropagationModel, SignalMeter, Tier
from repro.scenarios import build_scenario, get_scenario
from repro.sim import Simulator
from repro.stacks.flat import STRONGEST_SIGNAL


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


class ReferenceController:
    hysteresis_db = 4.0
    offload_queue_threshold = 3

    def __init__(
        self,
        sim,
        mobile,
        model,
        stations,
        meter,
        trace,
        policy=None,
        sample_period=0.5,
    ):
        self.sim = sim
        self.mobile = mobile
        self.model = model
        self.policy = policy if policy is not None else TierDecider()
        self.trace = trace
        self.sample_period = sample_period
        self.stations = [bs for bs in stations if bs.cell is not None]
        self.meter = meter
        self.blocked_attach_attempts = 0
        self.process = sim.process(self._run(), name=f"{mobile.name}-controller")

    # What a run harvests from its controllers, read off the mobile.
    @property
    def serving(self):
        return self.mobile.serving_bs

    @property
    def handoff_latencies(self):
        return self.mobile.handoff_latencies

    @property
    def handoffs(self):
        return len(self.mobile.handoff_latencies)

    def _note_fallback(self, move, failed, remaining, reason):
        serving = self.mobile.serving_bs
        nxt = remaining[0] if remaining else None
        if nxt is None or nxt.station is serving:
            action = NextAction.STOP
            target = ""
        else:
            if nxt.tier is not failed.tier:
                action = NextAction.ESCALATE_TIER
            else:
                action = NextAction.RETRY_SAME_TIER
            target = nxt.station.name
        self.trace.record(
            self.sim.now,
            self.mobile.name,
            move,
            [reason],
            action=action.value,
            target=target,
        )

    def _channel_congested(self, station):
        channel = station.shared_channel
        return (
            channel is not None
            and channel.queued[DOWNLINK] >= self.offload_queue_threshold
        )

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
                    refusal = mobile.initial_attach(candidate.station)
                    if refusal is None:
                        break
                    self.blocked_attach_attempts += 1
                    self._note_fallback(
                        "attach",
                        candidate,
                        ordered[index + 1:],
                        refusal,
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
                refusal = yield from mobile.perform_handoff(candidate.station)
                if refusal is None:
                    break
                self._note_fallback(
                    "handoff",
                    candidate,
                    decision.targets[index + 1:],
                    refusal,
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
    meter = SignalMeter(PropagationModel(), [bs.cell for bs in stations])
    reference = ReferenceController(
        Simulator(), mobile, None, stations, meter, DecisionTrace(),
        policy=policy,
    )
    controller = MobilityController(
        Simulator(), SimpleNamespace(speed=mobile.speed), stations, meter,
        DecisionTrace(), policy, attach=None, handoff=None, name=mobile.name,
        demand=mobile.bandwidth_demand,
    )
    controller.serving = mobile.serving_bs
    tier = mobile.serving_bs.tier if mobile.serving_bs is not None else None
    controller.serving_tier = tier
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

    # The same candidates as the meter's survey: strongest first, ties
    # in cell order.
    survey = sorted(
        [(c.rss_dbm, index) for index, c in enumerate(candidates)],
        key=lambda pair: pair[0], reverse=True,
    )
    expected = reference.reference_decide(candidates, factors, expected_order)
    decision = controller._decide(survey)
    if expected is None:
        assert decision is None
    else:
        assert identities(decision.targets) == identities(expected.targets)
        assert decision.reasons == expected.reasons
        assert decision.factors == expected.factors == factors


# ----------------------------------------------------------------------
# A whole run: same trace, record for record
# ----------------------------------------------------------------------
def reference_add_controller(self, mobile, model, **kwargs):
    """``MultiTierWorld.add_controller`` as it was, building the
    reference controller."""
    stations = self.all_radio_stations()
    cells = [bs.cell for bs in stations]
    if self._meter is None or self._meter.cells != cells:
        self._meter = SignalMeter(PropagationModel(), cells)
    controller = ReferenceController(
        self.sim, mobile, model, stations, self._meter, self.decision_trace,
        **kwargs,
    )
    self.controllers.append(controller)
    return controller


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

    monkeypatch.setattr(
        architecture.MultiTierWorld, "add_controller", reference_add_controller
    )
    reference = build_scenario(spec, seed=3)
    assert type(reference.world.controllers[0]) is ReferenceController
    reference_metrics = reference.execute()
    reference_trace = reference.world.decision_trace

    assert trace.counts == reference_trace.counts
    assert trace.refusals == reference_trace.refusals
    assert list(trace.records) == list(reference_trace.records)
    assert len(trace.records) > 0
    assert metrics == reference_metrics
    for move, reason in trace.refusals:
        assert move in ("attach", "handoff") and reason in REFUSAL_CAUSES
    attach_refusals = sum(
        count for (move, _reason), count in trace.refusals.items()
        if move == "attach"
    )
    assert attach_refusals == metrics["blocked_attaches"] == sum(
        c.blocked_attach_attempts for c in reference.world.controllers
    )


# ----------------------------------------------------------------------
# The flat baselines: the same moves at the same instants
# ----------------------------------------------------------------------
class ReferenceFlatController:
    hysteresis_db = 4.0

    def __init__(
        self,
        sim,
        model,
        nodes,
        meter,
        attach,
        handoff,
        sample_period=0.5,
    ):
        self.sim = sim
        self.model = model
        self.nodes = nodes
        self.meter = meter
        self.attach = attach
        self.handoff = handoff
        self.sample_period = sample_period
        self.serving = None
        self.handoffs = 0
        self.handoff_latencies = []
        self.process = sim.process(self._run())

    def _run(self):
        nodes = self.nodes
        while True:
            yield self.sim.timeout(self.sample_period)
            position = self.model.advance(self.sample_period)
            covering = self.meter.scan(position, covering=True)
            if not covering:
                continue
            best_rss, best_index = covering[0]  # sorted strongest-first
            best = nodes[best_index]
            if self.serving is None:
                self.serving = best
                yield from self.attach(best) or ()
                continue
            serving_rss = next(
                (rss for rss, i in covering if nodes[i] is self.serving), None
            )
            if serving_rss is None:
                target = best  # forced: walked out of the serving cell
            elif (
                best is not self.serving
                and best_rss >= serving_rss + self.hysteresis_db
            ):
                target = best
            else:
                continue
            old = self.serving
            self.serving = target
            started = self.sim.now
            yield from self.handoff(old, target) or ()
            self.handoffs += 1
            self.handoff_latencies.append(self.sim.now - started)


#: Cell sites to deploy from: two micro cells on one spot (their
#: signals tie everywhere), a micro and a pico whose discs overlap
#: theirs, and a macro umbrella over all but the far end of the strip.
SITES = [
    (Point(0.0, 0.0), Tier.MICRO),
    (Point(0.0, 0.0), Tier.MICRO),
    (Point(600.0, 0.0), Tier.MICRO),
    (Point(300.0, 0.0), Tier.PICO),
    (Point(300.0, 1000.0), Tier.MACRO),
]
#: Where a sample can find the mobile: inside one cell or several,
#: halfway between the two micro spots (another tie), on the pico, in
#: the macro umbrella only, and where nothing covers it.
SPOTS = [
    Point(0.0, 0.0), Point(150.0, 0.0), Point(300.0, 0.0),
    Point(310.0, 20.0), Point(450.0, 0.0), Point(600.0, 0.0),
    Point(0.0, -350.0), Point(1300.0, 0.0), Point(9000.0, 0.0),
]


@st.composite
def flat_runs(draw):
    sites = draw(st.lists(st.sampled_from(SITES), min_size=1, max_size=5))
    script = draw(st.lists(st.sampled_from(SPOTS), min_size=1, max_size=24))
    # Per move, in call order: instant (None) or the simulated seconds
    # it takes, some longer than a sample period.
    durations = draw(st.lists(
        st.sampled_from([None, None, 0.0, 0.25, 0.5, 1.5]),
        min_size=1, max_size=8,
    ))
    period = draw(st.sampled_from([0.5, 1.0]))
    return sites, script, durations, period


def drive(make_controller, sites, script, durations, period):
    """Run one controller over the script; return its move log and
    counters once every move has finished."""
    sim = Simulator()
    cells = [
        Cell(f"cell-{index}", center, tier)
        for index, (center, tier) in enumerate(sites)
    ]
    nodes = [SimpleNamespace(name=f"n{index}") for index in range(len(sites))]
    meter = SignalMeter(PropagationModel(), cells)
    positions = iter(script)
    model = SimpleNamespace(
        speed=0.0, advance=lambda dt: next(positions, SPOTS[-1])
    )
    log = []

    def move(*call):
        log.append((sim.now, *[node.name for node in call]))
        duration = durations[(len(log) - 1) % len(durations)]
        if duration is None:
            return None

        def takes_time():
            yield sim.timeout(duration)

        return takes_time()

    controller = make_controller(
        sim, model, nodes, meter, lambda node: move(node), move, period
    )
    longest = max(d or 0.0 for d in durations)
    sim.run(until=(period + longest) * (len(script) + 2))
    serving = controller.serving.name if controller.serving is not None else None
    return log, serving, controller.handoffs, controller.handoff_latencies


@settings(max_examples=400, deadline=None)
@given(flat_runs())
def test_the_one_controller_moves_like_the_flat_reference(run):
    def reference(sim, model, nodes, meter, attach, handoff, period):
        return ReferenceFlatController(
            sim, model, nodes, meter, attach, handoff, period
        )

    def controller(sim, model, nodes, meter, attach, handoff, period):
        return MobilityController(
            sim, model, nodes, meter, DecisionTrace(), STRONGEST_SIGNAL,
            attach, handoff, period,
        )

    expected = drive(reference, *run)
    assert drive(controller, *run) == expected
