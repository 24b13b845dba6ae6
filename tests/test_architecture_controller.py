"""Tests for the mobility controller: radio-driven attachment, the
three-factor decision, and tier overflow on rejection."""

import numpy as np
import pytest

from repro.mobility import Highway, Stationary, TracePlayback
from repro.multitier.architecture import WORLD_BOUNDS, MultiTierWorld
from repro.policy import Candidate, HandoffFactors, TierDecider
from repro.radio.cells import Tier
from repro.radio.geometry import Point


def test_controller_initial_attach_by_signal():
    world = MultiTierWorld()
    mn = world.add_mobile("mn")
    # Standing in the middle of micro cell B.
    world.add_controller(mn, Stationary(Point(-2700, 0), WORLD_BOUNDS))
    world.sim.run(until=3.0)
    assert mn.serving_bs is world.domain1["B"]
    assert mn.serving_tier is Tier.MICRO


def test_controller_walk_triggers_micro_handoffs():
    world = MultiTierWorld()
    mn = world.add_mobile("mn")
    # Scripted walk from B through A to C along the street.
    trace = TracePlayback(
        [(0.0, Point(-2700, 0)), (120.0, Point(-1300, 0))], WORLD_BOUNDS
    )
    controller = world.add_controller(mn, trace, sample_period=0.5)
    world.sim.run(until=130.0)
    assert mn.serving_bs is world.domain1["C"]
    assert controller.handoffs >= 2  # B -> A -> C at least
    assert len(mn.handoff_latencies) == controller.handoffs


def test_controller_fast_mobile_prefers_macro():
    world = MultiTierWorld()
    rng = np.random.default_rng(1)
    mn = world.add_mobile("mn")
    model = Highway(Point(-2700, 0), WORLD_BOUNDS, rng, speed=30.0, wrap=False)
    world.add_controller(mn, model)
    world.sim.run(until=10.0)
    assert mn.serving_tier is Tier.MACRO


def test_controller_slow_mobile_prefers_micro():
    world = MultiTierWorld()
    mn = world.add_mobile("mn")
    world.add_controller(mn, Stationary(Point(-2000, 0), WORLD_BOUNDS))
    world.sim.run(until=5.0)
    assert mn.serving_tier is Tier.MICRO


def test_controller_macro_policy_overrides():
    world = MultiTierWorld()
    mn = world.add_mobile("mn")
    world.add_controller(
        mn, Stationary(Point(-2000, 0), WORLD_BOUNDS), policy=TierDecider(mode="always-macro")
    )
    world.sim.run(until=5.0)
    assert mn.serving_tier is Tier.MACRO


def test_controller_coverage_hole_falls_back_to_macro():
    """The corridor between C and E has no micro coverage: a pedestrian
    walking it must ride the macro umbrella (Fig 3.4 case b)."""
    world = MultiTierWorld()
    mn = world.add_mobile("mn")
    trace = TracePlayback(
        [(0.0, Point(-1300, 0)), (60.0, Point(0, 0))], WORLD_BOUNDS
    )
    world.add_controller(mn, trace, sample_period=0.5)
    world.sim.run(until=70.0)
    assert mn.serving_tier is Tier.MACRO


def test_controller_rejection_overflows_to_next_candidate():
    world = MultiTierWorld(domain_kwargs={"guard_channels": 0})
    d1 = world.domain1
    # Saturate C so the walker's handoff into it is rejected.
    for index in range(d1["C"].channels.capacity):
        filler = world.add_mobile(f"filler{index}")
        assert filler.initial_attach(d1["C"]) is None
    mn = world.add_mobile("mn")
    trace = TracePlayback(
        [(0.0, Point(-2000, 0)), (80.0, Point(-1300, 0))], WORLD_BOUNDS
    )
    world.add_controller(mn, trace, sample_period=0.5)
    world.sim.run(until=90.0)
    # C was full: the mobile ends up on the macro umbrella instead.
    assert mn.serving_bs is not d1["C"]
    assert mn.serving_bs is not None
    # Every sample in C's coverage asks C again and is refused.
    assert world.decision_trace.refusals == {("handoff", "channel-pool-full"): 89}


@pytest.mark.parametrize("period", [0.0, -1.0, float("nan")])
def test_controller_refuses_a_sample_period_that_is_not_positive(period):
    """A zero period re-arms a zero timeout at one instant forever, and
    ``nan`` fails only at run time: both are refused at construction."""
    world = MultiTierWorld()
    mn = world.add_mobile("mn")
    model = Stationary(Point(-2700, 0), WORLD_BOUNDS)
    with pytest.raises(ValueError, match="sample_period") as error:
        world.add_controller(mn, model, sample_period=period)
    assert "\n" not in str(error.value)
    assert world.controllers == []


@pytest.mark.parametrize("demand", [-1.0, float("nan")])
def test_controller_refuses_a_demand_that_is_negative_or_nan(demand):
    """A ``nan`` demand would pass every ``>`` and ``>=`` test as False
    and silently act as zero: it is refused at construction, as is a
    negative one."""
    world = MultiTierWorld()
    mn = world.add_mobile("mn", bandwidth_demand=demand)
    model = Stationary(Point(-2700, 0), WORLD_BOUNDS)
    with pytest.raises(ValueError, match="demand") as error:
        world.add_controller(mn, model)
    assert "\n" not in str(error.value)
    assert world.controllers == []


# ----------------------------------------------------------------------
# Policy unit tests
# ----------------------------------------------------------------------
class _StubStation:
    def __init__(self, tier):
        self.tier = tier


def make_candidates():
    return [
        Candidate(station=_StubStation(Tier.MICRO), rss_dbm=-70.0),
        Candidate(station=_StubStation(Tier.MACRO), rss_dbm=-60.0),
        Candidate(station=_StubStation(Tier.MICRO), rss_dbm=-80.0),
    ]


def test_policy_fast_mobile_orders_macro_first():
    policy = TierDecider(speed_threshold=15.0)
    ordered = policy.order_candidates(
        make_candidates(), HandoffFactors(speed=25.0)
    )
    assert ordered[0].tier is Tier.MACRO


def test_policy_slow_mobile_orders_micro_first_by_signal():
    policy = TierDecider()
    ordered = policy.order_candidates(
        make_candidates(), HandoffFactors(speed=1.0)
    )
    assert ordered[0].tier is Tier.MICRO
    assert ordered[0].rss_dbm == -70.0
    # Overflow candidate (macro) still present, just later.
    assert any(c.tier is Tier.MACRO for c in ordered)


def test_policy_bandwidth_demand_prefers_smallest_cells():
    policy = TierDecider(demand_threshold=200e3)
    preference = policy.tier_preference(
        HandoffFactors(speed=1.0, bandwidth_demand=384e3)
    )
    assert preference == [Tier.PICO, Tier.MICRO, Tier.MACRO]


def test_policy_default_preference_micro_first():
    policy = TierDecider()
    preference = policy.tier_preference(HandoffFactors(speed=1.0))
    assert preference[0] is Tier.MICRO
    assert preference[-1] is Tier.MACRO


def test_policy_validation():
    with pytest.raises(ValueError):
        TierDecider(speed_threshold=0.0)
