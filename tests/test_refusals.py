"""The run's one book of refused moves: a refused attach or handoff is
booked once in the decision trace, under ``(move, reason)``, and every
reader takes its number from there."""

from repro.mobility import Stationary, TracePlayback
from repro.multitier.architecture import WORLD_BOUNDS, MultiTierWorld
from repro.policy import TierDecider
from repro.radio.channel import ChannelPlan
from repro.radio.geometry import Point

#: Standing in the middle of micro cell B, under macro umbrella R1.
IN_B = Point(-2700, 0)


def stationary_in_b(world, mobile):
    """A controller preferring micro cells for ``mobile`` standing in B:
    it asks B first, then R1; once on R1 it asks B again next sample."""
    return world.add_controller(
        mobile, Stationary(IN_B, WORLD_BOUNDS),
        policy=TierDecider(mode="always-micro"),
    )


def test_blocked_attach_is_not_a_handoff_reject():
    """B's channels are all taken: the attach at t=0.5 and the handoff
    at t=1.0 are refused ``channel-pool-full``, one of each, and only the
    handoff is a ``policy.handoff_reject``."""
    world = MultiTierWorld(domain_kwargs={"guard_channels": 0})
    b = world.domain1["B"]
    for index in range(b.channels.capacity):
        assert world.add_mobile(f"filler{index}").initial_attach(b) is None
    mobile = world.add_mobile("mn")
    stationary_in_b(world, mobile)
    world.sim.run(until=1.4)
    trace = world.decision_trace
    assert mobile.serving_bs is world.domain1["R1"]
    assert trace.refusals == {
        ("attach", "channel-pool-full"): 1,
        ("handoff", "channel-pool-full"): 1,
    }
    counts = trace.metric_counts()
    assert counts["policy.handoff_reject"] == 1.0
    assert counts["policy.admission_reject"] == 0.0
    assert [(r.kind, r.action, r.target) for r in trace.records] == [
        ("attach", "escalate_tier", "R1"),
        ("decision", "", "B"),
        ("handoff", "stop", ""),
    ]


def test_air_budget_refuses_both_moves():
    """B's shared channel has 100 kbit/s and a resident claims 80: a
    64 kbit/s newcomer is refused ``air-budget-exceeded`` by the attach
    and by the handoff, and both are ``policy.admission_reject``."""
    world = MultiTierWorld(
        channel_plan=ChannelPlan(micro_bandwidth=100e3, admission_factor=1.0)
    )
    b = world.domain1["B"]
    resident = world.add_mobile("resident", bandwidth_demand=80e3, airtime_key=0)
    assert resident.initial_attach(b) is None
    mobile = world.add_mobile("mn", bandwidth_demand=64e3, airtime_key=1)
    assert mobile.initial_attach(b) == "air-budget-exceeded"
    stationary_in_b(world, mobile)
    world.sim.run(until=1.4)
    trace = world.decision_trace
    assert mobile.serving_bs is world.domain1["R1"]
    assert trace.refusals == {
        ("attach", "air-budget-exceeded"): 1,
        ("handoff", "air-budget-exceeded"): 1,
    }
    counts = trace.metric_counts()
    assert counts["policy.admission_reject"] == 2.0
    assert counts["policy.handoff_reject"] == 0.0


def test_unanswered_handoffs_are_timeouts():
    """Radio legs of 0.6 s make every answer arrive after the 1 s
    timeout: walking out of B, the handoff to A at t=35 and the one to R1
    it escalates to both time out, and the mobile stays on B."""
    world = MultiTierWorld(domain_kwargs={"wireless_delay": 0.6})
    mobile = world.add_mobile("mn")
    walk = TracePlayback(
        [(0.0, IN_B), (120.0, Point(-1300, 0))], WORLD_BOUNDS
    )
    controller = world.add_controller(mobile, walk)
    world.sim.run(until=36.2)
    trace = world.decision_trace
    assert trace.refusals == {("handoff", "handoff-timeout"): 2}
    assert trace.metric_counts()["policy.handoff_timeout"] == 2.0
    assert mobile.serving_bs is world.domain1["B"]
    assert controller.handoffs == 0 and mobile.handoff_latencies == []
