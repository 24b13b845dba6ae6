"""Unit tests for the explainable policy engine (``repro.policy``).

Covers the four layers the policy refactor introduced: validated
:class:`PolicyConfig` blocks, the config-driven
:class:`~repro.policy.decider.TierDecider` and its reason vocabulary,
the air-interface admission control on
:class:`~repro.radio.channel.SharedChannel` and its FIFO grant order,
and
the decision-trace observability path (ring buffer, ``policy.*``
metric gating, ``policy.<field>`` sweep axes).  The byte-identity of
the *default* config with pre-refactor behavior is pinned elsewhere
(golden tables, ``results/scenarios_smoke/``); these tests pin the new
behavior.
"""

import pytest

from repro.policy import (
    POLICY_METRIC_KEYS,
    PRESETS,
    DecisionRecord,
    DecisionTrace,
    HandoffFactors,
    PolicyConfig,
    TierDecider,
)
from repro.radio.cells import Tier


# ----------------------------------------------------------------------
# PolicyConfig validation
# ----------------------------------------------------------------------
def test_config_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown policy mode"):
        PolicyConfig(mode="chase-signal")


@pytest.mark.parametrize("bad", [0.0, -3.0, float("nan"), "fast", True])
def test_config_rejects_bad_speed_threshold(bad):
    with pytest.raises(ValueError, match="speed_threshold must be positive"):
        PolicyConfig(speed_threshold=bad)


@pytest.mark.parametrize("bad", [0.0, -1e6, float("nan")])
def test_config_rejects_bad_demand_threshold(bad):
    with pytest.raises(ValueError, match="demand_threshold must be positive"):
        PolicyConfig(demand_threshold=bad)


@pytest.mark.parametrize("bad", [0.0, -0.5, float("nan")])
def test_config_rejects_bad_admission_factor(bad):
    with pytest.raises(ValueError, match="admission_factor must be positive"):
        PolicyConfig(admission_factor=bad)


@pytest.mark.parametrize(
    "field", ["speed_threshold", "demand_threshold", "admission_factor"]
)
def test_config_rejects_an_infinite_threshold(field):
    """Each threshold is documented finite, yet an infinite one was
    accepted: it is refused by name."""
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        PolicyConfig(**{field: float("inf")})


def test_demand_threshold_resolution():
    default = PolicyConfig()
    assert default.resolved_demand_threshold(contention=False) == 200e3
    assert default.resolved_demand_threshold(contention=True) == 1.0
    explicit = PolicyConfig(demand_threshold=5e4)
    assert explicit.resolved_demand_threshold(contention=False) == 5e4
    assert explicit.resolved_demand_threshold(contention=True) == 5e4


# ----------------------------------------------------------------------
# S1: the decider validates demand_threshold like speed_threshold
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [0.0, -200e3, float("nan")])
def test_legacy_policy_rejects_bad_demand_threshold(bad):
    with pytest.raises(ValueError, match="demand_threshold must be positive"):
        TierDecider(demand_threshold=bad)


def test_legacy_policy_threshold_errors_share_one_shape():
    with pytest.raises(ValueError) as speed_error:
        TierDecider(speed_threshold=-1.0)
    with pytest.raises(ValueError) as demand_error:
        TierDecider(demand_threshold=-1.0)
    assert str(speed_error.value) == "speed_threshold must be positive"
    assert str(demand_error.value) == "demand_threshold must be positive"


# ----------------------------------------------------------------------
# TierDecider: preference, reasons, decisions
# ----------------------------------------------------------------------
def test_decider_from_config_resolves_thresholds():
    legacy = TierDecider.from_config(PolicyConfig(), contention=False)
    contended = TierDecider.from_config(PolicyConfig(), contention=True)
    assert legacy.demand_threshold == 200e3
    assert contended.demand_threshold == 1.0
    assert legacy.speed_threshold == contended.speed_threshold == 15.0


@pytest.mark.parametrize(
    "factors, head, token",
    [
        (HandoffFactors(speed=20.0), Tier.MACRO, "speed-at-or-above-threshold"),
        (
            HandoffFactors(speed=1.0, bandwidth_demand=300e3),
            Tier.PICO,
            "demand-at-or-above-threshold",
        ),
        (
            HandoffFactors(speed=1.0),
            Tier.MICRO,
            "speed-and-demand-below-thresholds",
        ),
    ],
)
def test_speed_aware_preference_and_reasons(factors, head, token):
    decider = TierDecider()
    assert decider.tier_preference(factors)[0] is head
    reasons = decider.preference_reasons(factors)
    assert token in reasons
    assert len(reasons) >= 1


def test_decision_always_carries_reasons_and_factors():
    decider = TierDecider()
    factors = HandoffFactors(speed=30.0)
    decision = decider.decide([], factors)
    assert decision.targets == []
    assert decision.target is None
    assert decision.reasons == ["speed-at-or-above-threshold", "prefer-macro"]
    assert decision.factors is factors


@pytest.mark.parametrize("mode", ["always-strongest", "always-micro", "always-macro"])
def test_ablation_modes_name_their_mode_in_reasons(mode):
    decider = TierDecider.from_config(PRESETS[mode])
    reasons = decider.preference_reasons(HandoffFactors(speed=50.0))
    assert f"mode-{mode}" in reasons


# ----------------------------------------------------------------------
# Decision trace: ring, counters, metric keys
# ----------------------------------------------------------------------
def test_trace_counts_decisions_and_fallbacks():
    trace = DecisionTrace()
    trace.record(1.0, "mn0", "decision", ["out-of-coverage", "prefer-macro"],
                 target="R1")
    trace.record(2.0, "mn0", "handoff", ["air-budget-exceeded"],
                 action="escalate_tier", target="R2")
    trace.record(3.0, "mn1", "handoff", ["channel-pool-full"],
                 action="retry_same_tier", target="B")
    trace.record(4.0, "mn2", "attach", ["channel-pool-full"],
                 action="stop")
    counts = trace.metric_counts()
    assert set(counts) == set(POLICY_METRIC_KEYS)
    assert counts["policy.decisions"] == 1.0
    assert counts["policy.out_of_coverage"] == 1.0
    assert counts["policy.admission_reject"] == 1.0
    assert counts["policy.escalate_tier"] == 1.0
    # A blocked attach is no handoff reject.
    assert counts["policy.handoff_reject"] == 1.0
    assert counts["policy.retry_same_tier"] == 1.0
    assert counts["policy.handoff_timeout"] == 0.0
    assert trace.refusals == {
        ("handoff", "air-budget-exceeded"): 1,
        ("handoff", "channel-pool-full"): 1,
        ("attach", "channel-pool-full"): 1,
    }
    assert [record.kind for record in trace.records] == [
        "decision", "handoff", "handoff", "attach",
    ]
    rendered = trace.render()
    assert "  3 moves refused:\n" in rendered
    assert "            1  attach  channel-pool-full\n" in rendered


def test_trace_ring_is_bounded_but_counters_are_exact():
    trace = DecisionTrace(ring_size=4)
    for index in range(10):
        trace.record(float(index), "mn0", "decision", ["better-tier"])
    assert len(trace.records) == 4
    assert trace.counts["policy.decisions"] == 10
    rendered = trace.render(limit=2)
    assert "policy.better_tier" in rendered
    assert "last 2 of 4 buffered records" in rendered


def test_trace_render_and_records_are_the_ring_fields():
    """The ring keeps each record's fields and builds records only when
    read: over a ring that has wrapped, ``records`` and ``render`` give
    exactly what a ring of ``DecisionRecord``s gave."""
    trace = DecisionTrace(ring_size=4)
    trace.record(0.5, "mn0", "decision",
                 ["out-of-coverage", "speed-at-or-above-threshold", "prefer-macro"],
                 target="R1")
    trace.record(1.25, "mn0", "handoff", ["air-budget-exceeded"],
                 action="escalate_tier", target="R2")
    trace.record(2.0, "mobile-17", "attach", ["channel-pool-full"],
                 action="retry_same_tier", target="B")
    trace.record(12.125, "mn2", "attach", ["channel-pool-full"], action="stop")
    trace.record(130.0, "mn3", "handoff", ["handoff-timeout"], action="stop")
    trace.record(131.5, "mn3", "decision",
                 ["better-tier", "speed-and-demand-below-thresholds", "prefer-micro"],
                 target="A")
    assert len(trace) == 4
    assert list(trace.records) == [
        DecisionRecord(2.0, "mobile-17", "attach", "retry_same_tier",
                       ("channel-pool-full",), "B"),
        DecisionRecord(12.125, "mn2", "attach", "stop", ("channel-pool-full",)),
        DecisionRecord(130.0, "mn3", "handoff", "stop", ("handoff-timeout",)),
        DecisionRecord(131.5, "mn3", "decision", "",
                       ("better-tier", "speed-and-demand-below-thresholds",
                        "prefer-micro"), "A"),
    ]
    counters = (
        "  policy.decisions            2\n"
        "  policy.out_of_coverage      1\n"
        "  policy.airtime_relief       0\n"
        "  policy.better_tier          1\n"
        "  policy.signal_hysteresis    0\n"
        "  policy.retry_same_tier      1\n"
        "  policy.escalate_tier        1\n"
        "  policy.admission_reject     1\n"
        "  policy.handoff_reject       0\n"
        "  policy.handoff_timeout      1\n"
        "  4 moves refused:\n"
        "            2  attach  channel-pool-full\n"
        "            1  handoff air-budget-exceeded\n"
        "            1  handoff handoff-timeout\n"
    )
    last_two = (
        "    t=  130.000  mn3    handoff -> stop [handoff-timeout]\n"
        "    t=  131.500  mn3    decision target=A "
        "[better-tier, speed-and-demand-below-thresholds, prefer-micro]"
    )
    assert trace.render() == (
        "decision trace:\n" + counters
        + "  last 4 of 4 buffered records (ring size 4):\n"
        "    t=    2.000  mobile-17 attach -> retry_same_tier target=B "
        "[channel-pool-full]\n"
        "    t=   12.125  mn2    attach -> stop [channel-pool-full]\n"
        + last_two
    )
    assert trace.render("mega trace", limit=2) == (
        "mega trace:\n" + counters
        + "  last 2 of 4 buffered records (ring size 4):\n" + last_two
    )


# ----------------------------------------------------------------------
# Air interface: admission control + FIFO airtime
# ----------------------------------------------------------------------
def _channel(**kwargs):
    from repro.radio.channel import SharedChannel
    from repro.sim import Simulator

    sim = Simulator()
    return sim, SharedChannel(sim, "air", 8000.0, 4000.0, **kwargs)


def test_admission_disabled_always_admits():
    _sim, channel = _channel()
    channel.attach(0, demand=1e12)
    assert channel.admit(1, 1e12) is True


def test_admission_rejects_over_budget_and_counts():
    _sim, channel = _channel(admission_factor=1.0)
    channel.attach(0, demand=6000.0)
    # Budget is 8000 bit/s: 6000 committed + 4000 asked exceeds it.
    assert channel.admit(1, 4000.0) is False
    # A pure check: the answer is all it leaves behind.
    assert channel.claims == {0: 6000.0} and channel.attached == {0}
    assert channel.admit(1, 2000.0) is True


def test_admission_excludes_the_askers_own_claim():
    # A handing-off mobile attaches its signalling claim to the new
    # cell BEFORE asking; the check must evaluate the cell as if that
    # claim were replaced by the declared demand, not doubled.
    _sim, channel = _channel(admission_factor=1.0)
    channel.attach(7, demand=5000.0)
    assert channel.admit(7, 5000.0)
    channel.attach(1, demand=5000.0)
    assert not channel.admit(7, 5000.0)


def test_detach_releases_the_claim():
    _sim, channel = _channel(admission_factor=1.0)
    channel.attach(0, demand=8000.0)
    assert not channel.admit(1, 4000.0)
    channel.detach(0)
    assert channel.admit(1, 4000.0)


def test_unweighted_channel_keeps_fifo_order():
    from repro.net import Link, Node, Packet
    from repro.radio.channel import DOWNLINK

    sim, channel = _channel()
    channel.attach(0, demand=24e3)
    channel.attach(1, demand=8e3)
    log = []

    def pair(name, address, key):
        bs = Node(sim, f"bs-{name}", f"10.0.1.{key + 1}")
        mobile = Node(sim, name, address)
        mobile.on_default(lambda packet, link: log.append(name))
        return Link(
            sim, bs, mobile, bandwidth=100e6,
            shared_channel=channel, channel_direction=DOWNLINK,
            channel_key=key,
        )

    heavy, light = pair("heavy", "10.99.0.1", 0), pair("light", "10.99.0.2", 1)
    for seq in range(2):
        light.transmit(Packet(src="10.0.0.1", dst="10.99.0.2", size=500, seq=seq))
        heavy.transmit(Packet(src="10.0.0.1", dst="10.99.0.1", size=500, seq=seq))
    sim.run()
    # FIFO ignores the claims entirely: same-instant submissions sort
    # by (time, key), so both key-0 packets drain before key 1 gets a
    # grant — no demand-proportional interleaving.
    assert log == ["heavy", "heavy", "light", "light"]


# ----------------------------------------------------------------------
# Spec plumbing: validation, metric gating, sweep axes
# ----------------------------------------------------------------------
def test_spec_coerces_mapping_policy_blocks():
    from repro.scenarios import get_scenario

    spec = get_scenario("city-rush-hour").replace(
        policy={"speed_threshold": 10.0}
    )
    assert isinstance(spec.policy, PolicyConfig)
    assert spec.policy.speed_threshold == 10.0
    assert not spec.policy.is_default()


@pytest.mark.parametrize(
    "block, match",
    [
        ({"admission_factor": 1.0}, "admission_factor requires shared channels"),
    ],
)
def test_spec_rejects_air_controls_without_channels(block, match):
    from repro.scenarios import get_scenario

    base = get_scenario("city-rush-hour")
    assert not base.channels_enabled()
    with pytest.raises(ValueError, match=match):
        base.replace(policy=block)


def test_default_policy_emits_no_policy_metrics():
    from repro.scenarios import get_scenario, run_scenario_spec

    spec = get_scenario("campus-air").smoke()
    assert spec.policy.is_default()
    metrics = run_scenario_spec(spec, spec.seeds[0])
    assert not any(key.startswith("policy.") for key in metrics)


def test_non_default_policy_emits_every_policy_metric_key():
    from repro.scenarios import get_scenario, run_scenario_spec

    spec = get_scenario("city-rush-hour").smoke().replace(
        policy=PolicyConfig(speed_threshold=10.0)
    )
    metrics = run_scenario_spec(spec, spec.seeds[0])
    for key in POLICY_METRIC_KEYS:
        assert key in metrics
        assert metrics[key] == metrics[key]  # not NaN


def test_admission_enabled_campus_air_rejects_and_escalates():
    """ISSUE acceptance: a constrained admission run shows nonzero
    ``policy.admission_reject`` AND nonzero ``ESCALATE_TIER`` fallbacks."""
    from repro.scenarios import get_scenario, run_scenario_trace

    spec = get_scenario("campus-air").replace(
        policy=PolicyConfig(admission_factor=0.25)
    )
    metrics, trace = run_scenario_trace(spec, spec.seeds[0])
    assert metrics["policy.admission_reject"] > 0
    assert metrics["policy.escalate_tier"] > 0
    escalations = [
        record for record in trace.records
        if record.action == "escalate_tier"
    ]
    assert escalations
    assert all(record.reasons for record in trace.records)


def test_policy_sweep_axis_validates_and_derives():
    from repro.scenarios import ScenarioSweep, get_scenario

    sweep = ScenarioSweep(
        name="t/speed",
        scenario="city-rush-hour",
        field="policy.speed_threshold",
        values=(5.0, 25.0),
        metrics=("handoffs",),
    )
    assert sweep.axis_label() == "speed_threshold"
    base = get_scenario("city-rush-hour")
    derived = sweep.derive(base, 25.0)
    assert derived.policy.speed_threshold == 25.0
    assert derived.policy.mode == base.policy.mode
    assert base.policy.speed_threshold == 15.0  # base untouched


def test_policy_sweep_axis_rejects_unknown_and_invalid():
    from repro.scenarios import ScenarioSweep, get_scenario

    with pytest.raises(ValueError, match="unknown policy key"):
        ScenarioSweep(
            name="t/bad", scenario="city-rush-hour",
            field="policy.mode", values=(1.0, 2.0), metrics=("handoffs",),
        )
    sweep = ScenarioSweep(
        name="t/neg", scenario="city-rush-hour",
        field="policy.speed_threshold", values=(-5.0, 5.0),
        metrics=("handoffs",),
    )
    with pytest.raises(ValueError, match="t/neg.*speed_threshold"):
        sweep.derive(get_scenario("city-rush-hour"), -5.0)


def test_shipped_speed_threshold_sweep_is_registered():
    from repro.scenarios import get_sweep

    sweep = get_sweep("city-rush-hour/speed-threshold")
    assert sweep.field == "policy.speed_threshold"
    assert "policy.decisions" in sweep.metrics
    specs = sweep.derived_specs()
    assert all(not spec.policy.is_default() for spec in specs)
