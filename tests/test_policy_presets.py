"""S4: ablation policies as :class:`PolicyConfig` presets, and reasons.

The E9 tier-policy ablation builds its arms as ``TierDecider(mode=...)``.
These tests pin that expressing each arm as a ``PolicyConfig`` preset
(built through
:meth:`TierDecider.from_config <repro.policy.decider.TierDecider.from_config>`)
produces a byte-identical E9 table — a preset is the same policy, not a
near-miss — and that every decision an instrumented world emits carries
at least one machine-readable reason.
"""

import pytest

from repro.policy import PRESETS, PolicyConfig, TierDecider


# Small-but-nonempty E9 parameters: enough motion for handoffs under
# every policy, seconds of wall clock instead of the default minutes.
_E9_PARAMS = dict(seeds=(1, 2), duration=60.0, vehicles=2, pedestrians=2)


def test_e9_preset_policies_reproduce_legacy_table(monkeypatch):
    """PRESETS-built deciders replicate the E9 arms byte-for-byte."""
    from repro.experiments import ablations

    baseline = ablations.experiment_e9(**_E9_PARAMS)

    monkeypatch.setattr(
        ablations, "TierDecider",
        lambda mode: TierDecider.from_config(PRESETS[mode]),
    )
    via_presets = ablations.experiment_e9(**_E9_PARAMS)

    assert via_presets.text == baseline.text


@pytest.mark.parametrize("mode", sorted(PRESETS))
def test_presets_match_their_modes(mode):
    preset = PRESETS[mode]
    assert preset.mode == mode
    decider = TierDecider.from_config(preset)
    assert decider.mode == mode
    # Legacy threshold defaults: presets reproduce historical behavior.
    assert decider.speed_threshold == 15.0
    assert decider.demand_threshold == 200e3


def test_every_emitted_decision_carries_a_reason():
    """No decision or fallback leaves the trace without an explanation."""
    from repro.scenarios import get_scenario, run_scenario_trace

    spec = get_scenario("city-rush-hour")
    _metrics, trace = run_scenario_trace(spec, spec.seeds[0])
    assert trace is not None
    assert len(trace.records) > 0  # the run produced decisions at all
    for record in trace.records:
        assert len(record.reasons) >= 1, record
        assert all(isinstance(reason, str) and reason for reason in record.reasons)


def test_every_decision_in_contention_run_carries_a_reason():
    """Same invariant under per-cell air-interface contention."""
    from repro.scenarios import get_scenario, run_scenario_trace

    spec = get_scenario("campus-air")
    assert spec.channels_enabled()
    _metrics, trace = run_scenario_trace(spec.smoke(), spec.seeds[0])
    assert trace is not None
    for record in trace.records:
        assert len(record.reasons) >= 1, record


def test_default_config_is_default_and_presets_are_not_unless_speed_aware():
    assert PolicyConfig().is_default()
    assert PRESETS["speed-aware"].is_default()
    for mode in ("always-strongest", "always-micro", "always-macro"):
        assert not PRESETS[mode].is_default()
