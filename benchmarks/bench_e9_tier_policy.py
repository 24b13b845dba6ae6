"""E9 (§3.2): the speed factor of the handoff decision.

Vehicles and pedestrians roam the Fig 3.1 strip under three tier
policies; the paper's speed-aware policy should park vehicles on the
macro umbrella and cut their handoff churn.
"""

from repro.experiments.ablations import experiment_e9


def test_bench_e9_policy_ablation(run_once):
    result = run_once(experiment_e9)

    policies = result.x_values
    vehicle = dict(zip(policies, result.series["vehicle_handoffs_per_min"]))
    on_macro = dict(zip(policies, result.series["vehicles_on_macro"]))

    # Shape: the paper's policy produces the least vehicle churn and
    # keeps vehicles on the macro tier; always-micro churns the most.
    assert vehicle["speed-aware (paper)"] <= vehicle["always-strongest"]
    assert vehicle["speed-aware (paper)"] < vehicle["always-micro"]
    assert on_macro["speed-aware (paper)"] >= on_macro["always-micro"]
