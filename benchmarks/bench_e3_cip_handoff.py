"""E3 (Fig 2.4): Cellular IP hard vs semisoft handoff.

Loss per handoff for the break-then-make hard scheme versus the
dual-path semisoft scheme, across handoff rates.
"""

from repro.experiments.figures import experiment_e3


def test_bench_e3_hard_vs_semisoft(run_once):
    result = run_once(experiment_e3)

    hard = result.series["hard_loss_rate"]
    semisoft = result.series["semisoft_loss_rate"]
    # Shape: hard handoff always loses at least as much as semisoft, and
    # strictly more when handoffs are frequent.
    assert all(h >= s for h, s in zip(hard, semisoft))
    assert hard[0] > semisoft[0]
    # Shape: hard-handoff loss decreases as handoffs get rarer.
    assert hard[0] > hard[-1]
    # Semisoft keeps loss (near) zero everywhere.
    assert max(semisoft) < 0.01
