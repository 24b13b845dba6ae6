"""E7 (Fig 3.4): the three intra-domain handoff cases, plus the
channel-overflow fallback (case c's "turn to macro-cell").
"""

from repro.experiments.figures import experiment_e7, experiment_e7_blocking


def test_bench_e7_handoff_cases(run_once):
    result = run_once(experiment_e7)

    interruptions = result.series["interruption"]
    losses = result.series["loss_rate"]
    # Shape: all three cases complete with sub-100 ms interruption and no
    # loss (RSMC buffering covers the switch).
    assert all(value < 0.1 for value in interruptions)
    assert all(value < 0.01 for value in losses)


def test_bench_e7_overflow_blocking(run_once):
    result = run_once(experiment_e7_blocking)

    with_overflow = result.series["success_with_overflow"]
    without = result.series["success_without_overflow"]
    # Shape: once the micro cell saturates (load >= 8 channels), plain
    # handoffs block but the paper's macro fallback still succeeds.
    assert all(value == 1.0 for value in with_overflow)
    assert without[0] == 1.0
    assert without[-1] == 0.0
