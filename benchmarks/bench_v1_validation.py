"""V1: simulator-vs-analysis validation table.

Compares the simulated channel-pool blocking probabilities against
Erlang-B and the guard-channel birth-death model — the credibility
check behind every admission-control number in E7/E7b.
"""

from repro.experiments.ablations import experiment_v1


def test_bench_v1_blocking_validation(run_once):
    result = run_once(experiment_v1)

    for analytic, simulated in zip(
        result.series["analytic_P_new"], result.series["sim_P_new"]
    ):
        assert abs(simulated - analytic) < max(0.15 * analytic, 0.01)
    for analytic, simulated in zip(
        result.series["analytic_P_ho"], result.series["sim_P_ho"]
    ):
        assert abs(simulated - analytic) < max(0.25 * analytic, 0.01)
