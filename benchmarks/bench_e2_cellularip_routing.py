"""E2 (Fig 2.3): Cellular IP routing-cache maintenance costs.

Signalling rate vs route-update period, and the cache-miss cliff once
the update period exceeds the route timeout.
"""

from repro.experiments.figures import experiment_e2


def test_bench_e2_signalling_vs_refresh(run_once):
    result = run_once(experiment_e2)

    control = result.series["control_packets_per_s"]
    miss = result.series["miss_rate"]
    # Shape: signalling decreases as the update period grows.
    assert all(b <= a for a, b in zip(control, control[1:]))
    # Shape: near-zero misses while period < timeout (first two points),
    # large misses once period >> timeout (last point).
    assert miss[0] < 0.05 and miss[1] < 0.05
    assert miss[-1] > 0.4
