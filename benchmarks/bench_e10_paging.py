"""E10: idle-mode paging economy.

Idle mobiles maintained by slow paging-updates versus a no-paging
system where they must refresh route caches at the fast cadence.
"""

import math

from repro.experiments.figures import experiment_e10


def test_bench_e10_paging_economy(run_once):
    result = run_once(experiment_e10)

    savings = result.series["savings_factor"]
    delays = result.series["paging_first_packet_delay"]
    # Shape: paging saves roughly the period ratio (10x) in control load.
    assert all(value > 4.0 for value in savings)
    # And idle mobiles remain reachable (paging found them).
    assert all(not math.isnan(value) for value in delays)
    assert all(value < 0.5 for value in delays)
