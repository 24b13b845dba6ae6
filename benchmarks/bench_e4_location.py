"""E4 (Fig 3.1): hierarchical location-management load.

Signalling and table occupancy versus the number of mobiles in the
Fig 3.1 hierarchy.
"""

from repro.experiments.figures import experiment_e4


def test_bench_e4_location_load(run_once):
    result = run_once(experiment_e4)

    msgs = result.series["location_msgs_per_s"]
    records = result.series["table_records"]
    per_station = result.series["records_per_station"]
    # Shape: signalling and state grow linearly with the population.
    assert msgs[-1] > msgs[0] * 4
    assert records[-1] > records[0] * 4
    # Hierarchy spreads records: per-station state stays well below the
    # total (each branch only stores its own mobiles).
    assert all(p < r for p, r in zip(per_station, records))
