"""T2 (§1 claim): location-management scaling, hierarchy vs a flat
central registration scheme."""

from repro.experiments.ablations import experiment_t2


def test_bench_t2_scaling(run_once):
    result = run_once(experiment_t2)

    hier = result.series["location_msgs_per_s"]
    flat = result.series["flat_central_msg_hops_per_s"]
    station_load = result.series["max_station_load_per_s"]
    updates = result.series["update_rate_per_s"]
    # Shape: the hierarchy spends fewer message-hops than routing every
    # refresh across the wired Internet to a central server.
    assert all(h < f for h, f in zip(hier, flat))
    # Per-station load never exceeds the aggregate update rate (the
    # hierarchy cannot be worse than the central server).
    assert all(s <= u * 1.01 for s, u in zip(station_load, updates))
