"""T2 (§1 claim): location-management scaling, hierarchy vs a flat
central registration scheme."""

from benchmarks.conftest import run_once
from repro.experiments.ablations import experiment_t2


def test_bench_t2_scaling(benchmark, record_result, execution_backend):
    # REPRO_BENCH_JOBS=N runs the four sweep points on N workers; the
    # table is identical either way, only the wall-clock shrinks.
    result = run_once(
        benchmark,
        lambda: experiment_t2(
            seeds=(1,),
            mobile_counts=(8, 16, 32, 64),
            duration=15.0,
            backend=execution_backend,
        ),
    )
    record_result(result)

    hier = result.series["hier_hops/s"]
    flat = result.series["flat_hops/s"]
    station_load = result.series["max_station_load/s"]
    updates = result.series["updates/s"]
    # Shape: the hierarchy spends fewer message-hops than routing every
    # refresh across the wired Internet to a central server.
    assert all(h < f for h, f in zip(hier, flat))
    # Per-station load never exceeds the aggregate update rate (the
    # hierarchy cannot be worse than the central server).
    assert all(s <= u * 1.01 for s, u in zip(station_load, updates))
