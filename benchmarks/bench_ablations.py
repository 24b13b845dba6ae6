"""Design-choice ablations from DESIGN.md §6: RSMC buffer depth and
location-record lifetime ratio."""

from repro.experiments.ablations import ablation_buffer_size, ablation_record_lifetime


def test_bench_ablation_buffer_size(run_once):
    result = run_once(ablation_buffer_size)

    loss = result.series["loss_rate"]
    # Shape: a one-packet buffer loses packets during the handoff window;
    # a deep buffer does not.
    assert loss[0] >= loss[-1]
    assert loss[-1] < 0.01


def test_bench_ablation_record_lifetime(run_once):
    result = run_once(ablation_record_lifetime)

    loss = result.series["loss_rate"]
    records = result.series["records_at_root"]
    # Shape: once the lifetime comfortably exceeds the refresh period the
    # stream is clean; state at the root never exceeds one record per MN
    # per table by much.
    assert loss[-1] < 0.01
    assert all(value <= 2.0 for value in records)
