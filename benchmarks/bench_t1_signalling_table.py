"""T1: control message-hops per handoff type (§3/§4 accounting)."""

from repro.experiments.ablations import experiment_t1


def test_bench_t1_signalling_accounting(run_once):
    result = run_once(experiment_t1)

    cases = result.x_values
    registrations = dict(zip(cases, result.series["mip-reg-request"]))
    mnld = dict(zip(cases, result.series["mnld-update"]))
    updates = dict(zip(cases, result.series["mt-update-location"]))

    # Shape: only the different-upper inter-domain case touches the
    # home network and the MNLD.
    for case in cases:
        if "diff-upper" in case:
            assert registrations[case] > 0
            assert mnld[case] > 0
        else:
            assert registrations[case] == 0
            assert mnld[case] == 0
    # Every handoff sends exactly one Update Location Message (hop count
    # equals the branch length, always >= 2: radio hop + at least one
    # wired hop).
    assert all(value >= 2 for value in updates.values())
