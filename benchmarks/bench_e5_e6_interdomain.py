"""E5/E6 (Figs 3.2/3.3): inter-domain handoff, same vs different
upper BS.

The same-upper case resolves inside the domain hierarchy; the
different-upper case pays authentication plus the home-network round
trip, so its service interruption grows with home-agent distance.
"""

from repro.experiments.figures import experiment_e5_e6


def test_bench_e5_e6_interdomain(run_once):
    result = run_once(experiment_e5_e6)

    same_gap = result.series["same_upper_gap"]
    diff_gap = result.series["diff_upper_gap"]
    ha_involved = result.series["diff_ha_involved"]
    # Shape: the home network is involved only in the different-upper case,
    # whose interruption exceeds same-upper everywhere and grows with
    # home distance, while same-upper stays flat.
    assert all(d > s for d, s in zip(diff_gap, same_gap))
    assert diff_gap[-1] > diff_gap[0]
    assert max(same_gap) - min(same_gap) < 0.02
    assert all(value == 1.0 for value in ha_involved)
