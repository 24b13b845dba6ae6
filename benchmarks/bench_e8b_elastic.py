"""E8b: elastic (AIMD/TCP-like) traffic under handoffs.

Handoff packet loss translates into window collapse for elastic
traffic — the §2.2.2 claim that semisoft handoff "provid[es] improved
TCP ... performance over hard handoff", extended to the paper's RSMC.
"""

from repro.experiments.figures import experiment_e8b


def test_bench_e8b_elastic_goodput(run_once):
    result = run_once(experiment_e8b)

    schemes = result.x_values
    goodput = dict(zip(schemes, result.series["goodput_bps"]))
    lossy = dict(zip(schemes, result.series["lossy_windows"]))
    window = dict(zip(schemes, result.series["final_window"]))

    # Shape: hard handoff loses windows; the loss-free schemes do not
    # and keep at least its goodput.
    assert lossy["cip-hard"] > 0
    assert lossy["cip-semisoft"] == 0
    assert lossy["multitier-rsmc"] == 0
    assert goodput["multitier-rsmc"] >= goodput["cip-hard"]
    assert goodput["cip-semisoft"] >= goodput["cip-hard"]
    assert window["multitier-rsmc"] >= window["cip-hard"]
