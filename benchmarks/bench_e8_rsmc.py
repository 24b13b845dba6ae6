"""E8 (Fig 4.1): the headline scheme comparison.

CBR multimedia stream to a roaming mobile under four mobility schemes:
pure Mobile IP, flat Cellular IP hard and semisoft handoff, and the
paper's multi-tier + RSMC.  The paper's claims are the ordering of the
loss and delay columns.
"""

import math

from repro.experiments.figures import experiment_e8


def test_bench_e8_scheme_comparison(run_once):
    result = run_once(experiment_e8)

    schemes = result.x_values
    loss = dict(zip(schemes, result.series["loss_rate"]))
    delay = dict(zip(schemes, result.series["mean_delay"]))
    gap = dict(zip(schemes, result.series["max_gap"]))

    # Paper claim (shape): the proposed scheme loses (almost) nothing,
    # like semisoft, while plain Mobile IP loses the most.
    assert loss["mobile-ip"] > loss["cip-hard"] >= loss["cip-semisoft"]
    assert loss["multitier-rsmc"] <= loss["cip-hard"]
    assert loss["multitier-rsmc"] < 0.005
    # Paper claim: QoS (delay) — Mobile IP pays the triangle route.
    assert delay["mobile-ip"] > delay["cip-hard"]
    # Interruption: Mobile IP's registration gap dominates everyone's.
    assert gap["mobile-ip"] >= max(gap["cip-semisoft"], gap["multitier-rsmc"])
    assert all(not math.isnan(value) for value in result.series["mean_delay"])
