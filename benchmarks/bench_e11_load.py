"""E11: foreground video QoS vs background load (§4 capability d).

The QoS-degradation curve: delay/jitter climb toward the backhaul
bottleneck, loss appears past saturation.
"""

from repro.experiments.figures import experiment_e11


def test_bench_e11_qos_under_load(run_once):
    result = run_once(experiment_e11)

    offered = result.series["offered_load"]
    loss = result.series["loss_rate"]
    delay = result.series["mean_delay"]
    # Shape: no loss and modest delay below saturation; clear loss and a
    # delay blow-up once offered load exceeds the bottleneck.
    below = [l for o, l in zip(offered, loss) if o < 0.95]
    above = [l for o, l in zip(offered, loss) if o > 1.05]
    assert all(value < 0.01 for value in below)
    assert above and all(value > 0.02 for value in above)
    assert delay[-1] > 3 * delay[0]
