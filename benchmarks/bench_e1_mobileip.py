"""E1 (Fig 2.2): Mobile IP registration latency & triangle routing.

Regenerates the Mobile IP procedure costs: registration latency and
CN->MN path stretch as the home agent moves farther away.
"""

from repro.experiments.figures import experiment_e1


def test_bench_e1_registration_and_triangle(run_once):
    result = run_once(experiment_e1)

    latency = result.series["registration_latency"]
    stretch = result.series["triangle_stretch"]
    # Shape: latency grows monotonically with backbone delay.
    assert all(b > a for a, b in zip(latency, latency[1:]))
    # Shape: the triangle detour makes the downlink strictly longer.
    assert all(value > 1.0 for value in stretch)
