#!/usr/bin/env python3
"""The speed factor: a vehicle and a pedestrian roam the same strip.

Demonstrates §3.2's three-factor handoff decision.  The controller
samples each mobile's mobility model, surveys cell signals, and applies
the tier-selection policy: the 25 m/s vehicle is parked on the macro
umbrella (few handoffs), while the 1.5 m/s pedestrian lives on the
high-bandwidth micro tier.

Run:  python examples/highway_vs_walk.py
"""

import numpy as np

from repro.mobility import Highway, RandomWaypoint
from repro.multitier.architecture import WORLD_BOUNDS, MultiTierWorld
from repro.radio.geometry import Point, Rectangle


def main() -> None:
    rng = np.random.default_rng(7)
    world = MultiTierWorld()
    sim = world.sim

    vehicle = world.add_mobile("vehicle")
    vehicle_controller = world.add_controller(
        vehicle,
        Highway(Point(-4000, 0), WORLD_BOUNDS, rng, speed=25.0, wrap=False),
    )

    pedestrian = world.add_mobile("pedestrian")
    pedestrian_controller = world.add_controller(
        pedestrian,
        RandomWaypoint(
            Point(-2000, 0),
            Rectangle(-2500, -300, -1500, 300),
            rng,
            speed_range=(1.0, 2.0),
        ),
    )

    # Log serving cells over time.
    def reporter():
        while True:
            yield 30.0
            for mobile, controller in (
                (vehicle, vehicle_controller),
                (pedestrian, pedestrian_controller),
            ):
                bs = mobile.serving_bs
                tier = mobile.serving_tier.label if bs else "-"
                print(
                    f"[t={sim.now:5.0f}s] {mobile.name:10s} on "
                    f"{bs.name if bs else 'nothing':6s} ({tier}) "
                    f"speed={controller.model.speed:4.1f} m/s "
                    f"handoffs={controller.handoffs}"
                )

    sim.process(reporter())
    sim.run(until=240.0)

    print()
    for mobile, controller in (
        (vehicle, vehicle_controller),
        (pedestrian, pedestrian_controller),
    ):
        per_min = controller.handoffs / 4.0
        print(
            f"{mobile.name}: {controller.handoffs} handoffs in 4 min "
            f"({per_min:.2f}/min), finished on the "
            f"{mobile.serving_tier.label if mobile.serving_bs else '?'} tier"
        )


if __name__ == "__main__":
    main()
