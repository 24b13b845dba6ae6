"""Random-waypoint mobility: pick a destination, walk there at a random
speed, pause, repeat.  The standard pedestrian model."""

from __future__ import annotations

import numpy as np

from repro.mobility.base import MobilityModel
from repro.radio.geometry import Point, Rectangle


class RandomWaypoint(MobilityModel):
    def __init__(
        self,
        start: Point,
        bounds: Rectangle,
        rng: np.random.Generator,
        speed_range: tuple[float, float] = (0.5, 2.0),
        pause_range: tuple[float, float] = (0.0, 10.0),
    ) -> None:
        super().__init__(start, bounds)
        # Written so that nan fails too.
        if not (speed_range[0] > 0 and speed_range[1] >= speed_range[0]):
            raise ValueError(
                f"speed_range must be positive and ordered, got {speed_range}"
            )
        if not (pause_range[0] >= 0 and pause_range[1] >= pause_range[0]):
            raise ValueError(
                f"pause_range must be non-negative and ordered, got {pause_range}"
            )
        self._rng = rng
        self.speed_range = speed_range
        self.pause_range = pause_range
        self._target = self._pick_target()
        self._leg_speed = self._pick_speed()
        self._pause_left = 0.0

    def _pick_target(self) -> Point:
        return Point(
            float(self._rng.uniform(self.bounds.x_min, self.bounds.x_max)),
            float(self._rng.uniform(self.bounds.y_min, self.bounds.y_max)),
        )

    def _pick_speed(self) -> float:
        low, high = self.speed_range
        return float(self._rng.uniform(low, high))

    def _pick_pause(self) -> float:
        low, high = self.pause_range
        if high == low:
            return low
        return float(self._rng.uniform(low, high))

    def advance(self, dt: float) -> Point:
        remaining = dt
        position = self._position
        while remaining > 1e-12:
            if self._pause_left > 0:
                pause = min(self._pause_left, remaining)
                self._pause_left -= pause
                remaining -= pause
                continue
            gap = position.distance_to(self._target)
            step = self._leg_speed * remaining
            if step < gap:
                position = position.towards(self._target, step)
                remaining = 0.0
            else:
                # Arrive, pause, choose the next leg.
                position = self._target
                remaining -= gap / self._leg_speed if self._leg_speed > 0 else remaining
                self._pause_left = self._pick_pause()
                self._target = self._pick_target()
                self._leg_speed = self._pick_speed()
        # Speed reported is the leg speed (zero while pausing).
        moved = self._move_to(position, dt)
        if self._pause_left > 0 and position == self._target:
            self._speed = 0.0
        return moved
