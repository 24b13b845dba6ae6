"""Highway mobility: constant-speed travel along a straight road.

This is the vehicular extreme of the paper's speed spectrum — the class
of users its macro-tier exists for.  The road is a horizontal segment
across the bounds; vehicles wrap (re-enter) or bounce at the ends.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mobility.base import MobilityModel
from repro.radio.geometry import Point, Rectangle
from repro.sim.rng import standard_normals


class Highway(MobilityModel):
    def __init__(
        self,
        start: Point,
        bounds: Rectangle,
        rng: Optional[np.random.Generator] = None,
        speed: float = 25.0,
        wrap: bool = True,
        speed_jitter: float = 0.0,
    ) -> None:
        super().__init__(start, bounds)
        if not speed > 0:  # nan fails too
            raise ValueError(f"speed must be positive, got {speed}")
        if not speed_jitter >= 0:  # nan fails too
            raise ValueError(f"speed_jitter must be non-negative, got {speed_jitter}")
        if speed_jitter > 0:
            if rng is None:
                raise ValueError("speed_jitter requires an rng")
            self._normal = standard_normals(rng).__next__
        self.base_speed = speed
        self.direction = 1  # +1 east, -1 west; a bounce flips it
        self.wrap = wrap
        self.speed_jitter = speed_jitter
        self._lane_y = start.y

    def advance(self, dt: float) -> Point:
        speed = self.base_speed
        if self.speed_jitter > 0:
            # numpy's normal(0.0, jitter), bit for bit
            speed = max(0.1, speed + (0.0 + self.speed_jitter * self._normal()))
        x = self._position.x + self.direction * speed * dt
        if self.wrap:
            width = self.bounds.width
            while x > self.bounds.x_max:
                x -= width
            while x < self.bounds.x_min:
                x += width
        else:
            if x > self.bounds.x_max:
                x = self.bounds.x_max - (x - self.bounds.x_max)
                self.direction = -1
            elif x < self.bounds.x_min:
                x = self.bounds.x_min + (self.bounds.x_min - x)
                self.direction = 1
        moved = self._move_to(Point(x, self._lane_y), dt)
        self._speed = speed
        return moved
