"""Random-direction ("fluid flow") mobility: travel in a straight line
until the boundary, bounce, continue.  Produces uniform spatial density
(unlike random waypoint's center bias), which is why fluid-flow models
were the norm for cell-boundary-crossing-rate analysis in the
mobility-management literature the paper draws on."""

from __future__ import annotations

import math

import numpy as np

from repro.mobility.base import MobilityModel
from repro.radio.geometry import Point, Rectangle


class RandomDirection(MobilityModel):
    def __init__(
        self,
        start: Point,
        bounds: Rectangle,
        rng: np.random.Generator,
        speed: float = 10.0,
        redirect_mean_interval: float = 60.0,
    ) -> None:
        super().__init__(start, bounds)
        if not speed > 0:  # nan fails too
            raise ValueError(f"speed must be positive, got {speed}")
        if not redirect_mean_interval > 0:
            raise ValueError(
                f"redirect_mean_interval must be positive, got {redirect_mean_interval}"
            )
        self._rng = rng
        self._constant_speed = speed
        self.redirect_mean_interval = redirect_mean_interval
        self._heading = float(rng.uniform(0.0, 2.0 * math.pi))
        self._until_redirect = float(rng.exponential(redirect_mean_interval))

    def advance(self, dt: float) -> Point:
        remaining = dt
        position = self._position
        while remaining > 1e-12:
            slice_dt = min(remaining, self._until_redirect)
            step = self._constant_speed * slice_dt
            candidate = position.offset(
                step * math.cos(self._heading), step * math.sin(self._heading)
            )
            if not self.bounds.contains(candidate):
                candidate, flip_x, flip_y = self.bounds.reflect(candidate)
                if flip_x:
                    self._heading = math.pi - self._heading
                if flip_y:
                    self._heading = -self._heading
            position = candidate
            self._until_redirect -= slice_dt
            remaining -= slice_dt
            if self._until_redirect <= 1e-12:
                self._heading = float(self._rng.uniform(0.0, 2.0 * math.pi))
                self._until_redirect = float(
                    self._rng.exponential(self.redirect_mean_interval)
                )
        moved = self._move_to(position, dt)
        self._speed = self._constant_speed
        return moved
