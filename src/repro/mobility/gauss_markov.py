"""Gauss-Markov mobility: temporally correlated speed and heading.

Tunable between random-walk (alpha=0) and straight-line (alpha=1)
movement; the standard model when memory-less models are too jumpy.
"""

from __future__ import annotations

import math

import numpy as np

from repro.mobility.base import MobilityModel
from repro.radio.geometry import Point, Rectangle
from repro.sim.rng import standard_normals

#: Standard deviations of the speed (m/s) and heading (rad) innovations.
SPEED_SIGMA = 1.0
HEADING_SIGMA = 0.4


class GaussMarkov(MobilityModel):
    def __init__(
        self,
        start: Point,
        bounds: Rectangle,
        rng: np.random.Generator,
        mean_speed: float = 5.0,
        alpha: float = 0.85,
    ) -> None:
        super().__init__(start, bounds)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        if not mean_speed > 0:  # nan fails too
            raise ValueError(f"mean_speed must be positive, got {mean_speed}")
        self.alpha = alpha
        self.mean_speed = mean_speed
        self._current_speed = mean_speed
        self._heading = float(rng.uniform(0.0, 2.0 * math.pi))
        self._mean_heading = self._heading
        # The model is its generator's only reader from here on.
        self._normal = standard_normals(rng).__next__

    def advance(self, dt: float) -> Point:
        alpha = self.alpha
        root = math.sqrt(max(1.0 - alpha * alpha, 0.0))
        # Each ``0.0 + 1.0 * z`` is numpy's normal(), bit for bit.
        self._current_speed = (
            alpha * self._current_speed
            + (1 - alpha) * self.mean_speed
            + root * SPEED_SIGMA * (0.0 + 1.0 * self._normal())
        )
        self._current_speed = max(self._current_speed, 0.0)
        self._heading = (
            alpha * self._heading
            + (1 - alpha) * self._mean_heading
            + root * HEADING_SIGMA * (0.0 + 1.0 * self._normal())
        )
        step = self._current_speed * dt
        candidate = self._position.offset(
            step * math.cos(self._heading), step * math.sin(self._heading)
        )
        if not self.bounds.contains(candidate):
            candidate, flip_x, flip_y = self.bounds.reflect(candidate)
            if flip_x:
                self._heading = math.pi - self._heading
                self._mean_heading = math.pi - self._mean_heading
            if flip_y:
                self._heading = -self._heading
                self._mean_heading = -self._mean_heading
        return self._move_to(candidate, dt)
