"""Manhattan-grid mobility: movement constrained to a street grid with
probabilistic turns at intersections — the urban micro-cell workload."""

from __future__ import annotations

import numpy as np

from repro.mobility.base import MobilityModel
from repro.radio.geometry import Point, Rectangle

_DIRECTIONS = {
    "east": (1.0, 0.0),
    "west": (-1.0, 0.0),
    "north": (0.0, 1.0),
    "south": (0.0, -1.0),
}
_TURNS = {
    "east": ("north", "south"),
    "west": ("north", "south"),
    "north": ("east", "west"),
    "south": ("east", "west"),
}


class ManhattanGrid(MobilityModel):
    def __init__(
        self,
        start: Point,
        bounds: Rectangle,
        rng: np.random.Generator,
        block_size: float = 100.0,
        speed: float = 8.0,
    ) -> None:
        if not block_size > 0:  # nan fails too
            raise ValueError(f"block_size must be positive, got {block_size}")
        if not speed > 0:
            raise ValueError(f"speed must be positive, got {speed}")
        # Snap the start onto the nearest street (grid line).
        snapped = Point(
            bounds.x_min + round((start.x - bounds.x_min) / block_size) * block_size,
            bounds.y_min + round((start.y - bounds.y_min) / block_size) * block_size,
        )
        super().__init__(bounds.clamp(snapped), bounds)
        self._rng = rng
        self.block_size = block_size
        self._constant_speed = speed
        self._direction = str(rng.choice(list(_DIRECTIONS)))
        self._to_next_intersection = block_size

    def advance(self, dt: float) -> Point:
        remaining = dt
        position = self._position
        while remaining > 1e-12:
            travel = self._constant_speed * remaining
            if travel < self._to_next_intersection:
                position = self._step(position, travel)
                self._to_next_intersection -= travel
                remaining = 0.0
            else:
                position = self._step(position, self._to_next_intersection)
                remaining -= self._to_next_intersection / self._constant_speed
                self._to_next_intersection = self.block_size
                self._maybe_turn(position)
        moved = self._move_to(position, dt)
        self._speed = self._constant_speed
        return moved

    def _step(self, position: Point, distance: float) -> Point:
        dx, dy = _DIRECTIONS[self._direction]
        candidate = position.offset(dx * distance, dy * distance)
        if not self.bounds.contains(candidate):
            candidate = self.bounds.clamp(candidate)
            self._direction = _opposite(self._direction)
        return candidate

    def _maybe_turn(self, position: Point) -> None:
        if float(self._rng.random()) < 0.5:  # turn at one crossing in two
            options = _TURNS[self._direction]
            self._direction = str(self._rng.choice(list(options)))
        # Never drive off the grid: turn away from a wall we are hugging.
        dx, dy = _DIRECTIONS[self._direction]
        probe = position.offset(dx * self.block_size, dy * self.block_size)
        if not self.bounds.contains(probe):
            self._direction = _opposite(self._direction)


def _opposite(direction: str) -> str:
    return {"east": "west", "west": "east", "north": "south", "south": "north"}[
        direction
    ]
