"""Planar geometry helpers for cell layouts and movement."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(slots=True, unsafe_hash=True)
class Point:
    """A point in meters on the simulation plane.

    A value: nothing writes to one.  It is slotted rather than frozen,
    because a frozen dataclass sets each field through
    ``object.__setattr__`` (about four times the plain constructor, and
    a mobile makes one per movement step).  Equality and the hash are
    the frozen class's: a frozen
    :class:`~repro.multitier.architecture.Site` hashes its point.
    """

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` in meters."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def towards(self, other: "Point", step: float) -> "Point":
        """The point ``step`` meters from here in the direction of ``other``.

        Does not overshoot: if ``other`` is closer than ``step``, returns
        ``other``.
        """
        gap = self.distance_to(other)
        if gap <= step or gap == 0.0:
            return other
        fraction = step / gap
        return Point(
            self.x + (other.x - self.x) * fraction,
            self.y + (other.y - self.y) * fraction,
        )

    def offset(self, dx: float, dy: float) -> "Point":
        """The point translated by ``(dx, dy)`` meters."""
        return Point(self.x + dx, self.y + dy)

    def __iter__(self):
        yield self.x
        yield self.y


ORIGIN = Point(0.0, 0.0)


@dataclass(frozen=True)
class Rectangle:
    """An axis-aligned bounding box ``[x_min, x_max] x [y_min, y_max]``."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError("degenerate rectangle")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def center(self) -> Point:
        return Point((self.x_min + self.x_max) / 2, (self.y_min + self.y_max) / 2)

    def contains(self, point: Point) -> bool:
        """True when ``point`` lies inside (or on the edge of) the box."""
        return (
            self.x_min <= point.x <= self.x_max
            and self.y_min <= point.y <= self.y_max
        )

    def clamp(self, point: Point) -> Point:
        """The nearest point inside the box (projection onto the edges)."""
        return Point(
            min(max(point.x, self.x_min), self.x_max),
            min(max(point.y, self.y_min), self.y_max),
        )

    def reflect(self, point: Point) -> tuple[Point, bool, bool]:
        """Mirror a point that stepped outside back inside.

        Returns the reflected point plus flags saying whether the x and/or
        y direction must be inverted (for billiard-style mobility models).
        """
        x, y = point.x, point.y
        flip_x = flip_y = False
        if x < self.x_min:
            x = 2 * self.x_min - x
            flip_x = True
        elif x > self.x_max:
            x = 2 * self.x_max - x
            flip_x = True
        if y < self.y_min:
            y = 2 * self.y_min - y
            flip_y = True
        elif y > self.y_max:
            y = 2 * self.y_max - y
            flip_y = True
        return self.clamp(Point(x, y)), flip_x, flip_y

