"""Fluid-flow mobility analysis.

The mobility-management literature the paper builds on (e.g. its
reference [2], Akyildiz et al. 1999) sizes location-update and handoff
signalling with the fluid-flow model: for users of density ``rho``
moving at mean speed ``v`` with uniformly distributed direction, the
rate of crossings out of a region with perimeter ``L`` is

    R = rho * v * L / pi

Equivalently, one mobile inside a region of area ``A`` crosses its
boundary at rate ``v * L / (pi * A)``.  These predictions are used to
validate the simulated handoff rates (see
``tests/test_analysis_validation.py``).
"""

from __future__ import annotations

import math


def boundary_crossing_rate(speed: float, perimeter: float, area: float) -> float:
    """Crossings per second out of a convex region, per mobile
    (density = 1 mobile / ``area``)."""
    if speed < 0 or perimeter <= 0 or area <= 0:
        raise ValueError("speed >= 0, perimeter > 0, area > 0 required")
    return (1.0 / area) * speed * perimeter / math.pi


def circular_cell_crossing_rate(speed: float, radius: float) -> float:
    """Per-mobile boundary crossing rate for a circular cell the mobile
    lives in (fluid flow): ``2 v / (pi r)``."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return boundary_crossing_rate(
        speed, perimeter=2.0 * math.pi * radius, area=math.pi * radius * radius
    )


def mean_cell_dwell_time(speed: float, radius: float) -> float:
    """Expected sojourn time in a circular cell for a mobile *entering*
    at the boundary (isotropic flux): ``pi r / (2 v)``."""
    if speed <= 0:
        raise ValueError("speed must be positive")
    return 1.0 / circular_cell_crossing_rate(speed, radius)


def mean_residual_dwell_time(speed: float, radius: float) -> float:
    """Expected time to exit a circular cell from a *uniform interior*
    start with uniform direction: ``8 r / (3 pi v)``.

    This is the relevant quantity for a mobile that powers up (or goes
    active) somewhere inside the cell, as opposed to one that just
    crossed in; the mean exit chord from a uniform interior point is
    ``(8 / 3 pi) r``.
    """
    if speed <= 0:
        raise ValueError("speed must be positive")
    if radius <= 0:
        raise ValueError("radius must be positive")
    return 8.0 * radius / (3.0 * math.pi * speed)


def handoff_rate_linear_cells(speed: float, cell_diameter: float) -> float:
    """Handoffs per second for 1-D (highway) movement through a row of
    cells of the given diameter: ``v / d``."""
    if cell_diameter <= 0:
        raise ValueError("cell_diameter must be positive")
    return speed / cell_diameter


def location_update_cost(
    crossing_rate: float, hops_per_update: int, update_bytes: int
) -> float:
    """Mean signalling load in bytes/s implied by a crossing rate."""
    if crossing_rate < 0 or hops_per_update < 0 or update_bytes < 0:
        raise ValueError("all inputs must be non-negative")
    return crossing_rate * hops_per_update * update_bytes
