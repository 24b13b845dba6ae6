"""The declarative fluid-background block of a scenario spec.

A :class:`FluidBackground` describes an *untracked* population that
exists only as analytic load: how many mobiles it has, how fast they
drift, how active they are and how much air they burn when active.
Pure data, validated eagerly — the spec layer coerces a plain mapping
into this class exactly like it does for the policy block, so catalog
entries and sweep axes stay plain dictionaries.  Deterministic: the
block holds no state and draws nothing; two equal blocks always
induce identical background claims.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

#: Bytes of over-the-air signalling one background handoff costs the
#: cell (registration request + reply, §3.2 scale); converted to a
#: bit-rate via the fluid-flow crossing rate.
HANDOFF_SIGNALLING_BYTES = 96

#: A background claim never eats more than this fraction of a cell's
#: budget: the discrete foreground must always retain some airtime,
#: otherwise its packets would take unbounded (or negative) airtime.
MAX_BACKGROUND_FRACTION = 0.95


@dataclass(frozen=True)
class FluidBackground:
    """The analytic background population of a hybrid scenario.

    Parameters
    ----------
    population:
        Number of untracked background mobiles spread uniformly over
        the roam rectangle.  ``0`` disables the layer entirely — the
        builder then wires nothing, byte-identical to ``fluid=None``.
    mean_speed:
        Mean background speed (m/s) for the fluid-flow crossing-rate
        model (``2 v / (pi r)`` per mobile in a cell of radius ``r``).
    activity:
        Fraction of background mobiles holding an active session at any
        instant; a cell's offered load in Erlangs is
        ``occupants * activity``.
    per_mobile_bps:
        Downlink air-interface demand (bit/s) of one *active*
        background session.
    uplink_fraction:
        Uplink background demand as a fraction of the downlink demand.
    update_period:
        Seconds between background-claim refreshes; also the time
        resolution of the drift below.
    drift:
        ``(vx, vy)`` m/s bulk drift of the background density (e.g. a
        commute wave moving across town).  The claims become
        time-varying: each refresh evaluates the density rectangle
        displaced by ``drift * now``.
    max_cell_load:
        Cap on the fraction of a cell's budget the background may
        claim, clamped to :data:`MAX_BACKGROUND_FRACTION`.
    """

    population: int
    mean_speed: float = 1.5
    activity: float = 0.1
    per_mobile_bps: float = 16e3
    uplink_fraction: float = 0.5
    update_period: float = 1.0
    drift: tuple[float, float] = (0.0, 0.0)
    max_cell_load: float = 0.9

    def __post_init__(self) -> None:
        if not isinstance(self.population, numbers.Integral):
            raise ValueError(
                f"fluid population must be an integer, got {self.population!r}"
            )
        if self.population < 0:
            raise ValueError(
                f"fluid population must be non-negative, got {self.population}"
            )
        object.__setattr__(self, "population", int(self.population))
        # ``not x > 0`` fails nan as well; inf is caught apart.
        for label in ("mean_speed", "per_mobile_bps", "update_period"):
            value = getattr(self, label)
            if not value > 0 or not math.isfinite(value):
                raise ValueError(f"{label} must be positive and finite, got {value}")
        if not 0.0 <= self.activity <= 1.0:
            raise ValueError(f"activity must be in [0, 1], got {self.activity}")
        if not 0.0 <= self.uplink_fraction <= 1.0:
            raise ValueError(
                f"uplink_fraction must be in [0, 1], got {self.uplink_fraction}"
            )
        drift = tuple(float(v) for v in self.drift)
        if len(drift) != 2 or not all(map(math.isfinite, drift)):
            raise ValueError(f"drift must be finite (vx, vy), got {self.drift!r}")
        object.__setattr__(self, "drift", drift)
        if not 0.0 < self.max_cell_load <= MAX_BACKGROUND_FRACTION:
            raise ValueError(
                f"max_cell_load must be in (0, {MAX_BACKGROUND_FRACTION}], "
                f"got {self.max_cell_load}"
            )

    @property
    def enabled(self) -> bool:
        """True when there is any background population to model."""
        return self.population > 0


__all__ = [
    "FluidBackground",
    "HANDOFF_SIGNALLING_BYTES",
    "MAX_BACKGROUND_FRACTION",
]
