"""Cells and tiers.

The paper's architecture (§2.1, §4) has a cellular hierarchy of
pico-, micro- and macro-cells (satellite is mentioned but out of scope
of its mobility management, which focuses on micro and macro).  Each
tier differs in coverage radius, offered per-user bandwidth and how
well it suits fast-moving users.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isnan

from repro.radio.geometry import Point


class Tier(enum.IntEnum):
    """Cell tiers, ordered small to large coverage."""

    PICO = 0
    MICRO = 1
    MACRO = 2

    @property
    def label(self) -> str:
        return self.name.lower()


#: Default physical parameters per tier: coverage radius (m), per-user
#: downlink bandwidth (bit/s), transmit power (dBm EIRP), channel count,
#: and the cell's *aggregate* shared-air-interface budgets
#: (``channel_downlink`` / ``channel_uplink``, bit/s — what every user
#: of the cell contends on when a
#: :class:`~repro.radio.channel.SharedChannel` is enabled).
#: Values follow the usual 3G-era multi-tier literature the paper cites
#: (Ganz/Haas/Krishna '96; Iera et al. '99): pico = in-building,
#: micro = urban street, macro = suburban umbrella.  EIRP is set so the
#: link budget closes at the nominal cell edge under the default
#: log-distance model (exponent 3.5, -95 dBm usable floor): an MN at
#: the edge of the cell is audible, just barely.  The shared budgets
#: mirror the paper's Table 1 tier trade-off: the macro umbrella is
#: wide but slow (a 384 kbit/s cell, a handful of voice calls), the
#: micro street cell carries a shared 2 Mbit/s, and the narrow
#: in-building pico is fast (11 Mbit/s, WLAN-class).
TIER_DEFAULTS = {
    Tier.PICO: {
        "radius": 60.0, "bandwidth": 2e6, "tx_power_dbm": 20.0, "channels": 16,
        "channel_downlink": 11e6, "channel_uplink": 5.5e6,
    },
    Tier.MICRO: {
        "radius": 400.0, "bandwidth": 384e3, "tx_power_dbm": 36.0, "channels": 32,
        "channel_downlink": 2e6, "channel_uplink": 1e6,
    },
    Tier.MACRO: {
        "radius": 2500.0, "bandwidth": 144e3, "tx_power_dbm": 65.0, "channels": 64,
        "channel_downlink": 384e3, "channel_uplink": 192e3,
    },
}


@dataclass
class Cell:
    """One cell: a coverage disc served by a base station."""

    name: str
    center: Point
    tier: Tier
    radius: float = 0.0
    bandwidth: float = 0.0
    tx_power_dbm: float = 0.0
    channels: int = 0
    #: Aggregate shared air-interface budgets (bit/s); 0 picks the tier
    #: default.  Only consulted when contention is enabled (see
    #: :class:`repro.radio.channel.ChannelPlan`).
    channel_downlink: float = 0.0
    channel_uplink: float = 0.0

    def __post_init__(self) -> None:
        defaults = TIER_DEFAULTS[self.tier]
        for label in (
            "radius", "bandwidth", "channels", "channel_downlink", "channel_uplink"
        ):
            value = getattr(self, label)
            if isnan(value):  # neither a size nor "the tier default"
                raise ValueError(f"cell {self.name}: {label} must not be nan")
            if not value > 0:
                setattr(self, label, defaults[label])
        if self.tx_power_dbm == 0.0:
            self.tx_power_dbm = defaults["tx_power_dbm"]

    def covers(self, point: Point) -> bool:
        """True when ``point`` lies inside this cell's coverage disc."""
        return self.center.distance_to(point) <= self.radius

    def distance_to(self, point: Point) -> float:
        """Distance from the cell center to ``point`` in meters."""
        return self.center.distance_to(point)

    def __repr__(self) -> str:
        return f"<Cell {self.name} {self.tier.label} r={self.radius:g}m>"

