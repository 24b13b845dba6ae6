"""Radio substrate: geometry, cells and tiers, propagation, signal
measurement and the shared air-interface contention model
(:mod:`repro.radio.channel`).

Determinism: everything here is either pure geometry/arithmetic or —
for the shared channel — driven by the simulator's deterministic event
queue with an explicit (time, mobile-key) arbitration order, so a given
world and seed produce identical radio behaviour in any process.
"""

from repro.radio.cells import TIER_DEFAULTS, Cell, Tier
from repro.radio.channel import (
    DIRECTIONS,
    DOWNLINK,
    UPLINK,
    ChannelPlan,
    ChannelStats,
    SharedChannel,
    airtime_key,
)
from repro.radio.geometry import ORIGIN, Point, Rectangle
from repro.radio.propagation import (
    NOISE_FLOOR_DBM,
    PropagationModel,
    log_distance_path_loss_db,
)
from repro.radio.signal import Measurement, SignalMeter

__all__ = [
    "Cell",
    "ChannelPlan",
    "ChannelStats",
    "DIRECTIONS",
    "DOWNLINK",
    "Measurement",
    "NOISE_FLOOR_DBM",
    "ORIGIN",
    "Point",
    "PropagationModel",
    "Rectangle",
    "SharedChannel",
    "SignalMeter",
    "TIER_DEFAULTS",
    "Tier",
    "UPLINK",
    "airtime_key",
    "log_distance_path_loss_db",
]
