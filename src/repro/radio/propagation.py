"""Radio propagation models.

Signal strength is one of the paper's three handoff decision factors
("the power of signal from BS", §3.2).  We provide the standard
log-distance path-loss model, which is what 2000s-era handoff studies
used.
"""

from __future__ import annotations

import math

#: Reference path loss at 1 m for ~2 GHz carriers (free space), in dB.
REFERENCE_LOSS_DB = 38.5
#: Thermal noise floor for a 5 MHz channel, in dBm.
NOISE_FLOOR_DBM = -107.0


def free_space_path_loss_db(distance: float, frequency_hz: float = 2.0e9) -> float:
    """Friis free-space path loss in dB (distance in meters)."""
    if distance <= 0:
        raise ValueError(f"distance must be positive, got {distance}")
    wavelength = 299_792_458.0 / frequency_hz
    return 20.0 * math.log10(4.0 * math.pi * distance / wavelength)


def log_distance_path_loss_db(
    distance: float,
    exponent: float = 3.5,
    reference_loss_db: float = REFERENCE_LOSS_DB,
    reference_distance: float = 1.0,
) -> float:
    """Log-distance path loss: ``PL(d) = PL(d0) + 10 n log10(d/d0)``."""
    if distance <= 0:
        raise ValueError(f"distance must be positive, got {distance}")
    distance = max(distance, reference_distance)
    return reference_loss_db + 10.0 * exponent * math.log10(
        distance / reference_distance
    )


class PropagationModel:
    """Computes received power for a transmitter/receiver pair.

    Parameters
    ----------
    exponent:
        Path-loss exponent (2 = free space, 3.5 = urban default).
    """

    def __init__(self, exponent: float = 3.5) -> None:
        if not exponent > 0:  # also rejects nan
            raise ValueError(f"exponent must be positive, got {exponent}")
        self.exponent = exponent

    def received_power_dbm(self, tx_power_dbm: float, distance: float) -> float:
        """Received signal strength in dBm at ``distance`` meters."""
        loss = log_distance_path_loss_db(distance, exponent=self.exponent)
        return tx_power_dbm - loss

    def range_for_threshold(
        self, tx_power_dbm: float, rx_threshold_dbm: float
    ) -> float:
        """Distance (m) at which mean received power hits the threshold."""
        budget = tx_power_dbm - rx_threshold_dbm - REFERENCE_LOSS_DB
        if budget <= 0:
            return 1.0
        return 10.0 ** (budget / (10.0 * self.exponent))
