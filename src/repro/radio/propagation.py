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


def log_distance_path_loss_db(
    distance: float,
    exponent: float = 3.5,
) -> float:
    """Log-distance path loss with a 1 m reference:
    ``PL(d) = PL(1 m) + 10 n log10(d)``, flat inside the first metre."""
    if distance <= 0:
        raise ValueError(f"distance must be positive, got {distance}")
    distance = max(distance, 1.0)
    return REFERENCE_LOSS_DB + 10.0 * exponent * math.log10(distance)


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
