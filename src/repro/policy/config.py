"""Validated configuration of the tier-selection policy engine.

A :class:`PolicyConfig` is the declarative knob block behind the
§3.2 three-factor decision: which decision *mode* runs (the paper's
speed-aware policy or one of the E9 ablation baselines), the speed and
bandwidth-demand thresholds, and the air-interface admission factor.
It is pure data — the
:class:`~repro.policy.decider.TierDecider` consumes it, and
:class:`~repro.scenarios.spec.ScenarioSpec` embeds it as its
``policy`` field, which makes every numeric field sweepable like any
other spec field (``policy.<field>`` sweep axes).

The default ``PolicyConfig()`` reproduces the historical hardcoded
behavior byte-identically: speed threshold 15 m/s, the stack-dependent
demand threshold (200 kbit/s legacy, 1 bit/s contention), no air
admission control.  Scenario metrics only grow
``policy.*`` keys when the block differs from this default, so the
committed golden tables never change shape.

Determinism: pure validated data; equality and hashing are value-based
(frozen dataclass), so derived sweep specs compare and pickle
deterministically across processes and execution backends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

#: Decision modes: the paper's policy plus the E9 ablation baselines.
POLICY_MODES: tuple[str, ...] = (
    "speed-aware",
    "always-strongest",
    "always-micro",
    "always-macro",
)

#: Demand threshold (bit/s) the legacy builder used with dedicated
#: per-mobile radios: only heavy elastic users preferred the pico tier.
LEGACY_DEMAND_THRESHOLD = 200e3

#: Demand threshold (bit/s) under a shared air interface: any
#: traffic-bearing mobile benefits from a covering pico's fat shared
#: budget, so the pico preference applies to every positive demand.
CONTENTION_DEMAND_THRESHOLD = 1.0


def _positive(label: str, value: float) -> float:
    """Validate one threshold: finite and strictly positive."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{label} must be positive")
    value = float(value)
    if math.isnan(value) or not value > 0:
        raise ValueError(f"{label} must be positive")
    return value


@dataclass(frozen=True)
class PolicyConfig:
    """The validated knob block of the tier-selection policy engine.

    Parameters
    ----------
    mode:
        Decision mode, one of :data:`POLICY_MODES`.  ``"speed-aware"``
        (default) is the paper's three-factor policy; the others are
        the E9 ablation baselines re-expressed as config presets.
    speed_threshold:
        Speed (m/s) at or above which a mobile prefers the macro tier.
        Must be finite and strictly positive.
    demand_threshold:
        Bandwidth demand (bit/s) at or above which a slow mobile
        prefers the pico tier.  ``None`` (default) resolves to the
        stack's historical default — :data:`LEGACY_DEMAND_THRESHOLD`
        with dedicated radios, :data:`CONTENTION_DEMAND_THRESHOLD`
        under a shared air interface (see
        :meth:`resolved_demand_threshold`).  Must be finite and
        strictly positive when set.
    admission_factor:
        Air-interface admission control: a cell accepts a new claim
        only while the sum of claimed demands stays within
        ``admission_factor * downlink budget``.  ``None`` (default)
        disables admission control entirely (the historical
        never-reject behavior).  Requires shared channels; validated
        at the spec layer.
    """

    mode: str = "speed-aware"
    speed_threshold: float = 15.0
    demand_threshold: Optional[float] = None
    admission_factor: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in POLICY_MODES:
            raise ValueError(
                f"unknown policy mode {self.mode!r}; "
                f"known: {', '.join(POLICY_MODES)}"
            )
        object.__setattr__(
            self,
            "speed_threshold",
            _positive("speed_threshold", self.speed_threshold),
        )
        if self.demand_threshold is not None:
            object.__setattr__(
                self,
                "demand_threshold",
                _positive("demand_threshold", self.demand_threshold),
            )
        if self.admission_factor is not None:
            factor = _positive("admission_factor", self.admission_factor)
            object.__setattr__(self, "admission_factor", factor)

    # ------------------------------------------------------------------
    def is_default(self) -> bool:
        """True when this block equals ``PolicyConfig()`` — the gate
        deciding whether a scenario run emits ``policy.*`` metrics."""
        return self == PolicyConfig()

    def resolved_demand_threshold(self, contention: bool) -> float:
        """The effective demand threshold (bit/s) for one stack mode.

        An explicit :attr:`demand_threshold` wins; ``None`` resolves
        to the historical stack default —
        :data:`CONTENTION_DEMAND_THRESHOLD` under a shared air
        interface, :data:`LEGACY_DEMAND_THRESHOLD` otherwise — so the
        default config reproduces pre-refactor behavior byte-for-byte.
        """
        if self.demand_threshold is not None:
            return self.demand_threshold
        return (
            CONTENTION_DEMAND_THRESHOLD
            if contention
            else LEGACY_DEMAND_THRESHOLD
        )


#: The E9 ablation policies as config presets, one per decision mode.
PRESETS: dict[str, PolicyConfig] = {
    "speed-aware": PolicyConfig(mode="speed-aware"),
    "always-strongest": PolicyConfig(mode="always-strongest"),
    "always-micro": PolicyConfig(mode="always-micro"),
    "always-macro": PolicyConfig(mode="always-macro"),
}


__all__ = [
    "CONTENTION_DEMAND_THRESHOLD",
    "LEGACY_DEMAND_THRESHOLD",
    "POLICY_MODES",
    "PRESETS",
    "PolicyConfig",
]
