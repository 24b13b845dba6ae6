"""Declarative scenario specifications.

A :class:`ScenarioSpec` names a complete, reproducible workload for the
multi-tier architecture: how many domains to assemble, how many mobiles
roam them, which mobility models and traffic sources the population is
split across, and for how long.  The spec is pure data — the builder in
:mod:`repro.scenarios.builder` turns it into a ready-to-run world and
every random draw it induces is derived from the run seed through named
:class:`~repro.sim.rng.RandomStreams`, so one ``(spec, seed)`` pair is
deterministic: byte-identical metrics, on any execution backend.

The mobility-management literature the paper sits in (Helmy's multicast
mobility study, the M&M micro-mobility work) evaluates protocols over
*families* of scenarios — varied domain sizes, speeds and traffic mixes
— rather than one hand-built topology.  This module is that family
generator for our reproduction.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from repro.fluid.config import FluidBackground
from repro.policy.config import PolicyConfig

#: Mobility model keys a spec may apportion the population across.
MOBILITY_MODELS: dict[str, str] = {
    "stationary": "parked/idle hosts that never move",
    "waypoint": "random-waypoint pedestrians (0.8-2.0 m/s, pauses)",
    "manhattan": "street-grid pedestrians/cyclists with turns (8 m/s)",
    "highway": "constant-speed vehicles along the corridor (22-33 m/s)",
    "gauss-markov": "temporally correlated wanderers (mean 5 m/s)",
    "random-direction": "fluid-flow travellers, uniform density (10 m/s)",
}

#: Traffic source keys a spec may apportion the population across.
TRAFFIC_KINDS: dict[str, str] = {
    "idle": "attached but silent (location management load only)",
    "cbr-voice": "64 kbit/s constant-bit-rate voice downlink",
    "onoff-voice": "64 kbit/s exponential on/off talkspurt voice",
    "vbr-video": "VBR video, AR(1) frame sizes, ~128 kbit/s mean",
    "poisson-data": "Poisson packet data, 20 pkt/s x 500 B",
    "elastic-data": "greedy AIMD (TCP-like) download with real acks",
}

_MIX_TOLERANCE = 1e-6


def _real(value: object) -> bool:
    """A number, numpy's included, but not a bool: a comparison would
    raise ``TypeError`` on a string and read ``True`` as 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(value: object) -> bool:
    """An integer, numpy's included, but not a bool."""
    return isinstance(value, numbers.Integral) and _real(value)


def _validate_mix(label: str, mix: Mapping[str, float], known: Mapping[str, str]):
    if not isinstance(mix, Mapping):
        raise ValueError(f"{label} must be a mapping, got {mix!r}")
    if not mix:
        raise ValueError(f"{label} must not be empty")
    unknown = [key for key in mix if key not in known]
    if unknown:
        raise ValueError(
            f"{label} names unknown entries {unknown}; "
            f"known: {', '.join(known)}"
        )
    # ``not x >= 0`` / ``not x <= tol``: nan fails both.
    if not all(_real(fraction) and fraction >= 0 for fraction in mix.values()):
        raise ValueError(f"{label} fractions must be non-negative numbers")
    total = sum(mix.values())
    if not abs(total - 1.0) <= _MIX_TOLERANCE:
        raise ValueError(f"{label} fractions must sum to 1, got {total}")


def _coerce_block(label: str, block: Mapping[str, object], kind: type):
    """Build the ``kind`` block a spec field was given as a mapping."""
    known = [f.name for f in dataclasses.fields(kind)]
    for key in block:
        if key not in known:
            raise ValueError(
                f"{label} has unknown key {key!r}; known: {', '.join(known)}"
            )
    return kind(**block)


def apportion(mix: Mapping[str, float], count: int) -> dict[str, int]:
    """Split ``count`` individuals across ``mix`` by largest remainder.

    Deterministic (ties broken by mix insertion order) and exact: the
    returned counts sum to ``count``, and every key with a positive
    fraction gets at least its floored share.  Keys that end up with
    zero individuals are dropped.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    entries = [(name, fraction) for name, fraction in mix.items() if fraction > 0]
    order = {name: position for position, (name, _) in enumerate(entries)}
    quotas = [(name, fraction * count) for name, fraction in entries]
    counts = {name: int(math.floor(quota)) for name, quota in quotas}
    leftover = count - sum(counts.values())
    by_remainder = sorted(
        quotas,
        key=lambda item: (-(item[1] - math.floor(item[1])), order[item[0]]),
    )
    for name, _ in by_remainder[:leftover]:
        counts[name] += 1
    return {name: n for name, n in counts.items() if n > 0}


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, reproducible workload for the multi-tier world.

    Parameters
    ----------
    name:
        Registry key; also the prefix of every flow id in the run.
    description:
        One line shown by ``repro scenario list``.
    population:
        Number of mobile nodes.
    duration:
        Seconds of traffic (measurement window); mobility continues
        through warmup and drain as well.
    mobility_mix:
        ``model -> fraction`` over :data:`MOBILITY_MODELS`; fractions
        sum to 1 and are apportioned exactly (largest remainder).
    traffic_mix:
        ``kind -> fraction`` over :data:`TRAFFIC_KINDS`, same rules.
    seeds:
        Default seeds ``repro scenario run`` replicates over.
    domains:
        1 = Fig 3.1 only; 2 = add the overlapping second domain
        (Fig 3.3), making inter-domain handoff reachable.
    pico_cells:
        Extra in-building pico cells placed under the micro leaves.
    macro_channel_bandwidth / pico_channel_bandwidth:
        Shared air-interface (downlink) budgets in bit/s for the macro
        and pico tiers.  Both ``None`` (the default) is **legacy
        mode**: every mobile keeps its own unconstrained radio link,
        byte-identical to the pre-channel builder.  Setting either
        enables per-cell contention for *all* tiers (the unset tier
        and the micro tier fall back to the
        :data:`repro.radio.cells.TIER_DEFAULTS` budgets); uplink
        budgets are half the downlink ones.
    roam:
        ``(x_min, y_min, x_max, y_max)`` roaming area override; ``None``
        picks a sensible area for the domain count.
    hotspot_fraction:
        Fraction of the population that is a correspondent hotspot:
        each such mobile receives ``hotspot_flows`` additional
        simultaneous downlink flows (flash-crowd behaviour).
    hotspot_flows:
        Extra flows per hotspot mobile.
    sample_period:
        Mobility controller sampling period (s).
    warmup / drain:
        Seconds simulated before sources start / after they stop.
    wired_bandwidth:
        Bandwidth (bit/s) of every wired access link a stack builds:
        each multi-tier domain's tree, the Cellular IP access tree and
        the Mobile IP FA↔core links.  Lower it to choke the backhaul
        (``campus-dense`` runs at 2.5 Mbit/s).
    stack:
        The protocol stack the scenario runs under: the name of a
        registered :class:`~repro.stacks.base.StackAdapter`
        (``"multitier"``, the default and byte-identity-pinned legacy
        path; ``"cellularip"``; ``"cellularip-hard"``; ``"mobileip"``).
        Validated against the registry at construction, so a typo
        fails eagerly with the registered names listed.
    fluid:
        The hybrid background block, a
        :class:`~repro.fluid.config.FluidBackground` (a plain mapping
        is coerced).  ``None`` (default) or ``population=0`` is the
        all-discrete legacy path, byte-identical to pre-fluid builds.
        A positive background population is modelled analytically
        (fluid-flow crossing rates + Erlang occupancy) and fed into
        each cell's shared channel as time-varying background claims,
        so a non-empty block requires :meth:`channels_enabled`.  The
        discrete ``population`` above becomes the tracked foreground
        cohort.  See ``docs/HYBRID.md``.
    policy:
        The tier-selection policy block, a
        :class:`~repro.policy.config.PolicyConfig` (a plain mapping is
        coerced).  The default block reproduces the historical
        hardcoded thresholds byte-identically and emits no ``policy.*``
        metrics; any non-default block makes the multi-tier stack
        record its decision trace into the metrics.  The air-interface
        knob ``admission_factor`` requires shared channels
        (:meth:`channels_enabled`).  Numeric fields are
        sweepable as ``policy.<field>`` axes.
    notes:
        Free text shown by ``repro scenario describe``.
    """

    name: str
    description: str
    population: int
    duration: float
    mobility_mix: Mapping[str, float]
    traffic_mix: Mapping[str, float]
    seeds: tuple[int, ...] = (1, 2, 3)
    domains: int = 1
    pico_cells: int = 0
    macro_channel_bandwidth: Optional[float] = None
    pico_channel_bandwidth: Optional[float] = None
    roam: Optional[tuple[float, float, float, float]] = None
    hotspot_fraction: float = 0.0
    hotspot_flows: int = 3
    sample_period: float = 0.5
    warmup: float = 2.0
    drain: float = 3.0
    wired_bandwidth: float = 100e6
    stack: str = "multitier"
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    fluid: Optional[FluidBackground] = None
    notes: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(
                f"scenario name must be a non-empty string, got {self.name!r}"
            )
        # Counts are ints (numpy integers included), never floats or bools:
        # the builder ranges over them and a float fails it mid-build.
        for label in ("population", "domains", "pico_cells", "hotspot_flows"):
            value = getattr(self, label)
            if not _integer(value):
                raise ValueError(f"{label} must be an integer, got {value!r}")
            object.__setattr__(self, label, int(value))
        if self.population < 1:
            raise ValueError(f"population must be >= 1, got {self.population}")
        # ``not x > 0`` / ``not x >= 0``: nan fails both, where it
        # passes an ``x <= 0`` / ``x < 0`` guard; inf is caught apart,
        # since a run of infinite length never ends.
        for label in (
            "duration", "sample_period", "wired_bandwidth", "warmup", "drain"
        ):
            value = getattr(self, label)
            positive = label not in ("warmup", "drain")
            if (
                not _real(value)
                or not (value > 0 if positive else value >= 0)
                or not math.isfinite(value)
            ):
                sign = "positive" if positive else "non-negative"
                raise ValueError(f"{label} must be {sign} and finite, got {value!r}")
        if self.domains not in (1, 2):
            raise ValueError(f"domains must be 1 or 2, got {self.domains}")
        if self.pico_cells < 0:
            raise ValueError("pico_cells must be non-negative")
        for label in ("macro_channel_bandwidth", "pico_channel_bandwidth"):
            value = getattr(self, label)
            if value is not None:
                if (
                    not _real(value)
                    or not value > 0
                    or not math.isfinite(value)
                ):
                    raise ValueError(
                        f"{label} must be a positive finite number or None, "
                        f"got {value!r}"
                    )
                object.__setattr__(self, label, float(value))
        fraction = self.hotspot_fraction
        if not _real(fraction) or not 0.0 <= fraction <= 1.0:
            raise ValueError("hotspot_fraction must be in [0, 1]")
        if self.hotspot_flows < 1:
            raise ValueError("hotspot_flows must be >= 1")
        seeds = tuple(self.seeds) if isinstance(self.seeds, Iterable) else (None,)
        # A negative seed would fail only at the run's first stream.
        if not all(_integer(seed) and seed >= 0 for seed in seeds):
            raise ValueError(
                f"seeds must be non-negative integers, got {self.seeds!r}"
            )
        object.__setattr__(self, "seeds", tuple(int(s) for s in seeds))
        if not self.seeds:
            raise ValueError("seeds must not be empty")
        if self.roam is not None:
            if not isinstance(self.roam, (tuple, list)) or not all(
                map(_real, self.roam)
            ):
                raise ValueError(f"bad roam rectangle {self.roam!r}")
            roam = tuple(float(v) for v in self.roam)
            if (
                len(roam) != 4
                or not all(map(math.isfinite, roam))
                or roam[0] >= roam[2]
                or roam[1] >= roam[3]
            ):
                raise ValueError(f"bad roam rectangle {self.roam}")
            object.__setattr__(self, "roam", roam)
        _validate_mix(
            f"{self.name}: mobility_mix", self.mobility_mix, MOBILITY_MODELS
        )
        _validate_mix(
            f"{self.name}: traffic_mix", self.traffic_mix, TRAFFIC_KINDS
        )
        if not isinstance(self.stack, str) or not self.stack:
            raise ValueError(
                f"{self.name}: stack must be a non-empty string, "
                f"got {self.stack!r}"
            )
        # Late import: the stack adapters themselves import this module
        # (no spec is ever instantiated during that import, so the
        # registry is always populated by the time validation runs).
        from repro.stacks.registry import is_registered, stack_names

        if not is_registered(self.stack):
            raise ValueError(
                f"{self.name}: unknown stack {self.stack!r}; "
                f"registered: {', '.join(stack_names())}"
            )
        if isinstance(self.policy, Mapping):
            policy = _coerce_block(f"{self.name}: policy", self.policy, PolicyConfig)
            object.__setattr__(self, "policy", policy)
        if not isinstance(self.policy, PolicyConfig):
            raise ValueError(
                f"{self.name}: policy must be a PolicyConfig or mapping, "
                f"got {self.policy!r}"
            )
        if isinstance(self.fluid, Mapping):
            fluid = _coerce_block(f"{self.name}: fluid", self.fluid, FluidBackground)
            object.__setattr__(self, "fluid", fluid)
        if self.fluid is not None and not isinstance(self.fluid, FluidBackground):
            raise ValueError(
                f"{self.name}: fluid must be a FluidBackground, mapping or "
                f"None, got {self.fluid!r}"
            )
        if (
            self.fluid is not None
            and self.fluid.enabled
            and not self.channels_enabled()
        ):
            raise ValueError(
                f"{self.name}: a fluid background population requires shared "
                f"channels (set a channel bandwidth) — background claims "
                f"have nothing to claim on legacy unconstrained radios"
            )
        if self.policy.admission_factor is not None and not self.channels_enabled():
            raise ValueError(
                f"{self.name}: policy.admission_factor requires shared "
                f"channels (set a channel bandwidth)"
            )

    # ------------------------------------------------------------------
    def mobility_counts(self) -> dict[str, int]:
        """Exact per-model population counts (largest remainder).

        Deterministic: depends only on the spec, never on the seed.
        """
        return apportion(self.mobility_mix, self.population)

    def traffic_counts(self) -> dict[str, int]:
        """Exact per-kind population counts (largest remainder).

        Deterministic: depends only on the spec, never on the seed.
        """
        return apportion(self.traffic_mix, self.population)

    def hotspot_count(self) -> int:
        """Number of hotspot mobiles: ``ceil(fraction * population)``."""
        return int(math.ceil(self.hotspot_fraction * self.population))

    def channels_enabled(self) -> bool:
        """True when the shared air interface contends (either channel
        bandwidth field is set); False = legacy unconstrained radio."""
        return (
            self.macro_channel_bandwidth is not None
            or self.pico_channel_bandwidth is not None
        )

    def total_flows(self) -> int:
        """Number of measured downlink flows the spec induces."""
        streaming = self.population - self.traffic_counts().get("idle", 0)
        return streaming + self.hotspot_count() * self.hotspot_flows

    # ------------------------------------------------------------------
    def replace(self, **changes) -> "ScenarioSpec":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def smoke(self) -> "ScenarioSpec":
        """A shrunken copy for CI smoke runs and determinism tests.

        Same code path, same mixes, same topology — just a small
        population, short duration and a single seed.
        """
        return self.replace(
            population=min(self.population, 6),
            duration=min(self.duration, 8.0),
            seeds=self.seeds[:1],
            hotspot_flows=min(self.hotspot_flows, 2),
        )


__all__ = [
    "MOBILITY_MODELS",
    "TRAFFIC_KINDS",
    "ScenarioSpec",
    "apportion",
]
