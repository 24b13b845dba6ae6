"""The scenario registry and the shipped scenario catalog.

Scenarios are registered by name; ``repro scenario list|describe|run``
and the run grid (:mod:`repro.scenarios.grid`) look them up here.  Registering a new
workload is one call::

    from repro.scenarios import ScenarioSpec, register

    register(ScenarioSpec(
        name="stadium-exit",
        description="20k fans leave one micro cell at walking speed",
        population=40,
        duration=30.0,
        mobility_mix={"waypoint": 0.8, "stationary": 0.2},
        traffic_mix={"cbr-voice": 0.5, "poisson-data": 0.3, "idle": 0.2},
    ))

Determinism: every shipped scenario derives all randomness from the
run seed, so ``repro scenario run <name>`` is byte-identical serial vs
``--jobs N`` and across repeats — the same guarantee the experiment
suite has.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Union

from repro.scenarios.spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.experiments.runner import Replication

_REGISTRY: dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    """Add ``spec`` to the catalog under ``spec.name``.

    ``replace=False`` (the default) raises :class:`ValueError` on a
    duplicate name so two workloads can never silently shadow each
    other.  Returns the registered spec for chaining.
    """
    if not replace and spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered spec by name; :class:`KeyError` if absent."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(_REGISTRY)}"
        ) from None


def scenario_names() -> list[str]:
    """The registered scenario names, in registration order."""
    return list(_REGISTRY)


def iter_scenarios() -> list[ScenarioSpec]:
    """The registered specs, in registration order."""
    return list(_REGISTRY.values())


def _resolve(scenario: Union[str, ScenarioSpec]) -> ScenarioSpec:
    if isinstance(scenario, ScenarioSpec):
        return scenario
    return get_scenario(scenario)


# ----------------------------------------------------------------------
# Rendering (used by the CLI and by output-equality tests)
# ----------------------------------------------------------------------
def describe_scenario(scenario: Union[str, ScenarioSpec]) -> str:
    """A full, human-readable description of one spec."""
    spec = _resolve(scenario)
    lines = [
        f"{spec.name}: {spec.description}",
        "",
        f"  population       {spec.population} mobiles "
        f"({spec.total_flows()} measured flows)",
        f"  duration         {spec.duration:g} s "
        f"(+{spec.warmup:g} s warmup, +{spec.drain:g} s drain)",
        f"  domains          {spec.domains}"
        + ("  (inter-domain handoff reachable)" if spec.domains == 2 else ""),
        f"  pico cells       {spec.pico_cells}",
        f"  default seeds    {', '.join(str(s) for s in spec.seeds)}",
    ]
    if spec.roam is not None:
        lines.append(f"  roam             {spec.roam}")
    if spec.channels_enabled():
        budgets = []
        if spec.macro_channel_bandwidth is not None:
            budgets.append(f"macro={spec.macro_channel_bandwidth:g}")
        if spec.pico_channel_bandwidth is not None:
            budgets.append(f"pico={spec.pico_channel_bandwidth:g}")
        lines.append(
            f"  air interface    shared per-cell channels "
            f"({', '.join(budgets)} bit/s downlink; unset tiers at "
            f"TIER_DEFAULTS)"
        )
    if spec.hotspot_fraction > 0:
        lines.append(
            f"  hotspots         {spec.hotspot_count()} mobiles x "
            f"{spec.hotspot_flows} extra flows"
        )
    if spec.domain_overrides:
        overrides = ", ".join(
            f"{key}={value!r}" for key, value in spec.domain_overrides.items()
        )
        lines.append(f"  domain overrides {overrides}")
    if spec.fluid is not None and spec.fluid.enabled:
        fluid = spec.fluid
        drift = (
            f", drift=({fluid.drift[0]:g}, {fluid.drift[1]:g}) m/s"
            if fluid.drift != (0.0, 0.0)
            else ""
        )
        lines.append(
            f"  fluid background {fluid.population} analytic mobiles "
            f"(speed {fluid.mean_speed:g} m/s, activity "
            f"{fluid.activity:.0%}, {fluid.per_mobile_bps:g} bit/s "
            f"per session, refresh {fluid.update_period:g} s{drift})"
        )
    if not spec.policy.is_default():
        knobs = [f"mode={spec.policy.mode}"]
        knobs.append(f"speed_threshold={spec.policy.speed_threshold:g}")
        if spec.policy.demand_threshold is not None:
            knobs.append(f"demand_threshold={spec.policy.demand_threshold:g}")
        if spec.policy.admission_factor is not None:
            knobs.append(f"admission_factor={spec.policy.admission_factor:g}")
        lines.append(f"  policy           {', '.join(knobs)}")
    # Protocol stacks: every registered adapter can run any catalog
    # scenario; list which adapter surface this spec exercises under
    # each, so `--stack <name|all>` choices are discoverable here.
    from repro.stacks.registry import iter_stacks

    lines.append("  stacks (select with --stack <name|all>):")
    for adapter in iter_stacks():
        marker = " [spec default]" if adapter.name == spec.stack else ""
        lines.append(f"    {adapter.name}{marker}: {adapter.description}")
        lines.append(f"      exercises: {'; '.join(adapter.exercised(spec))}")
    # Show the apportionment actually used (post largest-remainder),
    # not the raw spec fractions: for small populations they differ,
    # and the builder instantiates the counts, never the fractions.
    mobility_counts = spec.mobility_counts()
    lines.append("  mobility mix (apportioned):")
    for model in spec.mobility_mix:
        count = mobility_counts.get(model, 0)
        lines.append(
            f"    {model:18s} {count / spec.population:5.0%}  "
            f"({count} mobiles; spec {spec.mobility_mix[model]:.0%})"
        )
    traffic_counts = spec.traffic_counts()
    lines.append("  traffic mix (apportioned):")
    for kind in spec.traffic_mix:
        count = traffic_counts.get(kind, 0)
        lines.append(
            f"    {kind:18s} {count / spec.population:5.0%}  "
            f"({count} mobiles; spec {spec.traffic_mix[kind]:.0%})"
        )
    if spec.notes:
        lines.extend(["", f"  {spec.notes}"])
    return "\n".join(lines)


def format_scenario_result(
    scenario: Union[str, ScenarioSpec],
    replication: Replication,
    seeds: Iterable[int],
) -> str:
    """Render one replicated scenario run as a metric table."""
    from repro.metrics.tables import format_table

    from repro.stacks.registry import DEFAULT_STACK

    spec = _resolve(scenario)
    seeds = list(seeds)
    rows = [
        [name, estimate.mean, estimate.half_width]
        for name, estimate in replication.metrics.items()
    ]
    # Non-default stacks are named in the title; the default stays
    # un-suffixed so legacy output (and `--stack multitier`) is
    # byte-identical to pre-stacks rendering.
    stack_label = (
        f" [stack={spec.stack}]" if spec.stack != DEFAULT_STACK else ""
    )
    return format_table(
        ["metric", "mean", "ci95_half_width"],
        rows,
        title=(
            f"scenario {spec.name}{stack_label} "
            f"({len(seeds)} seed{'s' if len(seeds) != 1 else ''}: "
            f"{', '.join(str(s) for s in seeds)})"
        ),
    )


# ----------------------------------------------------------------------
# Shipped catalog
# ----------------------------------------------------------------------
#: The paper's own evaluation drives at most a handful of mobiles; the
#: catalog spans pedestrian-only micro saturation up to a 10-25x
#: population stress mix, so every future workload PR has a named,
#: reproducible starting point.

register(ScenarioSpec(
    name="city-rush-hour",
    description="Commute peak: highway vehicles over a manhattan core, "
    "voice-heavy traffic",
    population=18,
    duration=40.0,
    mobility_mix={"highway": 0.45, "manhattan": 0.35, "waypoint": 0.20},
    traffic_mix={
        "cbr-voice": 0.35,
        "onoff-voice": 0.20,
        "poisson-data": 0.25,
        "idle": 0.20,
    },
    notes="The speed factor at work: vehicles should settle on the macro "
    "tier while the street grid population churns across micro cells.",
))

register(ScenarioSpec(
    name="campus-dense",
    description="Micro-cell saturation: dense pedestrian campus on a "
    "choked backhaul, with in-building picos",
    population=22,
    duration=30.0,
    mobility_mix={"waypoint": 0.55, "manhattan": 0.25, "stationary": 0.20},
    traffic_mix={
        "vbr-video": 0.25,
        "cbr-voice": 0.25,
        "poisson-data": 0.25,
        "idle": 0.25,
    },
    roam=(-3100.0, -450.0, -900.0, 450.0),  # the A/B/C micro cluster
    pico_cells=2,
    domain_overrides={"wired_bandwidth": 2.5e6},
    notes="Everyone lives under the western micro cluster; the 2.5 "
    "Mbit/s backhaul override pushes the shared rsmc1-R3-R1-A chain "
    "toward saturation, so queueing shows up in mean_delay/jitter.",
))

register(ScenarioSpec(
    name="campus-air",
    description="campus-dense population on a contended shared air "
    "interface: per-cell channels bind, not the backhaul",
    population=22,
    duration=30.0,
    mobility_mix={"waypoint": 0.55, "manhattan": 0.25, "stationary": 0.20},
    traffic_mix={
        "vbr-video": 0.25,
        "cbr-voice": 0.25,
        "poisson-data": 0.25,
        "idle": 0.25,
    },
    roam=(-3100.0, -450.0, -900.0, 450.0),  # the A/B/C micro cluster
    pico_cells=2,
    macro_channel_bandwidth=384e3,
    pico_channel_bandwidth=4e6,
    notes="The only shipped scenario with air-interface contention "
    "enabled by default: the wired backhaul stays at the uncongested "
    "100 Mbit/s default while every cell's shared channel (macro 384 "
    "kbit/s, micro 2 Mbit/s, pico 4 Mbit/s downlink) arbitrates "
    "airtime FIFO with mobile-index tie-breaks — queueing now shows "
    "up over the air, where the paper's pico-overlay argument lives.",
))

register(ScenarioSpec(
    name="sparse-rural",
    description="Macro-only coverage band: few, fast, spread-out users",
    population=5,
    duration=30.0,
    mobility_mix={"random-direction": 0.6, "gauss-markov": 0.4},
    traffic_mix={"onoff-voice": 0.4, "poisson-data": 0.2, "idle": 0.4},
    roam=(-4200.0, 500.0, 4200.0, 1200.0),  # above every micro cell
    notes="The roam band sits outside all 400 m micro cells, so the "
    "macro umbrella carries everything — zero micro handoffs expected.",
))

register(ScenarioSpec(
    name="flash-crowd",
    description="Correspondent hotspots: a quarter of the crowd draws "
    "several simultaneous downlink flows",
    population=14,
    duration=20.0,
    mobility_mix={"stationary": 0.5, "waypoint": 0.5},
    traffic_mix={"poisson-data": 0.5, "cbr-voice": 0.25, "idle": 0.25},
    roam=(-3100.0, -450.0, -900.0, 450.0),
    hotspot_fraction=0.25,
    hotspot_flows=4,
    notes="Models a flash crowd around an event: hotspot mobiles each "
    "receive extra correspondent flows on top of their own traffic.",
))

register(ScenarioSpec(
    name="commuter-corridor",
    description="Two-domain highway commute with elastic downloads "
    "riding through inter-domain handoffs",
    population=12,
    duration=35.0,
    domains=2,
    mobility_mix={"highway": 0.7, "gauss-markov": 0.3},
    traffic_mix={"cbr-voice": 0.5, "elastic-data": 0.25, "idle": 0.25},
    roam=(-4200.0, -600.0, 7000.0, 600.0),
    notes="Wrapping vehicles cross from domain 1 into domain 2 (R4/G) "
    "and back: inter-domain handoff under live elastic + voice load — "
    "a combination no fixed experiment exercises.",
))

register(ScenarioSpec(
    name="downtown-multimedia",
    description="Street-grid multimedia: VBR video and elastic data "
    "over the micro tier",
    population=12,
    duration=40.0,
    mobility_mix={"manhattan": 0.7, "waypoint": 0.3},
    traffic_mix={
        "vbr-video": 0.4,
        "cbr-voice": 0.3,
        "elastic-data": 0.2,
        "idle": 0.1,
    },
    roam=(-3200.0, -500.0, 3200.0, 500.0),
    notes="The paper's multimedia pitch on the street grid: bursty VBR "
    "frames and AIMD downloads while the crowd hops micro cells.",
))

register(ScenarioSpec(
    name="mega",
    description="Scale stress: 120 mobiles (20-100x the paper's runs), "
    "both domains, every model and traffic kind",
    population=120,
    duration=40.0,
    domains=2,
    pico_cells=4,
    mobility_mix={
        "highway": 0.20,
        "manhattan": 0.20,
        "waypoint": 0.20,
        "gauss-markov": 0.15,
        "random-direction": 0.15,
        "stationary": 0.10,
    },
    traffic_mix={
        "cbr-voice": 0.20,
        "onoff-voice": 0.15,
        "vbr-video": 0.15,
        "poisson-data": 0.20,
        "elastic-data": 0.10,
        "idle": 0.20,
    },
    hotspot_fraction=0.10,
    hotspot_flows=3,
    seeds=(1,),
    notes="The catalog's load-imbalance probe: schedule it next to "
    "sparse-rural on a pool backend and the work-stealing queue earns "
    "its keep.  Expect tens of seconds of wall clock per seed.",
))


register(ScenarioSpec(
    name="metro-100k",
    description="Hybrid city scale: 100k analytic background mobiles "
    "over every cell, a tracked discrete cohort keeping full metrics",
    population=24,
    duration=30.0,
    domains=2,
    pico_cells=4,
    mobility_mix={
        "waypoint": 0.35,
        "manhattan": 0.25,
        "highway": 0.20,
        "gauss-markov": 0.20,
    },
    traffic_mix={
        "cbr-voice": 0.25,
        "onoff-voice": 0.20,
        "vbr-video": 0.15,
        "poisson-data": 0.25,
        "idle": 0.15,
    },
    macro_channel_bandwidth=384e3,
    pico_channel_bandwidth=4e6,
    fluid={
        "population": 100_000,
        "mean_speed": 1.5,
        "activity": 0.02,
        "per_mobile_bps": 16e3,
        "update_period": 1.0,
        "drift": (0.4, 0.0),
    },
    seeds=(1,),
    notes="The ROADMAP's million-mobile direction made runnable on a "
    "laptop: the 100k untracked mobiles exist only as fluid-flow "
    "crossing rates and Erlang occupancy, claiming each cell's shared "
    "airtime as a slow eastward commute wave, while the 24-mobile "
    "discrete cohort pays full per-packet cost and reports the usual "
    "metric table plus the fluid.* family.  Smoke variant: same 100k "
    "background, 6 tracked mobiles, 8 s window.",
))


__all__ = [
    "describe_scenario",
    "format_scenario_result",
    "get_scenario",
    "iter_scenarios",
    "register",
    "scenario_names",
]
