"""Flat-deployment helpers shared by the baseline stack adapters.

The Cellular IP and Mobile IP baselines deploy cells at the *same*
geometry as the multi-tier world — macro umbrellas R1/R2(/R4), micro
street cells A–G, and the spec's pico cells — but manage them flat:
no tier policy, no hierarchy-aware handoff.  :func:`flat_cell_layout`
produces that site list from a spec, :func:`flat_access` places one
access node per site, and each mobile's
:class:`~repro.mobility.controller.MobilityController` decides with
:data:`STRONGEST_SIGNAL` (the baseline the paper's three-factor
decision is compared against).  A flat stack supplies only its core
wiring, the node it places at a site and, per mobile, the mobile and
its two moves, ``attach(node)`` and ``handoff(old, new)``, which never
refuse; :func:`flat_run` lays the shared population over them and
returns the run.

Determinism: the layout is a pure function of ``(spec, starts,
assignments)``; the controller samples the (seeded) mobility model on a
fixed period and decides from :class:`~repro.radio.signal.SignalMeter`
surveys only — same ``(spec, seed)``, same handoff schedule, in any
process, on any execution backend.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.mobility.controller import MobilityController
from repro.multitier.architecture import DOMAIN_SITES, PICO_LEAVES, Site
from repro.policy.decider import TierDecider
from repro.policy.trace import DecisionTrace
from repro.radio.cells import Tier
from repro.radio.geometry import Point
from repro.radio.propagation import PropagationModel
from repro.radio.signal import SignalMeter
from repro.stacks.base import BuiltRun
from repro.stacks.population import (
    MobileEndpoint,
    pico_placements,
    wire_population,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.radio.channel import SharedChannel
    from repro.scenarios.spec import ScenarioSpec
    from repro.sim.kernel import Simulator
    from repro.stacks.population import PopulationPlan


#: The flat baselines' decider: the strongest covering cell of any tier,
#: a rival taking over only when it is 4 dB stronger, and blind to the
#: cells' shared-channel queues (no airtime relief).
STRONGEST_SIGNAL = TierDecider(mode="always-strongest", airtime_aware=False)


def flat_cell_layout(
    spec: "ScenarioSpec",
    starts: Optional[list[Point]] = None,
    mobility_assignment: Optional[list[str]] = None,
    traffic_assignment: Optional[list[str]] = None,
) -> list[Site]:
    """The baseline deployments' site list for ``spec``.

    The multi-tier world's own radio sites
    (:data:`~repro.multitier.architecture.DOMAIN_SITES`), so coverage
    (and thus the mobility a roam rectangle induces) is identical
    across stacks — re-parented into the flat two-level tree: macro
    umbrellas under the root, then every micro street cell directly
    under its umbrella, then ``spec.pico_cells`` picos placed by the
    SAME shared rule the multi-tier builder uses
    (:func:`~repro.stacks.population.pico_placements`: fixed offsets
    under the micro leaves in legacy mode, seeded population
    concentration points — requiring ``starts`` and the assignments —
    when contention is enabled).  Deterministic: pure function of its
    inputs.
    """
    by_name = {
        site.name: site
        for domain in DOMAIN_SITES[: spec.domains]
        for site in domain
    }
    radio = [site for site in by_name.values() if site.center is not None]
    sites = [
        replace(site, parent="") for site in radio if site.tier is Tier.MACRO
    ]
    for site in radio:
        if site.tier is Tier.MICRO:
            umbrella = site
            while umbrella.tier is not Tier.MACRO:
                umbrella = by_name[umbrella.parent]
            sites.append(replace(site, parent=umbrella.name))

    leaf_centers = {name: by_name[name].center for name in PICO_LEAVES}
    placements = pico_placements(
        spec, starts, mobility_assignment, traffic_assignment, leaf_centers
    )
    for pico, (parent, center) in enumerate(placements):
        sites.append(Site(f"p{pico}", Tier.PICO, center, parent))
    return sites


def flat_access(
    spec: "ScenarioSpec",
    plan: "PopulationPlan",
    sim: "Simulator",
    place: Callable[[Site, Optional["SharedChannel"]], Any],
) -> tuple[list, list, SignalMeter]:
    """Place one access node per flat site: ``(nodes, air_cells, meter)``.

    Walks :func:`flat_cell_layout` and calls ``place(site, channel)``
    once per site, in layout order, with the cell's shared channel
    (``None`` in legacy mode).  ``air_cells`` holds the ``(cell,
    channel)`` pair of each contended cell, for the air metrics and the
    fluid driver; ``meter`` surveys the cells indexed like ``nodes``
    and is shared by every controller of the build.  Deterministic:
    layout order fixes address allocation and channel creation.
    """
    channel_plan = plan.channel_plan
    nodes, cells, air_cells = [], [], []
    for site in flat_cell_layout(
        spec, plan.starts, plan.mobility_assignment, plan.traffic_assignment
    ):
        cell = site.cell()
        channel = (
            channel_plan.channel_for(sim, cell)
            if channel_plan is not None
            else None
        )
        nodes.append(place(site, channel))
        cells.append(cell)
        if channel is not None:
            air_cells.append((cell, channel))
    return nodes, air_cells, SignalMeter(PropagationModel(), cells)


@dataclass(kw_only=True)
class FlatRun(BuiltRun):
    """A flat stack's run: the shared skeleton plus its mobiles, in
    population order."""

    mobiles: list


def flat_run(
    run: type[FlatRun],
    spec: "ScenarioSpec",
    seed: int,
    plan: "PopulationPlan",
    sim: "Simulator",
    cn,
    downlink: Callable,
    access: tuple[list, list, SignalMeter],
    new_mobile: Callable[[int], tuple[Any, Any, Callable, Callable]],
    **fields,
) -> FlatRun:
    """Lay the population over a wired flat world and return its run.

    ``access`` is :func:`flat_access`'s ``(nodes, air_cells, meter)``
    and ``downlink`` the correspondent ``cn``'s injection into the
    core.  Per mobile index, ``new_mobile(index)`` creates the mobile
    and returns ``(mobile, address, attach, handoff)``: the mobile
    (its ``name``, ``on_data`` hooks and ``originate``), the address
    its flows are sent to and its two moves, which one
    :class:`~repro.mobility.controller.MobilityController` deciding
    with :data:`STRONGEST_SIGNAL` drives.  Returns ``run`` built with
    the skeleton's fields, the mobiles and the stack's own ``fields``.
    Deterministic: population order, seeded streams only.
    """
    nodes, air_cells, meter = access
    trace = DecisionTrace()
    controllers: list[MobilityController] = []
    mobiles: list = []

    def add_mobile(index: int, kind: str, model) -> MobileEndpoint:
        mobile, address, attach, handoff = new_mobile(index)
        controllers.append(MobilityController(
            sim, model, nodes, meter, trace, STRONGEST_SIGNAL,
            attach, handoff, spec.sample_period, name=mobile.name,
        ))
        mobiles.append(mobile)
        return MobileEndpoint(downlink, mobile.on_data, mobile.originate, address)

    flow_plans, fluid_driver = wire_population(
        sim, plan, cn, add_mobile, air_cells
    )
    return run(
        spec=spec, seed=int(seed), sim=sim, population=plan,
        flow_plans=flow_plans, fluid_driver=fluid_driver,
        air_cells=air_cells, decision_trace=trace,
        controllers=controllers, mobiles=mobiles, **fields,
    )


__all__ = [
    "STRONGEST_SIGNAL",
    "FlatRun",
    "flat_access",
    "flat_cell_layout",
    "flat_run",
]
