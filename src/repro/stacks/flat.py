"""Flat-deployment helpers shared by the baseline stack adapters.

The Cellular IP and Mobile IP baselines deploy cells at the *same*
geometry as the multi-tier world — macro umbrellas R1/R2(/R4), micro
street cells A–G, and the spec's pico cells — but manage them flat:
no tier policy, no hierarchy-aware handoff.  :func:`flat_cell_layout`
produces that site list from a spec, and
:class:`FlatMobilityController` drives one mobile across it with the
classic strongest-signal + hysteresis rule (the baseline the paper's
three-factor decision is compared against).

Determinism: the layout is a pure function of ``(spec, starts,
assignments)``; the controller samples the (seeded) mobility model on a
fixed period and decides from :class:`~repro.radio.signal.SignalMeter`
surveys only — same ``(spec, seed)``, same handoff schedule, in any
process, on any execution backend.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Optional

from repro.multitier.architecture import DOMAIN_SITES, PICO_LEAVES, Site
from repro.radio.cells import Cell, Tier
from repro.radio.geometry import Point
from repro.radio.propagation import PropagationModel
from repro.radio.signal import SignalMeter
from repro.stacks.population import pico_placements

if TYPE_CHECKING:  # pragma: no cover
    from repro.mobility import MobilityModel
    from repro.scenarios.spec import ScenarioSpec
    from repro.sim.kernel import Simulator


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


class FlatMobilityController:
    """Strongest-signal mobility for one mobile over a flat deployment.

    Samples the mobility model every ``sample_period`` seconds, surveys
    all cells, and: attaches to the strongest covering cell when
    unattached; hands off when the serving cell no longer covers the
    position (forced) or a covering rival beats it by ``hysteresis_db``
    — the tier-blind baseline behaviour (no speed or bandwidth factor).

    Subclasses implement :meth:`_attach` / :meth:`_handoff` as
    generators executing the stack's actual attachment machinery; the
    controller records handoff counts and wall-clock latencies (the
    time the handoff generator occupied, e.g. the Cellular IP semisoft
    interval).  Deterministic: decisions read only the seeded model and
    the pure signal survey.
    """

    def __init__(
        self,
        sim: "Simulator",
        model: "MobilityModel",
        cells: list[Cell],
        sample_period: float = 0.5,
        hysteresis_db: float = 4.0,
        meter: Optional[SignalMeter] = None,
    ) -> None:
        self.sim = sim
        self.model = model
        self.sample_period = sample_period
        self.hysteresis_db = hysteresis_db
        #: Stack builders pass the one meter (over ``cells``) that all
        #: their controllers share; a hand-built controller gets its own.
        self.meter = meter or SignalMeter(PropagationModel(), cells)
        self.serving_cell: Optional[Cell] = None
        self.handoffs = 0
        self.handoff_latencies: list[float] = []
        self.process = sim.process(self._run())

    # ------------------------------------------------------------------
    def _run(self):
        while True:
            yield self.sim.timeout(self.sample_period)
            position = self.model.advance(self.sample_period)
            covering = self.meter.scan(position, covering=True)
            if not covering:
                continue
            cells = self.meter.cells
            best_rss, best_index = covering[0]  # sorted strongest-first
            best = cells[best_index]
            if self.serving_cell is None:
                self.serving_cell = best
                yield from self._attach(best)
                continue
            serving_rss = next(
                (rss for rss, i in covering if cells[i] is self.serving_cell), None
            )
            if serving_rss is None:
                target = best  # forced: walked out of the serving cell
            elif (
                best is not self.serving_cell
                and best_rss >= serving_rss + self.hysteresis_db
            ):
                target = best
            else:
                continue
            old = self.serving_cell
            self.serving_cell = target
            started = self.sim.now
            yield from self._handoff(old, target)
            self.handoffs += 1
            self.handoff_latencies.append(self.sim.now - started)

    # ------------------------------------------------------------------
    def _attach(self, cell: Cell):
        """Stack hook: initial attachment to ``cell`` (generator)."""
        return
        yield  # pragma: no cover - makes this a generator

    def _handoff(self, old: Cell, new: Cell):
        """Stack hook: execute the move ``old`` -> ``new`` (generator)."""
        return
        yield  # pragma: no cover - makes this a generator


__all__ = [
    "FlatMobilityController",
    "flat_cell_layout",
]
