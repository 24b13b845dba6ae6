"""Full-system assembly of the paper's architecture (Figures 3.1 and
4.1) plus the mobile-side mobility controller.

The canonical world:

* a wired Internet core with a Home Agent (home prefix 10.99.0.0/16),
  an MNLD and a correspondent node;
* **domain 1** (Fig 3.1): RSMC1 over macro aggregation BS *R3*, macro
  cells *R1*, *R2*, micro aggregation *A*/*D* and micro leaf cells
  *B*, *C*, *E*, *F* laid out along a 2-D strip so that walking east
  produces exactly the handoffs of Fig 3.4;
* optionally **domain 2** (Fig 3.3): RSMC2 with macro *R4* and micro
  *G*, overlapping domain 1's eastern edge, so that crossing into it is
  an inter-domain handoff with a *different* upper BS.

Geometry (x-axis meters)::

    B(-2700)  A(-2000)  C(-1300) |corridor| E(1300)  D(2000)  F(2700)   G(6000)
    [------ R1 macro (-2000 r2500) ------][------ R2 macro (2000) -----][-- R4 --]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.mobileip import HomeAgent, install_home_prefix_routes
from repro.multitier.basestation import MultiTierBaseStation
from repro.multitier.correspondent import CorrespondentNode
from repro.multitier.domain import MobileRealm, MultiTierDomain
from repro.multitier.mnld import MNLD
from repro.multitier.mobile import MultiTierMobileNode
from repro.multitier.rsmc import RSMC
from repro.policy.decider import TierDecider
from repro.policy.trace import DecisionTrace
from repro.policy.types import (
    Candidate,
    HandoffFactors,
    NextAction,
    TierDecision,
)
from repro.net import Network
from repro.net.addressing import AddressAllocator
from repro.radio.cells import Cell, Tier
from repro.radio.channel import DOWNLINK, ChannelPlan
from repro.radio.geometry import Point, Rectangle
from repro.radio.propagation import PropagationModel
from repro.radio.signal import SignalMeter
from repro.sim.kernel import Simulator

#: The strip of the world that mobility models roam.
WORLD_BOUNDS = Rectangle(-4500, -1500, 8500, 1500)
HOME_PREFIX = "10.99.0.0/16"


@dataclass(frozen=True)
class Site:
    """One station site: name, tier, cell centre and wired-tree parent."""

    name: str
    tier: Tier
    #: ``None`` = aggregation only (no cell).
    center: Optional[Point]
    #: Name of the parent site ("" = directly under the domain root).
    parent: str

    def cell(self) -> Cell:
        """This site's :class:`~repro.radio.cells.Cell` (tier defaults
        fill radius and radio parameters)."""
        return Cell(name=f"cell-{self.name}", center=self.center, tier=self.tier)


#: The canonical world's sites, one tuple per domain, in build order
#: (address allocation, wired links and the station dicts follow it).
#: Macro towers sit 800 m off the street axis, so at street level a
#: nearby micro cell is stronger than the macro umbrella — signal-
#: chasing policies therefore churn between tiers (E9's baseline).
DOMAIN_SITES: tuple[tuple[Site, ...], ...] = (
    (
        # Macro tier: R3 aggregates R1 and R2 (Fig 3.1's two levels).
        Site("R3", Tier.MACRO, None, ""),
        Site("R1", Tier.MACRO, Point(-2000, 800), "R3"),
        Site("R2", Tier.MACRO, Point(2000, 800), "R3"),
        # Micro tier west (under R1): A aggregates B and C.
        Site("A", Tier.MICRO, Point(-2000, 0), "R1"),
        Site("B", Tier.MICRO, Point(-2700, 0), "A"),
        Site("C", Tier.MICRO, Point(-1300, 0), "A"),
        # Micro tier east (under R2): D aggregates E and F.
        Site("D", Tier.MICRO, Point(2000, 0), "R2"),
        Site("E", Tier.MICRO, Point(1300, 0), "D"),
        Site("F", Tier.MICRO, Point(2700, 0), "D"),
    ),
    (
        Site("R4", Tier.MACRO, Point(6000, 800), ""),
        Site("G", Tier.MICRO, Point(6000, 0), "R4"),
    ),
)

#: Micro leaves eligible as pico parents.
PICO_LEAVES = ("B", "C", "E", "F")


@dataclass
class DomainHandle:
    """Convenient access to one built domain's parts."""

    domain: MultiTierDomain
    rsmc: RSMC
    stations: dict[str, MultiTierBaseStation] = field(default_factory=dict)

    def __getitem__(self, name: str) -> MultiTierBaseStation:
        return self.stations[name]

    def radio_stations(self) -> list[MultiTierBaseStation]:
        return [bs for bs in self.stations.values() if bs.cell is not None]


class MultiTierWorld:
    """The assembled simulation world."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        home_delay: float = 0.025,
        internet_delay: float = 0.005,
        second_domain: bool = False,
        domain_kwargs: Optional[dict] = None,
        channel_plan: Optional[ChannelPlan] = None,
    ) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.network = Network(self.sim, prefix="10.0.0.0/8")
        self.realm = MobileRealm()
        self.domain_kwargs = dict(domain_kwargs or {})
        #: Per-tier shared air-interface budgets; ``None`` (default) =
        #: legacy unconstrained per-mobile radio links.
        self.channel_plan = channel_plan
        #: World-wide decision-trace log: every controller built via
        #: :meth:`add_controller` records its tier decisions and
        #: fallbacks here (ring buffer + exact ``policy.*`` counters).
        self.decision_trace = DecisionTrace()
        self._home_allocator = AddressAllocator(HOME_PREFIX)

        # Wired core ----------------------------------------------------
        self.internet = self.network.router("internet")
        self.ha = HomeAgent(
            self.sim, "ha", self.network.allocator.allocate(), HOME_PREFIX
        )
        self.mnld = MNLD(self.sim, "mnld", self.network.allocator.allocate())
        self.cn = CorrespondentNode(
            self.sim, "cn", self.network.allocator.allocate()
        )
        for node in (self.ha, self.mnld, self.cn):
            self.network.add(node)
        self.network.connect(self.ha, self.internet, delay=home_delay)
        self.network.connect(self.mnld, self.internet, delay=internet_delay)
        self.network.connect(self.cn, self.internet, delay=internet_delay)
        self.cn.gateway_router = self.internet
        self.mnld.gateway_router = self.internet

        # Domains ---------------------------------------------------------
        self.domain1 = self._build_domain(0)
        self.domain2 = self._build_domain(1) if second_domain else None

        self.network.install_routes()
        install_home_prefix_routes(self.network, self.ha)

        self.mobiles: list[MultiTierMobileNode] = []
        self.controllers: list["MobilityController"] = []
        self._meter: Optional[SignalMeter] = None  # see add_controller

    # ------------------------------------------------------------------
    def _new_domain(self) -> MultiTierDomain:
        return MultiTierDomain(self.sim, realm=self.realm, **self.domain_kwargs)

    def _station(
        self,
        domain: MultiTierDomain,
        name: str,
        tier: Tier,
        center: Optional[Point],
        radius: float = 0.0,
        channels: Optional[int] = None,
    ) -> MultiTierBaseStation:
        cell = None
        shared_channel = None
        if center is not None:
            cell = Cell(name=f"cell-{name}", center=center, tier=tier, radius=radius)
            if self.channel_plan is not None:
                shared_channel = self.channel_plan.channel_for(self.sim, cell)
        station = MultiTierBaseStation(
            self.sim,
            name,
            self.network.allocator.allocate(),
            domain,
            tier=tier,
            cell=cell,
            channels=channels,
            shared_channel=shared_channel,
        )
        self.network.add(station)
        return station

    def _build_domain(self, index: int) -> DomainHandle:
        """Build domain ``index`` of :data:`DOMAIN_SITES` under its RSMC."""
        domain = self._new_domain()
        rsmc = RSMC(
            self.sim,
            f"rsmc{index + 1}",
            self.network.allocator.allocate(),
            domain,
            home_agent_address=self.ha.address,
            mnld_address=self.mnld.address,
        )
        self.network.add(rsmc)
        self.network.connect(rsmc, self.internet, delay=0.005)
        rsmc.internet_neighbor = self.internet

        handle = DomainHandle(domain=domain, rsmc=rsmc)
        for site in DOMAIN_SITES[index]:
            handle.stations[site.name] = self._station(
                domain, site.name, site.tier, site.center
            )
        for site in DOMAIN_SITES[index]:
            parent = handle[site.parent] if site.parent else rsmc
            domain.link(parent, handle[site.name])
        return handle

    # ------------------------------------------------------------------
    def add_pico(
        self,
        parent_name: str,
        name: str,
        center: Point,
        radius: float = 60.0,
        channels: Optional[int] = None,
        domain: str = "domain1",
    ) -> MultiTierBaseStation:
        """Attach an in-building pico cell under an existing station.

        Pico cells are the paper's third hierarchy level (Fig 2.1);
        mobility-wise they behave like micro cells (micro_table only).
        """
        handle: DomainHandle = getattr(self, domain)
        parent = handle[parent_name]
        station = self._station(
            handle.domain, name, Tier.PICO, center, radius=radius, channels=channels
        )
        handle.domain.link(parent, station)
        handle.stations[name] = station
        return station

    def add_mobile(
        self,
        name: str,
        bandwidth_demand: float = 0.0,
        airtime_key: Optional[int] = None,
    ) -> MultiTierMobileNode:
        mobile = MultiTierMobileNode(
            self.sim,
            name,
            home_address=self._home_allocator.allocate(),
            realm=self.realm,
            bandwidth_demand=bandwidth_demand,
            airtime_key=airtime_key,
        )
        self.mobiles.append(mobile)
        return mobile

    def protocol_hop_totals(self) -> dict[str, int]:
        """Per-protocol delivered-hop totals over every link of this
        world (wired, radio, both domains) — the T1 accounting input.

        Scoped to this world's simulator, so several worlds can coexist
        (sequentially or on a parallel execution backend) without
        cross-contaminating each other's totals.
        """
        return self.network.protocol_hop_totals()

    def all_radio_stations(self) -> list[MultiTierBaseStation]:
        stations = self.domain1.radio_stations()
        if self.domain2 is not None:
            stations.extend(self.domain2.radio_stations())
        return stations

    def add_controller(self, mobile, model, **kwargs) -> "MobilityController":
        """A controller over every radio station built so far; the
        shared meter is rebuilt only when stations were added since."""
        kwargs.setdefault("trace", self.decision_trace)
        stations = self.all_radio_stations()
        cells = [bs.cell for bs in stations]
        if self._meter is None or self._meter.cells != cells:
            self._meter = SignalMeter(PropagationModel(), cells)
        controller = MobilityController(
            self.sim, mobile, model, stations, meter=self._meter, **kwargs
        )
        self.controllers.append(controller)
        return controller


class MobilityController:
    """Drives one mobile: samples its mobility model, applies the
    three-factor decision and executes handoffs (§3.2)."""

    def __init__(
        self,
        sim: Simulator,
        mobile: MultiTierMobileNode,
        model,
        stations: list[MultiTierBaseStation],
        policy: Optional[TierDecider] = None,
        sample_period: float = 0.5,
        hysteresis_db: float = 4.0,
        offload_queue_threshold: int = 3,
        trace: Optional[DecisionTrace] = None,
        meter: Optional[SignalMeter] = None,
    ) -> None:
        self.sim = sim
        self.mobile = mobile
        self.model = model
        self.policy = policy if policy is not None else TierDecider()
        #: Decision-trace log this controller records into; worlds pass
        #: their shared per-world trace, hand-built controllers get a
        #: private one.
        self.trace = trace if trace is not None else DecisionTrace()
        self.sample_period = sample_period
        self.hysteresis_db = hysteresis_db
        #: Contention mode only: downlink packets waiting on the
        #: serving cell's shared channel before a traffic-bearing
        #: mobile looks for a covering cell with spare airtime (the
        #: "resources of BS" factor made real; no effect in legacy
        #: mode, where cells have no shared channel).
        self.offload_queue_threshold = offload_queue_threshold
        self.stations = [bs for bs in stations if bs.cell is not None]
        #: Scans ``stations``' cells in station order (candidates map
        #: back by position).  Worlds pass the one meter all their
        #: controllers share; a hand-built controller gets its own.
        self.meter = meter or SignalMeter(
            PropagationModel(), [bs.cell for bs in self.stations]
        )
        self.blocked_attach_attempts = 0
        self.process = sim.process(self._run(), name=f"{mobile.name}-controller")

    # ------------------------------------------------------------------
    def _run(self):
        mobile = self.mobile
        stations = self.stations
        policy = self.policy
        scan = self.meter.scan
        while True:
            yield self.sim.timeout(self.sample_period)
            position = self.model.advance(self.sample_period)
            mobile.speed = self.model.speed
            # One pass from the scan to the decision: the candidates are
            # exactly the audible cells covering us, strongest first.
            candidates = [
                Candidate(stations[index], rss)
                for rss, index in scan(position, covering=True)
            ]
            if not candidates:
                continue
            factors = HandoffFactors(
                mobile.speed, mobile.bandwidth_demand, mobile.serving_tier
            )
            preference = policy.tier_preference(factors)
            ordered = policy.order_by_preference(candidates, preference)

            if mobile.serving_bs is None:
                for index, candidate in enumerate(ordered):
                    if mobile.initial_attach(candidate.station):
                        break
                    self.blocked_attach_attempts += 1
                    self._note_fallback(
                        candidate,
                        ordered[index + 1:],
                        candidate.station.last_rejection_reason
                        or "attach-blocked",
                    )
                continue

            decision = self._decide(candidates, factors, ordered, preference)
            if decision is None:
                continue
            self.trace.record(
                self.sim.now,
                mobile.name,
                "decision",
                decision.reasons,
                target=(
                    decision.target.station.name
                    if decision.target is not None
                    else ""
                ),
            )
            # Try candidates best-first until one admits us (the paper's
            # tier overflow: "turns to ask micro-tier for handoff").
            for index, candidate in enumerate(decision.targets):
                if candidate.station is mobile.serving_bs:
                    break
                accepted = yield from mobile.perform_handoff(candidate.station)
                if accepted:
                    break
                self._note_fallback(
                    candidate,
                    decision.targets[index + 1:],
                    mobile.last_handoff_failure or "handoff-rejected",
                )

    def _note_fallback(
        self,
        failed: Candidate,
        remaining: list[Candidate],
        reason: str,
    ) -> None:
        """Record what happens after one refused or timed-out attempt.

        Mirrors the try-next-candidate loop exactly: the next target is
        ``remaining[0]`` (the serving station there means the loop will
        stop), a different tier means the §3.2 "turn to ask" overflow
        (``ESCALATE_TIER``), the same tier a plain retry.
        """
        serving = self.mobile.serving_bs
        nxt = remaining[0] if remaining else None
        if nxt is None or nxt.station is serving:
            action = NextAction.STOP
            target = ""
        else:
            if nxt.tier is not failed.tier:
                action = NextAction.ESCALATE_TIER
            else:
                action = NextAction.RETRY_SAME_TIER
            target = nxt.station.name
        self.trace.record(
            self.sim.now,
            self.mobile.name,
            "fallback",
            [reason],
            action=action.value,
            target=target,
        )

    def _channel_congested(self, station: MultiTierBaseStation) -> bool:
        """True when ``station``'s shared downlink queue is at or above
        the offload threshold; always False in legacy mode (no channel).
        """
        channel = station.shared_channel
        return (
            channel is not None
            and channel.queued[DOWNLINK] >= self.offload_queue_threshold
        )

    def _airtime_relief(
        self, ordered: list[Candidate], factors: HandoffFactors
    ) -> Optional[list[Candidate]]:
        """Offload targets when the serving shared channel is congested.

        Only asked in contention mode (the serving cell has a shared
        channel).  Returns the policy-ordered covering candidates whose
        shared channels have spare airtime (downlink queue below the
        offload threshold), or ``None`` when the mobile carries no
        traffic or the serving channel is not congested.  Deterministic:
        reads only the channels' current queue lengths.
        """
        serving = self.mobile.serving_bs
        if factors.bandwidth_demand <= 0 or not self._channel_congested(serving):
            return None
        relief = [
            c
            for c in ordered
            if c.station is not serving
            and c.station.shared_channel is not None
            and not self._channel_congested(c.station)
        ]
        return relief or None

    def _decide(
        self,
        candidates: list[Candidate],
        factors: HandoffFactors,
        ordered: list[Candidate],
        preference: list[Tier],
    ) -> Optional[TierDecision]:
        """None = stay; otherwise an explainable decision whose
        ``targets`` are the ordered candidates to try and whose
        ``reasons`` name the branch that fired (reason vocabulary:
        ``docs/POLICY.md``).  ``ordered`` and ``preference`` are the
        policy's ordering of ``candidates`` and the tier preference it
        was made with."""
        serving = self.mobile.serving_bs
        serving_candidate = None
        for candidate in candidates:
            if candidate.station is serving:
                serving_candidate = candidate
                break

        # Factor: signal — out of the serving cell entirely, must move
        # (candidates are exactly the audible cells covering us).
        if serving_candidate is None:
            return TierDecision(
                [c for c in ordered if c.station is not serving],
                ["out-of-coverage"] + self.policy.preference_reasons(factors),
                factors,
            )

        # Factor: resources — in contention mode a congested shared
        # channel sheds traffic-bearing mobiles toward covering cells
        # with spare airtime (the paper's pico-overlay absorption:
        # "system will switch MN" when the serving tier cannot carry
        # its bandwidth).  Never fires in legacy mode (no channel).
        if serving.shared_channel is not None:
            relief = self._airtime_relief(ordered, factors)
            if relief is not None:
                return TierDecision(
                    relief, ["airtime-relief", "serving-channel-congested"], factors
                )

        # Nothing but the serving cell covers us: no tier to prefer and
        # no rival to beat it.
        if len(candidates) == 1:
            return None

        tier_agnostic = self.policy.tier_agnostic
        if not tier_agnostic:
            # Factors: speed / bandwidth demand — switch to a tier the
            # policy ranks strictly better than the serving one.  In
            # contention mode a congested target is never "better":
            # without this filter the preference branch would bounce a
            # mobile straight back into the congested cell that
            # _airtime_relief just moved it off (handoff ping-pong).
            serving_rank = preference.index(serving.tier)
            better_tier = [
                c
                for c in ordered
                if preference.index(c.tier) < serving_rank
                and not self._channel_congested(c.station)
            ]
            if better_tier:
                best_rank = min(preference.index(c.tier) for c in better_tier)
                return TierDecision(
                    [
                        c
                        for c in better_tier
                        if preference.index(c.tier) == best_rank
                    ],
                    ["better-tier"] + self.policy.preference_reasons(factors),
                    factors,
                )

        # Factor: signal — a rival (of the serving tier, unless the
        # policy ignores tiers) beats us by the hysteresis margin;
        # congested rivals are excluded in contention mode for the same
        # reason as above.
        rivals = [
            c
            for c in candidates
            if c.station is not serving
            and (tier_agnostic or c.tier is serving.tier)
            and not self._channel_congested(c.station)
        ]
        if rivals:
            best = max(rivals, key=lambda c: c.rss_dbm)
            if best.rss_dbm >= serving_candidate.rss_dbm + self.hysteresis_db:
                return TierDecision(
                    [best]
                    + [
                        c
                        for c in ordered
                        if c.station not in (best.station, serving)
                    ],
                    ["signal-hysteresis"],
                    factors,
                )
        return None
