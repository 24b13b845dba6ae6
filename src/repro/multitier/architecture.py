"""Full-system assembly of the paper's architecture (Figures 3.1 and
4.1), with a mobility controller per mobile.

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
from repro.mobility.controller import MobilityController
from repro.multitier.basestation import MultiTierBaseStation
from repro.multitier.correspondent import CorrespondentNode
from repro.multitier.domain import MobileRealm, MultiTierDomain
from repro.multitier.mnld import MNLD
from repro.multitier.mobile import MultiTierMobileNode
from repro.multitier.rsmc import RSMC
from repro.policy.decider import TierDecider
from repro.policy.trace import DecisionTrace
from repro.net import Network
from repro.net.addressing import AddressAllocator
from repro.radio.cells import Cell, Tier
from repro.radio.channel import ChannelPlan
from repro.radio.geometry import Point, Rectangle
from repro.radio.propagation import PropagationModel
from repro.radio.signal import SignalMeter
from repro.sim.kernel import Simulator

#: The strip of the world that mobility models roam.
WORLD_BOUNDS = Rectangle(-4500, -1500, 8500, 1500)
HOME_PREFIX = "10.99.0.0/16"
#: One-way delay (s) from the MNLD and the correspondent to the Internet core.
INTERNET_DELAY = 0.005


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
        #: refused moves here (ring buffer + exact counters).
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
        self.network.connect(self.mnld, self.internet, delay=INTERNET_DELAY)
        self.network.connect(self.cn, self.internet, delay=INTERNET_DELAY)
        self.cn.gateway_router = self.internet

        # Domains ---------------------------------------------------------
        self.domain1 = self._build_domain(0)
        self.domain2 = self._build_domain(1) if second_domain else None

        self.network.install_routes()
        install_home_prefix_routes(self.network, self.ha)

        self.mobiles: list[MultiTierMobileNode] = []
        self.controllers: list[MobilityController] = []
        # Shared by every controller (see add_controller).
        self._stations: Optional[list[MultiTierBaseStation]] = None
        self._meter: Optional[SignalMeter] = None

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

    def all_radio_stations(self) -> list[MultiTierBaseStation]:
        stations = self.domain1.radio_stations()
        if self.domain2 is not None:
            stations.extend(self.domain2.radio_stations())
        return stations

    def add_controller(
        self,
        mobile: MultiTierMobileNode,
        model,
        policy: Optional[TierDecider] = None,
        sample_period: float = 0.5,
    ) -> MobilityController:
        """A controller over every radio station built so far, moving
        ``mobile`` by its admission-checked moves; the station list and
        its meter are shared, rebuilt only when stations were added."""
        stations = self.all_radio_stations()
        if stations != self._stations:
            self._stations = stations
            self._meter = SignalMeter(
                PropagationModel(), [bs.cell for bs in stations]
            )
        controller = MobilityController(
            self.sim, model, self._stations, self._meter, self.decision_trace,
            policy if policy is not None else TierDecider(),
            mobile.initial_attach,
            lambda old, new: mobile.perform_handoff(new), sample_period,
            name=mobile.name, demand=mobile.bandwidth_demand,
        )
        self.controllers.append(controller)
        return controller
