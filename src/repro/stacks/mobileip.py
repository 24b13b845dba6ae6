"""The flat Mobile IP baseline stack adapter.

Every cell site of the multi-tier geometry becomes a
:class:`~repro.mobileip.foreign_agent.ForeignAgent`; every cell change
is a full home registration through the visited FA to the Home Agent,
and downlink traffic always rides the HA tunnel triangle (no route
optimization, no hierarchy).  Packets tunnelled to a stale care-of
address during the registration round-trip are the scheme's
characteristic handoff losses — the paper's macro-mobility baseline.

Shared-channel mode (the ROADMAP's "uplink contention in the Mobile IP
baseline" nicety): when the spec enables contention, every FA gets a
per-tier :class:`~repro.radio.channel.SharedChannel`, so downlink
deliveries *and* the mobiles' uplink — registration requests included
— contend for airtime exactly like the other stacks.

Determinism: the same population plan and stream names as every stack
(:mod:`repro.stacks.population`); controllers decide from seeded
models and pure signal surveys.  One ``(spec, seed)`` pair returns
byte-identical metrics on any execution backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.mobileip import (
    ForeignAgent,
    HomeAgent,
    MobileIPNode,
    install_home_prefix_routes,
)
from repro.multitier.architecture import HOME_PREFIX
from repro.net.addressing import AddressAllocator
from repro.net.packet import Packet
from repro.net.topology import Network
from repro.policy.config import PolicyConfig
from repro.radio.cells import Cell
from repro.radio.propagation import PropagationModel
from repro.radio.signal import SignalMeter
from repro.sim.kernel import Simulator
from repro.stacks.base import BuiltRun, StackAdapter
from repro.stacks.flat import FlatMobilityController, flat_cell_layout
from repro.stacks.population import (
    MobileEndpoint,
    plan_population,
    wire_population,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only (import cycle)
    from repro.scenarios.spec import ScenarioSpec

#: The mobiles' permanent addresses come from the SAME home prefix the
#: multi-tier world uses (imported from its single source of truth,
#: :data:`repro.multitier.architecture.HOME_PREFIX`), so cross-stack
#: flow endpoints match.

#: Wired-link knobs shared with the multi-tier world's defaults.
_HOME_DELAY = 0.025
_INTERNET_DELAY = 0.005


class _MIPController(FlatMobilityController):
    """Strongest-signal controller moving a mobile between FAs.

    A move is detach-from-old + attach-to-new; the new FA's immediate
    agent advertisement triggers the node's home registration, whose
    round-trip is where Mobile IP's handoff losses accrue.
    """

    def __init__(self, sim, model, node, agents_by_cell, **kwargs):
        self.node = node
        self.agents_by_cell = agents_by_cell
        super().__init__(sim, model, **kwargs)

    def _attach(self, cell: Cell):
        """Initial attachment: associate with the cell's FA."""
        self.agents_by_cell[cell.name].attach_mobile(self.node)
        return
        yield  # pragma: no cover - generator protocol

    def _handoff(self, old: Cell, new: Cell):
        """Break-then-make FA change (registration runs asynchronously)."""
        self.agents_by_cell[old.name].detach_mobile(self.node)
        self.agents_by_cell[new.name].attach_mobile(self.node)
        return
        yield  # pragma: no cover - generator protocol


@dataclass(kw_only=True)
class BuiltMIPScenario(BuiltRun):
    """A fully assembled Mobile IP world plus its planned traffic."""

    network: Network
    home_agent: HomeAgent
    agents: list[ForeignAgent]
    nodes: list[MobileIPNode]
    controllers: list[_MIPController]

    def mobility_counters(self) -> tuple[int, list[float], int]:
        """Moves and attachments per controller; latencies per node.

        Mobile IP re-establishes routing via home registration, so the
        registration round-trip IS the handoff latency.
        """
        return (
            sum(controller.handoffs for controller in self.controllers),
            [
                latency
                for node in self.nodes
                for latency in node.registration_latencies
            ],
            sum(
                1
                for controller in self.controllers
                if controller.serving_cell is not None
            ),
        )

    def extras(self) -> dict[str, float]:
        """Namespaced Mobile IP extras (metric contract: base.py)."""
        home_agent = self.home_agent
        return {
            "mip.registration_attempts": float(
                sum(node.registration_attempts for node in self.nodes)
            ),
            "mip.registrations_accepted": float(
                home_agent.registrations_accepted
            ),
            "mip.registrations_denied": float(home_agent.registrations_denied),
            "mip.tunneled": float(home_agent.tunneled_count),
            "mip.dropped_no_binding": float(home_agent.dropped_no_binding),
            "mip.dropped_unknown_visitor": float(
                sum(agent.dropped_unknown_visitor for agent in self.agents)
            ),
        }


def build_mip_scenario(spec: ScenarioSpec, seed: int) -> BuiltMIPScenario:
    """Assemble the flat Mobile IP world for one ``(spec, seed)``.

    One FA per cell site (macro, micro, pico), all on the wired core
    next to the HA and CN; population, trajectories and traffic come
    from the shared plan, so the run is directly comparable to the
    other stacks at the same seed.  ``spec.domain_overrides`` link
    knobs map onto the analogous links — ``wireless_bandwidth`` /
    ``wireless_delay`` onto the FA radio links, ``wired_bandwidth`` /
    ``wired_delay`` onto the FA↔core access backhaul (so a
    choked-backhaul scenario chokes every stack, apples-to-apples);
    the remaining overrides are multi-tier-specific and ignored here.
    Deterministic: seeded streams only.
    """
    plan = plan_population(spec, seed, PolicyConfig())
    sim = Simulator()
    network = Network(sim, prefix="10.0.0.0/8")
    core = network.router("internet")
    home_agent = HomeAgent(
        sim, "ha", network.allocator.allocate(), HOME_PREFIX
    )
    network.add(home_agent)
    cn = network.host("cn")
    network.connect(home_agent, core, delay=_HOME_DELAY)
    network.connect(cn, core, delay=_INTERNET_DELAY)

    # Link knobs mirror the multi-tier domain defaults unless the spec
    # overrides them: radio legs per FA, and the FA↔core access
    # backhaul (the flat analogue of the domain's wired tree).
    wireless_bandwidth = float(
        spec.domain_overrides.get("wireless_bandwidth", 2e6)
    )
    wireless_delay = float(
        spec.domain_overrides.get("wireless_delay", 0.002)
    )
    wired_bandwidth = float(
        spec.domain_overrides.get("wired_bandwidth", 100e6)
    )
    wired_delay = float(
        spec.domain_overrides.get("wired_delay", _INTERNET_DELAY)
    )
    layout = flat_cell_layout(
        spec, plan.starts, plan.mobility_assignment, plan.traffic_assignment
    )
    agents: list[ForeignAgent] = []
    agents_by_cell: dict[str, ForeignAgent] = {}
    cells: list[Cell] = []
    air_cells = []
    for site in layout:
        cell = site.cell()
        agent = ForeignAgent(
            sim,
            f"fa-{site.name}",
            network.allocator.allocate(),
            wireless_bandwidth=wireless_bandwidth,
            wireless_delay=wireless_delay,
            shared_channel=(
                plan.channel_plan.channel_for(sim, cell)
                if plan.channel_plan is not None
                else None
            ),
        )
        network.add(agent)
        network.connect(
            agent, core, bandwidth=wired_bandwidth, delay=wired_delay
        )
        agents.append(agent)
        agents_by_cell[cell.name] = agent
        cells.append(cell)
        if agent.shared_channel is not None:
            air_cells.append((cell, agent.shared_channel))
    meter = SignalMeter(PropagationModel(), cells)  # shared by every controller
    network.install_routes()
    install_home_prefix_routes(network, home_agent)

    downlink = cn.links[core].transmit

    home_allocator = AddressAllocator(HOME_PREFIX)
    nodes: list[MobileIPNode] = []
    controllers: list[_MIPController] = []

    def add_mobile(index: int, kind: str, model) -> MobileEndpoint:
        node = MobileIPNode(
            sim,
            f"mn{index}",
            home_address=home_allocator.allocate(),
            home_agent_address=home_agent.address,
        )
        #: Deterministic shared-channel arbitration key (population
        #: index), matching the other stacks' tie-break order.
        node.airtime_key = index
        #: MobileIPNode has no native on_data list, so the mobile's
        #: flows (hotspot flows included) share this hook list through
        #: the "data" protocol handler.
        hooks: list = []
        node.on_protocol("data", _fan_out(hooks))
        controllers.append(_MIPController(
            sim,
            model,
            node,
            agents_by_cell,
            cells=cells,
            meter=meter,
            sample_period=spec.sample_period,
        ))
        nodes.append(node)
        return MobileEndpoint(
            downlink, hooks, node.originate, node.home_address
        )

    flow_plans, fluid_driver = wire_population(
        sim, plan, cn, add_mobile, air_cells
    )
    return BuiltMIPScenario(
        spec=spec,
        seed=int(seed),
        sim=sim,
        population=plan,
        flow_plans=flow_plans,
        fluid_driver=fluid_driver,
        air_cells=air_cells,
        decision_trace=None,
        network=network,
        home_agent=home_agent,
        agents=agents,
        nodes=nodes,
        controllers=controllers,
    )


def _fan_out(hooks: list):
    """A ``data`` protocol handler firing every hook in ``hooks``."""

    def handler(packet: Packet, link) -> None:
        for hook in hooks:
            hook(packet)

    return handler


class MobileIPStack(StackAdapter):
    """Flat Mobile IP: one FA per cell, full home registration per move.

    The macro-mobility baseline: HA tunnel triangle for every packet,
    registration round-trips on every handoff.  Extras are namespaced
    ``mip.*``.
    """

    name = "mobileip"
    description = (
        "flat Mobile IP baseline: one FA per cell, full home "
        "registration per move, HA tunnel triangle"
    )
    metric_namespace = "mip"

    def build(self, spec: ScenarioSpec, seed: int) -> BuiltMIPScenario:
        """Assemble the flat Mobile IP world (see
        :func:`build_mip_scenario`)."""
        return build_mip_scenario(spec, seed)

    def exercised(self, spec: ScenarioSpec) -> list[str]:
        """Adapter features ``spec`` exercises under flat Mobile IP."""
        features = super().exercised(spec)
        features.append("HA binding cache + IP-in-IP tunnelling per flow")
        if spec.domains == 2:
            features.append("one FA set spans both domains' sites")
        if spec.pico_cells > 0:
            features.append(f"pico-site FAs ({spec.pico_cells})")
        if spec.channels_enabled():
            features.append("uplink registration traffic contends for airtime")
        mapped = sorted(
            set(spec.domain_overrides)
            & {
                "wireless_bandwidth",
                "wireless_delay",
                "wired_bandwidth",
                "wired_delay",
            }
        )
        if mapped:
            features.append("domain overrides mapped: " + ", ".join(mapped))
        return features


__all__ = [
    "HOME_PREFIX",
    "BuiltMIPScenario",
    "MobileIPStack",
    "build_mip_scenario",
]
