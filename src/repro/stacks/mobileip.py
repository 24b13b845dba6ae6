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
from repro.net.link import drop_totals
from repro.net.topology import Network
from repro.policy.config import PolicyConfig
from repro.sim.kernel import Simulator
from repro.stacks.base import StackAdapter
from repro.stacks.flat import FlatRun, flat_access, flat_run
from repro.stacks.population import plan_population

if TYPE_CHECKING:  # pragma: no cover - annotations only (import cycle)
    from repro.scenarios.spec import ScenarioSpec

#: The mobiles' permanent addresses come from the multi-tier world's
#: :data:`~repro.multitier.architecture.HOME_PREFIX`, so cross-stack
#: flow endpoints match.  Wired-link knobs shared with the multi-tier world's defaults.
_HOME_DELAY = 0.025
_INTERNET_DELAY = 0.005

#: Each FA's radio leg, as in the multi-tier world's cells.
_WIRELESS_BANDWIDTH = 2e6
_WIRELESS_DELAY = 0.002


@dataclass(kw_only=True)
class BuiltMIPScenario(FlatRun):
    """A fully assembled Mobile IP world plus its planned traffic;
    its ``mobiles`` are :class:`~repro.mobileip.MobileIPNode`\\ s."""

    network: Network
    home_agent: HomeAgent
    agents: list[ForeignAgent]

    def handoff_latencies(self) -> list[float]:
        """The registration round-trips, per node: Mobile IP
        re-establishes routing via home registration, so that round-trip
        IS the handoff latency."""
        return [
            latency
            for node in self.mobiles
            for latency in node.registration_latencies
        ]

    def extras(self) -> dict[str, float]:
        """Namespaced Mobile IP extras (metric contract: base.py)."""
        home_agent, drops = self.home_agent, drop_totals(self.sim)
        return {
            "mip.registration_attempts": float(
                sum(node.registration_attempts for node in self.mobiles)
            ),
            "mip.registrations_accepted": float(
                home_agent.registrations_accepted
            ),
            "mip.registrations_denied": float(home_agent.registrations_denied),
            "mip.tunneled": float(home_agent.tunneled_count),
            "mip.dropped_no_binding": float(drops.get("no-binding", 0)),
            "mip.dropped_unknown_visitor": float(drops.get("unknown-visitor", 0)),
        }


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
        """Assemble the flat Mobile IP world for one ``(spec, seed)``.

        One FA per cell site, all on the wired core next to the HA and
        CN, over the shared population plan.  Each FA's link to the core
        is the flat analogue of the domain's wired tree and runs at
        ``spec.wired_bandwidth``, so a choked-backhaul scenario chokes
        every stack.  A move is detach-from-old + attach-to-new; the
        new FA's advertisement triggers the home registration, whose
        round-trip is where Mobile IP's handoff losses accrue.
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

        def place(site, channel) -> ForeignAgent:
            agent = ForeignAgent(
                sim, f"fa-{site.name}", network.allocator.allocate(),
                wireless_bandwidth=_WIRELESS_BANDWIDTH,
                wireless_delay=_WIRELESS_DELAY,
                shared_channel=channel,
            )
            network.add(agent)
            network.connect(
                agent, core,
                bandwidth=spec.wired_bandwidth, delay=_INTERNET_DELAY,
            )
            return agent

        access = flat_access(spec, plan, sim, place)
        network.install_routes()
        install_home_prefix_routes(network, home_agent)

        home_allocator = AddressAllocator(HOME_PREFIX)

        def new_mobile(index: int):
            node = MobileIPNode(
                sim, f"mn{index}", home_address=home_allocator.allocate(),
                home_agent_address=home_agent.address,
            )
            #: Deterministic shared-channel arbitration key (population
            #: index), matching the other stacks' tie-break order.
            node.airtime_key = index

            def handoff(old: ForeignAgent, new: ForeignAgent) -> None:
                old.detach_mobile(node)
                new.attach_mobile(node)

            return (
                node, node.home_address,
                lambda agent: agent.attach_mobile(node), handoff,
            )

        return flat_run(
            BuiltMIPScenario, spec, seed, plan, sim, cn,
            cn.links[core].transmit, access, new_mobile,
            network=network, home_agent=home_agent, agents=access[0],
        )

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
        return features


__all__ = [
    "HOME_PREFIX",
    "BuiltMIPScenario",
    "MobileIPStack",
]
