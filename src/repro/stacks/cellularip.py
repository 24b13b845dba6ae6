"""The flat Cellular IP baseline stack adapter.

One gateway-rooted access tree covers the whole multi-tier geometry
(macro, micro and pico sites from
:func:`~repro.stacks.flat.flat_cell_layout`), managed by soft-state
routing caches: uplink packets refresh per-hop mappings, downlink
packets follow them, and handoff is a route-update through the new
base station (semisoft by default — the stronger CIP variant, with the
dual-path interval and duplicate suppression the repo's CIP substrate
already models).  There is no tier policy and no route optimization:
this is the micro-mobility baseline the paper's architecture is
compared against.

Shared-channel mode: when the spec enables contention, every base
station gets a per-tier :class:`~repro.radio.channel.SharedChannel`
(same :class:`~repro.radio.channel.ChannelPlan` budgets as the
multi-tier stack), and the semisoft dual-path interval briefly holds
airtime claims on both cells — apples-to-apples with the other stacks'
air interface.

Determinism: the same population plan and stream names as every stack
(:mod:`repro.stacks.population`); controllers decide from seeded
models and pure signal surveys.  One ``(spec, seed)`` pair returns
byte-identical metrics on any execution backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cellularip import CIPBaseStation, CIPDomain, CIPGateway, CIPMobileHost
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

#: Prefix the Cellular IP mobiles' addresses are drawn from; the
#: Internet routes it wholesale to the gateway.
MOBILE_PREFIX = "10.200.0.0/16"


@dataclass(kw_only=True)
class BuiltCIPScenario(FlatRun):
    """A fully assembled Cellular IP world plus its planned traffic;
    its ``mobiles`` are :class:`~repro.cellularip.CIPMobileHost`\\ s."""

    network: Network
    domain: CIPDomain

    def extras(self) -> dict[str, float]:
        """Namespaced Cellular IP extras (metric contract: base.py)."""
        hosts, domain, drops = self.mobiles, self.domain, drop_totals(self.sim)
        return {
            "cip.route_updates": float(
                sum(host.route_updates_sent for host in hosts)
            ),
            "cip.paging_updates": float(
                sum(host.paging_updates_sent for host in hosts)
            ),
            "cip.duplicates": float(
                sum(host.duplicates_discarded for host in hosts)
            ),
            "cip.control_packets": float(domain.total_control_packets()),
            "cip.downlink_drops": float(
                drops.get("no-mapping", 0) + drops.get("stale-mapping", 0)
            ),
            "cip.paging_broadcasts": float(
                sum(bs.paging_broadcasts for bs in domain.base_stations)
            ),
        }


class CellularIPStack(StackAdapter):
    """Flat Cellular IP over the multi-tier geometry (semisoft handoff).

    Soft-state routing caches, paging for idle hosts, and the semisoft
    dual-path handoff — the micro-mobility baseline.  Extras are
    namespaced ``cip.*``.
    """

    name = "cellularip"
    description = (
        "flat Cellular IP baseline: soft-state routing caches, "
        "semisoft handoff, no tier policy"
    )
    metric_namespace = "cip"
    #: Semisoft (dual-path) handoff, or hard break-then-make.
    semisoft = True

    def build(self, spec: ScenarioSpec, seed: int) -> BuiltCIPScenario:
        """Assemble the flat Cellular IP world for one ``(spec, seed)``.

        The access tree mirrors the multi-tier wired hierarchy —
        gateway over macro-site relays over micro leaves over picos —
        on ``spec.wired_bandwidth`` links, over the shared population
        plan.  Deterministic: seeded streams only.
        """
        plan = plan_population(spec, seed, PolicyConfig())
        sim = Simulator()
        domain = CIPDomain(sim, wired_bandwidth=spec.wired_bandwidth)
        network = Network(sim, prefix="10.0.0.0/8")
        gateway = CIPGateway(
            sim, "gw", network.allocator.allocate(), domain,
            mobile_prefix=MOBILE_PREFIX,
        )
        network.add(gateway)
        stations: dict[str, CIPBaseStation] = {}

        def place(site, channel) -> CIPBaseStation:
            station = CIPBaseStation(
                sim, site.name, network.allocator.allocate(), domain,
                shared_channel=channel,
            )
            network.add(station)
            parent = stations[site.parent] if site.parent else gateway
            domain.link(parent, station)
            stations[site.name] = station
            return station

        access = flat_access(spec, plan, sim, place)

        internet = network.router("internet")
        cn = network.host("cn")
        network.connect(cn, internet, delay=0.005)
        gateway.connect_internet(internet, delay=0.005)
        internet.add_route(MOBILE_PREFIX, gateway)
        internet.add_host_route(cn.address, cn)

        mobile_allocator = AddressAllocator(MOBILE_PREFIX)

        def new_mobile(index: int):
            host = CIPMobileHost(
                sim, f"mn{index}", mobile_allocator.allocate(), domain,
                airtime_key=index,
            )
            # Semisoft returns its dual-path generator; hard is instant.
            move = host.handoff_semisoft if self.semisoft else host.handoff_hard
            return host, host.address, host.attach_to, lambda old, new: move(new)

        return flat_run(
            BuiltCIPScenario, spec, seed, plan, sim, cn,
            cn.links[internet].transmit, access, new_mobile,
            network=network, domain=domain,
        )

    def exercised(self, spec: ScenarioSpec) -> list[str]:
        """Adapter features ``spec`` exercises under flat Cellular IP."""
        features = super().exercised(spec)
        features.append(
            "soft-state route/paging caches + "
            f"{'semisoft' if self.semisoft else 'hard'} handoff"
        )
        if spec.domains == 2:
            features.append("single flat tree spans both domains' sites")
        if spec.pico_cells > 0:
            features.append(f"pico sites in the access tree ({spec.pico_cells})")
        return features


class CellularIPHardStack(CellularIPStack):
    """Flat Cellular IP with hard (break-then-make) handoff.

    The weaker CIP variant: the route update follows an instantaneous
    radio switch, with no dual-path interval and no duplicate
    suppression — downlink packets in flight on the stale branch are
    lost.  Same world, geometry and metric namespace as the semisoft
    adapter, so ``--stack all`` comparisons isolate the handoff
    mechanism itself.
    """

    name = "cellularip-hard"
    description = (
        "flat Cellular IP baseline with hard (break-then-make) "
        "handoff: no semisoft dual-path interval"
    )
    semisoft = False


__all__ = [
    "MOBILE_PREFIX",
    "BuiltCIPScenario",
    "CellularIPHardStack",
    "CellularIPStack",
]
