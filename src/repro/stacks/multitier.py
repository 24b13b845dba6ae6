"""The multi-tier stack adapter: the paper's architecture (default).

The stack's own half of a run behind the
:class:`~repro.stacks.base.StackAdapter` interface: a
:class:`~repro.multitier.architecture.MultiTierWorld` (one or two
domains, optional pico cells, optional shared air interface), the
shared population plan from :mod:`repro.stacks.population`, per-mobile
:class:`~repro.mobility.controller.MobilityController`\\ s applying
the three-factor handoff decision, and RSMC route optimization at the
correspondent.

Byte-identity contract: for any spec with ``stack="multitier"`` (the
default) this adapter's build order, stream names and metric
collection are IDENTICAL to the pre-refactor builder — pinned by the
``results/scenarios_smoke/`` goldens and the 16 experiment tables.

Determinism: all randomness flows through named
:class:`~repro.sim.rng.RandomStreams` keyed by mobile index, so the
same ``(spec, seed)`` pair builds an identical world and returns
byte-identical metrics on any execution backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.fluid.driver import fluid_channel_pairs
from repro.multitier.architecture import PICO_LEAVES, MultiTierWorld
from repro.multitier.mobile import MultiTierMobileNode
from repro.policy.decider import TierDecider
from repro.stacks.base import BuiltRun, StackAdapter
from repro.stacks.population import (
    BANDWIDTH_DEMAND,
    MobileEndpoint,
    pico_placements,
    plan_population,
    wire_population,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only (import cycle)
    from repro.scenarios.spec import ScenarioSpec


@dataclass(kw_only=True)
class BuiltScenario(BuiltRun):
    """A fully assembled multi-tier world plus its planned traffic."""

    world: MultiTierWorld
    mobiles: list[MultiTierMobileNode]

    #: Grandfathered key order (pinned by the committed golden tables):
    #: the un-namespaced extras sit inside the common block.
    metric_order = (
        "population", "flows", "sent", "received", "loss_rate",
        "mean_delay", "jitter", "max_gap", "handoffs", "handoff_latency",
        "blocked_attaches", "attached", "via_binding_fraction",
        "elastic_goodput_bps", "hop_total",
    )
    reads_spec_policy = True

    def extras(self) -> dict[str, float]:
        """The grandfathered un-namespaced multi-tier extras."""
        cn = self.world.cn
        routed = cn.sent_via_binding + cn.sent_via_home
        return {
            "blocked_attaches": float(sum(
                count
                for (move, _reason), count in self.decision_trace.refusals.items()
                if move == "attach"
            )),
            "via_binding_fraction": (
                cn.sent_via_binding / routed if routed else 0.0
            ),
        }


class MultiTierStack(StackAdapter):
    """The paper's multi-tier architecture with RSMC route optimization.

    Default stack: three-factor tier selection, make-before-break
    handoff, RSMC buffering and CN binding updates.  Extras
    (``blocked_attaches``, ``via_binding_fraction``) are grandfathered
    un-namespaced — pinned by the committed golden tables.
    """

    name = "multitier"
    description = (
        "the paper's multi-tier architecture: tier policy, "
        "make-before-break handoff, RSMC route optimization"
    )
    metric_namespace = ""  # grandfathered: predates the namespace rule

    def build(self, spec: ScenarioSpec, seed: int) -> BuiltScenario:
        """Assemble the multi-tier world, population and traffic for one run.

        Same construction order, same stream names, same pico placement
        as the pre-stacks ``build_scenario`` — the root of the
        ``stack="multitier"`` byte-identity guarantee.  Returns the
        assembled (not yet run) world; call :meth:`BuiltScenario.execute`
        to run it.
        """
        plan = plan_population(spec, seed, spec.policy)
        world = MultiTierWorld(
            second_domain=spec.domains == 2,
            domain_kwargs={"wired_bandwidth": spec.wired_bandwidth},
            channel_plan=plan.channel_plan,
        )
        # In-building picos (Fig 2.1's third hierarchy level).  Legacy mode
        # keeps the historic placement: alternating fixed offsets under the
        # micro leaves.  Contention mode deploys them at seeded population
        # concentration points, so the pico overlay can actually absorb
        # load — the paper's reason for its existence.  The placement rule
        # is shared with the baselines' flat layout (pico_placements), so
        # cross-stack cell geometry cannot drift.
        leaf_centers = {
            name: world.domain1[name].cell.center for name in PICO_LEAVES
        }
        placements = pico_placements(
            spec,
            plan.starts,
            plan.mobility_assignment,
            plan.traffic_assignment,
            leaf_centers,
        )
        for pico, (parent_name, center) in enumerate(placements):
            world.add_pico(parent_name, f"p{pico}", center)

        # Under a shared air interface any slow, traffic-bearing mobile
        # benefits from a covering pico's fat shared budget, so the default
        # policy block resolves its demand threshold to 1 bit/s in
        # contention mode (200 kbit/s with per-user dedicated radios) —
        # the historical stack defaults, byte-identical.
        policy = TierDecider.from_config(
            spec.policy, contention=plan.channel_plan is not None
        )

        def add_mobile(index: int, kind: str, model) -> MobileEndpoint:
            mobile = world.add_mobile(
                f"mn{index}",
                bandwidth_demand=BANDWIDTH_DEMAND[kind],
                airtime_key=index,
            )
            world.add_controller(
                mobile, model, sample_period=spec.sample_period, policy=policy
            )
            # Sources address their packets CN -> home address themselves;
            # the CN sends them as built, with route optimization.
            return MobileEndpoint(
                world.cn.send, mobile.on_data, mobile.originate,
                mobile.home_address,
            )

        # One analytic driver over every contended cell (hybrid runs),
        # claiming airtime the discrete cohort then contends for.
        air_cells = fluid_channel_pairs(world.all_radio_stations())
        flow_plans, fluid_driver = wire_population(
            world.sim, plan, world.cn, add_mobile, air_cells
        )
        return BuiltScenario(
            spec=spec,
            seed=int(seed),
            sim=world.sim,
            population=plan,
            flow_plans=flow_plans,
            fluid_driver=fluid_driver,
            air_cells=air_cells,
            decision_trace=world.decision_trace,
            world=world,
            mobiles=world.mobiles,
            controllers=world.controllers,
        )

    def exercised(self, spec: ScenarioSpec) -> list[str]:
        """Adapter features ``spec`` exercises under the multi-tier stack."""
        features = super().exercised(spec)
        features.append("three-factor tier selection + RSMC route optimization")
        if spec.domains == 2:
            features.append("inter-domain handoff (two RSMCs)")
        if spec.pico_cells > 0:
            features.append(f"pico overlay ({spec.pico_cells} cells)")
        if not spec.policy.is_default():
            features.append(
                f"non-default policy block (mode={spec.policy.mode}, "
                f"policy.* metrics + decision trace)"
            )
        if spec.policy.admission_factor is not None:
            features.append(
                "air-interface admission control "
                f"(factor {spec.policy.admission_factor:g})"
            )
        if spec.fluid is not None and spec.fluid.enabled:
            features.append(
                f"hybrid fluid background "
                f"({spec.fluid.population} analytic mobiles)"
            )
        return features


__all__ = [
    "BuiltScenario",
    "MultiTierStack",
]
