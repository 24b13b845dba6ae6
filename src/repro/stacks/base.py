"""The stack-adapter contract: one protocol stack behind one scenario.

A :class:`StackAdapter` turns a ``(ScenarioSpec, seed)`` pair into a
ready-to-run world under one mobility-management protocol stack —
the paper's multi-tier architecture, flat Cellular IP, or flat Mobile
IP — wiring the *same* population and traffic plan (see
:mod:`repro.stacks.population`) over stack-specific machinery.  The
returned :class:`BuiltRun` is the one skeleton every stack shares: it
executes warmup → traffic → drain and harvests the metric dict, so a
stack supplies only its topology, its controllers and its extras.

Metric contract
---------------
* Every stack emits :data:`COMMON_METRICS` (plain, never-NaN floats) —
  the keys the cross-stack comparison table aligns on.
* Stack-specific extras are namespaced ``<prefix>.<key>`` (e.g.
  ``cip.route_updates``, ``mip.tunneled``) per the adapter's
  :attr:`~StackAdapter.metric_namespace`.  The multi-tier adapter's
  historical extras (``blocked_attaches``, ``via_binding_fraction``)
  predate the namespace convention and are grandfathered un-prefixed:
  they are pinned byte-for-byte by the committed golden tables.
* Contention-mode runs additionally emit ``air_busiest_downlink`` /
  ``air_detach_drops`` (never in legacy mode — legacy tables must not
  grow keys).
* Rendered tables follow dict insertion order, so each stack's key
  order is part of its byte-identity contract (see
  :attr:`BuiltRun.metric_order`).

Determinism: adapters draw all randomness from the run seed through
named :class:`~repro.sim.rng.RandomStreams`, so one
``(stack, spec, seed)`` triple returns byte-identical metrics in any
process, on any execution backend — the property the cross-stack
comparison table and CI parity gates rely on.
"""

from __future__ import annotations

import abc
import gc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Optional

from repro.net.link import drop_totals, protocol_hop_totals
from repro.radio.channel import DOWNLINK

if TYPE_CHECKING:  # pragma: no cover
    from repro.fluid.driver import FluidDriver
    from repro.mobility.controller import MobilityController
    from repro.policy.trace import DecisionTrace
    from repro.radio.cells import Cell
    from repro.radio.channel import SharedChannel
    from repro.scenarios.spec import ScenarioSpec
    from repro.sim.kernel import Simulator
    from repro.stacks.population import FlowPlan, PopulationPlan
    from repro.traffic import FlowSink, TrafficSource

#: Metric keys every stack adapter emits, in canonical order — the
#: rows of the cross-stack comparison table.
COMMON_METRICS: tuple[str, ...] = (
    "population",
    "flows",
    "sent",
    "received",
    "loss_rate",
    "mean_delay",
    "jitter",
    "max_gap",
    "handoffs",
    "handoff_latency",
    "attached",
    "elastic_goodput_bps",
    "hop_total",
)


def air_metrics(sim, channels: list, window: float) -> dict[str, float]:
    """Contention-mode air-interface extras over ``channels``.

    Emitted only when the spec enables shared channels (legacy tables
    must not grow keys): the downlink utilization of the busiest cell
    (over the ``window`` seconds simulated) and the queued airtime
    claim detaches cancelled (``sim``'s ``air-cancelled`` drops).
    Deterministic counter arithmetic.
    """
    live = [channel for channel in channels if channel is not None]
    busiest = max(
        (channel.stats.busy_seconds[DOWNLINK] for channel in live), default=0.0
    )
    return {
        "air_busiest_downlink": busiest / window,
        "air_detach_drops": float(drop_totals(sim).get("air-cancelled", 0)),
    }


@dataclass(kw_only=True)
class BuiltRun:
    """One assembled (not yet run) world plus its planned traffic.

    The skeleton every stack shares: :meth:`execute` drives the
    measurement phases and :meth:`harvest` turns the finished run's
    counters into the metric dict.  A stack subclasses this with its
    own data fields (world, network, agents, ...), passes its
    controllers and supplies :meth:`extras`.
    """

    spec: ScenarioSpec
    seed: int
    sim: Simulator
    #: The seeded population this world was wired from.
    population: PopulationPlan
    flow_plans: list[FlowPlan]
    #: The hybrid background driver; ``None`` unless the spec has one.
    fluid_driver: Optional[FluidDriver]
    #: ``(cell, channel)`` per contended cell; empty in legacy mode.
    air_cells: list[tuple[Cell, SharedChannel]]
    #: Where the stack's controllers record their decisions and
    #: refused moves.
    decision_trace: DecisionTrace
    #: One mobility controller per mobile, in population order: the
    #: run's book of completed handoffs and attachments.
    controllers: list[MobilityController]
    sources: list[TrafficSource] = field(default_factory=list)
    sinks: list[FlowSink] = field(default_factory=list)

    #: Keys emitted ahead of the shared order, for a stack whose golden
    #: tables pin a different historical order (multi-tier only).
    metric_order: ClassVar[tuple[str, ...]] = ()
    #: Whether the stack decides with ``spec.policy``: only then do the
    #: trace's ``policy.*`` counters join a non-default policy block's
    #: metrics (the flat baselines decide with a fixed rule).
    reads_spec_policy: ClassVar[bool] = False

    def execute(self) -> dict[str, float]:
        """Run warmup → traffic window → drain; return the metric dict.

        One definition, so no stack can drift onto a different
        measurement window and skew the side-by-side comparison.

        Automatic garbage collection is suspended for the run and put
        back as it was found.  A running world frees what it drops by
        reference count (packets, timers, records, and each radio link
        a handoff retired, once its last in-flight packet lands); the
        cyclic collector would re-walk the pending timers on every pass
        for the few cycles a run does leave (one per timed-out wait).
        Those and the finished world, one large cycle, are for the
        caller to collect: :func:`~repro.scenarios.builder.run_scenario_spec`
        does; any other caller (``run_scenario_trace``, a tool, a
        direct ``build_scenario(...).execute()``) keeps them until its
        own next collection.  The collector's switch is process-wide
        and the save/restore here is not atomic: worlds are run one at
        a time per process (the execution backends fork, never
        thread).  Deterministic: pure simulation drive.
        """
        spec = self.spec
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.sim.run(until=spec.warmup)
            for plan in self.flow_plans:
                self.sources.append(plan.start(spec.duration))
                self.sinks.append(plan.sink)
            self.sim.run(until=spec.warmup + spec.duration + spec.drain)
            return self.harvest()
        finally:
            if collecting:
                gc.enable()

    def harvest(self) -> dict[str, float]:
        """Read the run's counters and compute the metric dict.

        One formula set for every stack, so cross-stack columns are
        comparable: the traffic plane from the per-flow counters, then
        the stack's mobility counters, ``hop_total`` and the (gated)
        extras, in that order.  Metrics are plain floats and never NaN,
        so serial-vs-parallel byte-identity is checkable with ordinary
        equality.  Deterministic: pure counter readout in build order.
        """
        spec = self.spec
        sinks = [plan.sink for plan in self.flow_plans]
        sent = sum(source.packets_sent for source in self.sources)
        received = sum(sink.received for sink in sinks)
        delays = [sink.mean_delay() for sink in sinks if sink.received > 0]
        jitters = [sink.jitter() for sink in sinks if sink.received > 1]
        gaps = [sink.max_gap() for sink in sinks if sink.received > 1]
        goodput = [
            plan.sink.bytes_received * 8.0 / spec.duration
            for plan in self.flow_plans
            if plan.kind == "elastic-data"
        ]
        handoffs, latencies, attached = self.mobility_counters()
        metrics = {
            "population": float(spec.population),
            "flows": float(len(self.flow_plans)),
            "sent": float(sent),
            "received": float(received),
            "loss_rate": (1.0 - received / sent) if sent else 0.0,
            "mean_delay": (sum(delays) / len(delays)) if delays else 0.0,
            "jitter": (sum(jitters) / len(jitters)) if jitters else 0.0,
            "max_gap": max(gaps) if gaps else 0.0,
            "elastic_goodput_bps": (
                (sum(goodput) / len(goodput)) if goodput else 0.0
            ),
            "handoffs": float(handoffs),
            "handoff_latency": (
                (sum(latencies) / len(latencies)) if latencies else 0.0
            ),
            "attached": float(attached),
            "hop_total": float(sum(protocol_hop_totals(self.sim).values())),
        }
        metrics.update(self.extras())
        if spec.channels_enabled():
            # Contention mode only: adding keys to a legacy run would
            # change its rendered table and break byte-identity.
            metrics.update(air_metrics(
                self.sim,
                [channel for _cell, channel in self.air_cells],
                spec.warmup + spec.duration + spec.drain,
            ))
        if self.reads_spec_policy and not spec.policy.is_default():
            # Non-default policy block only (same gating rule).
            metrics.update(self.decision_trace.metric_counts())
        if self.fluid_driver is not None:
            # Hybrid runs only: the fluid.* family (same gating rule).
            metrics.update(self.fluid_driver.metrics())
        return {key: metrics[key] for key in (*self.metric_order, *metrics)}

    def mobility_counters(self) -> tuple[int, list[float], int]:
        """``(handoffs, handoff latencies, attached)``.

        Completed handoffs over all controllers,
        :meth:`handoff_latencies`, and how many mobiles hold a serving
        attachment at the end of the run.
        """
        controllers = self.controllers
        return (
            sum(controller.handoffs for controller in controllers),
            self.handoff_latencies(),
            sum(1 for controller in controllers if controller.serving is not None),
        )

    def handoff_latencies(self) -> list[float]:
        """Every completed handoff's latency in seconds: by default the
        time each handoff move took, in controller order.  Stack hook
        for a stack whose handoff completes after its move returns."""
        return [
            latency
            for controller in self.controllers
            for latency in controller.handoff_latencies
        ]

    def extras(self) -> dict[str, float]:
        """Stack hook: the stack's namespaced extra metrics, in order."""
        return {}


class StackAdapter(abc.ABC):
    """One pluggable protocol stack the scenario engine can drive.

    Subclasses implement :meth:`build`; everything else — the registry,
    the CLI ``--stack`` flag, :mod:`repro.scenarios.grid` — works
    against this interface, so registering another stack is one class
    plus one :func:`repro.stacks.registry.register_stack` call (see
    ``docs/STACKS.md``).
    """

    #: Registry key (the value of ``ScenarioSpec.stack``).
    name: str = ""
    #: One line shown by ``repro scenario describe``.
    description: str = ""
    #: Prefix of this stack's namespaced metric extras ("" = none).
    metric_namespace: str = ""

    @abc.abstractmethod
    def build(self, spec: "ScenarioSpec", seed: int) -> BuiltRun:
        """Assemble the (not yet run) world for one ``(spec, seed)``.

        Must instantiate the shared population plan from
        :mod:`repro.stacks.population` so trajectories and offered
        traffic match the other stacks for the same seed.
        """

    def exercised(self, spec: "ScenarioSpec") -> list[str]:
        """The adapter features ``spec`` exercises, for ``describe``.

        The base implementation reports the stack-independent spec
        surface (population/traffic plan, hotspots, shared air
        interface); adapters append their stack-specific fields.
        """
        features = ["mobility+traffic mix (shared population plan)"]
        if spec.hotspot_fraction > 0:
            features.append(
                f"hotspot correspondent flows ({spec.hotspot_count()} x "
                f"{spec.hotspot_flows})"
            )
        if "elastic-data" in spec.traffic_mix:
            features.append("elastic ack uplink")
        if spec.channels_enabled():
            features.append("shared air-interface contention")
        return features


__all__ = [
    "COMMON_METRICS",
    "BuiltRun",
    "StackAdapter",
    "air_metrics",
]
