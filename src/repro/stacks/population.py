"""Stack-independent population and traffic planning.

Every protocol-stack adapter (multi-tier, Cellular IP, Mobile IP)
instantiates the *same* population from a
:class:`~repro.scenarios.spec.ScenarioSpec`: the same per-mobile
mobility models, start positions, traffic-kind assignments and hotspot
selections, drawn from the same named
:class:`~repro.sim.rng.RandomStreams`.  That is what makes a
cross-stack comparison apples-to-apples — for one ``(spec, seed)``
pair, mobile ``mn3`` walks the identical trajectory and receives the
identical offered traffic under every stack; only the mobility
management underneath differs.

:func:`plan_population` draws that seeded plan once per run and
:func:`wire_population` lays it over a stack's topology — the two calls
every stack builder makes, so the per-mobile loop, the hotspot flows,
the air-interface plan and the hybrid background exist exactly once.

The stream names (``mn<i>.start.x``,
``assign.traffic``, ``<flow>.talkspurts``, ...) are part of the
determinism contract and must not change — the multi-tier adapter's
byte-identity with pre-refactor output depends on them.

Determinism: every function here is a pure function of
``(spec, streams, ...)`` inputs; all randomness flows through the named
streams, so the same ``(spec, seed)`` pair produces identical
populations and flow plans in any process, on any execution backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.mobility import (
    GaussMarkov,
    Highway,
    ManhattanGrid,
    MobilityModel,
    RandomDirection,
    RandomWaypoint,
    Stationary,
)
from repro.fluid.driver import FluidDriver, install_fluid_background
from repro.net.packet import Packet
from repro.radio.channel import ChannelPlan
from repro.radio.geometry import Point, Rectangle
from repro.sim.rng import RandomStreams
from repro.traffic import (
    CBRSource,
    ElasticSource,
    FlowSink,
    OnOffSource,
    PoissonSource,
    TrafficSource,
    VBRVideoSource,
    make_ack_hook,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.policy.config import PolicyConfig
    from repro.radio.cells import Cell
    from repro.radio.channel import SharedChannel
    from repro.scenarios.spec import ScenarioSpec
    from repro.sim.kernel import Simulator

#: Default roaming areas: stay just inside continuous radio coverage.
_ROAM_ONE_DOMAIN = (-4200.0, -1200.0, 4200.0, 1200.0)
_ROAM_TWO_DOMAINS = (-4200.0, -1200.0, 7000.0, 1200.0)

#: Nominal downlink demand (bit/s) per traffic kind — the bandwidth
#: factor of the paper's three-factor handoff decision (§3.2).
BANDWIDTH_DEMAND = {
    "idle": 0.0,
    "cbr-voice": 64e3,
    "onoff-voice": 64e3,
    "vbr-video": 128e3,
    "poisson-data": 80e3,
    "elastic-data": 256e3,
}

#: Mobility models slow enough to camp in a 60 m pico cell.
PICO_FRIENDLY_MODELS = {"stationary", "waypoint", "manhattan", "gauss-markov"}


def roam_rectangle(spec: "ScenarioSpec") -> Rectangle:
    """The area the spec's population roams.

    Returns the spec's explicit ``roam`` rectangle when set, otherwise
    a default strip just inside continuous radio coverage for the
    spec's domain count.  Deterministic: pure function of the spec.
    """
    if spec.roam is not None:
        return Rectangle(*spec.roam)
    bounds = _ROAM_TWO_DOMAINS if spec.domains == 2 else _ROAM_ONE_DOMAIN
    return Rectangle(*bounds)


def start_positions(
    spec: "ScenarioSpec", streams: RandomStreams, roam: Rectangle
) -> list[Point]:
    """Every mobile's seeded start position, drawn once per mobile.

    Uses the same per-mobile stream names the mobility factory has
    always used (``mn<i>.start.x`` / ``.y``), and each name is drawn
    exactly once per run, so every stack sees identical start
    positions and legacy multi-tier worlds stay byte-identical.
    """
    return [
        Point(
            streams.uniform(f"mn{index}.start.x", roam.x_min, roam.x_max),
            streams.uniform(f"mn{index}.start.y", roam.y_min, roam.y_max),
        )
        for index in range(spec.population)
    ]


def pico_sites(
    spec: "ScenarioSpec",
    starts: list[Point],
    mobility_assignment: list[str],
    traffic_assignment: list[str],
) -> list[Point]:
    """Contention-mode pico deployment: cells go where the load is.

    The paper's in-building picos exist to absorb multimedia load the
    wide tiers cannot carry, which presumes they are deployed at load
    concentrations.  Under the shared-channel model we therefore place
    each pico at the seeded start position of a slow, traffic-bearing
    mobile (wrapping over the candidates when picos outnumber them) —
    a pure function of (spec, seed), so determinism is untouched.
    Legacy mode keeps the historic fixed offsets under the micro
    leaves (see the multi-tier adapter).
    """
    candidates = [
        index
        for index in range(spec.population)
        if mobility_assignment[index] in PICO_FRIENDLY_MODELS
        and traffic_assignment[index] != "idle"
    ]
    if not candidates:
        candidates = list(range(spec.population))
    return [
        starts[candidates[pico % len(candidates)]]
        for pico in range(spec.pico_cells)
    ]


def pico_placements(
    spec: "ScenarioSpec",
    starts: list[Point],
    mobility_assignment: list[str],
    traffic_assignment: list[str],
    leaf_centers: dict[str, Point],
) -> list[tuple[str, Point]]:
    """Per-pico ``(parent leaf name, center)`` placements, every stack.

    The single source of truth for where a spec's pico cells go, shared
    by the multi-tier world builder and the baselines' flat cell layout
    so the cross-stack "same geometry" guarantee cannot drift:

    * legacy mode (contention off): the historic fixed offsets — pico
      ``i`` hangs under leaf ``i mod len(leaves)``, ±150 m alternating
      by deployment round;
    * contention mode: picos deploy at the seeded population
      concentration points from :func:`pico_sites`, parented to the
      nearest leaf (ties broken by ``leaf_centers`` insertion order).

    ``leaf_centers`` maps candidate parent leaves (the multi-tier micro
    leaves B/C/E/F) to their cell centers, in tie-break order.
    Deterministic: pure function of its inputs.
    """
    leaves = list(leaf_centers)
    if spec.channels_enabled():
        sites = pico_sites(
            spec, starts, mobility_assignment, traffic_assignment
        )
        return [
            (
                min(
                    leaves,
                    key=lambda name: leaf_centers[name].distance_to(center),
                ),
                center,
            )
            for center in sites
        ]
    placements: list[tuple[str, Point]] = []
    for pico in range(spec.pico_cells):
        parent = leaves[pico % len(leaves)]
        side = 1 if (pico // len(leaves)) % 2 == 0 else -1
        placements.append((
            parent,
            Point(
                leaf_centers[parent].x + side * 150.0,
                leaf_centers[parent].y,
            ),
        ))
    return placements


def make_mobility(
    kind: str, index: int, streams: RandomStreams, roam: Rectangle, start: Point
) -> MobilityModel:
    """One mobility model instance, randomness scoped to this mobile."""
    rng = streams.stream(f"mn{index}.mobility")
    if kind == "stationary":
        return Stationary(start, roam)
    if kind == "waypoint":
        return RandomWaypoint(
            start, roam, rng, speed_range=(0.8, 2.0), pause_range=(0.0, 8.0)
        )
    if kind == "manhattan":
        block = min(200.0, roam.width / 4, roam.height / 2)
        return ManhattanGrid(start, roam, rng, block_size=block, speed=8.0)
    if kind == "highway":
        # Vehicles drive a lane across the middle of the roam area.
        lane = Point(start.x, roam.center.y)
        speed = streams.uniform(f"mn{index}.speed", 22.0, 33.0)
        return Highway(lane, roam, rng, speed=speed, wrap=True, speed_jitter=1.0)
    if kind == "gauss-markov":
        return GaussMarkov(start, roam, rng, mean_speed=5.0)
    if kind == "random-direction":
        return RandomDirection(start, roam, rng, speed=10.0)
    raise ValueError(f"unknown mobility model {kind!r}")


def assignments(spec: "ScenarioSpec", streams: RandomStreams):
    """Per-mobile (mobility model, traffic kind, hotspot) assignment.

    Counts come from the exact largest-remainder apportionment; the
    pairing between the two lists is decorrelated by a seeded shuffle so
    mixes cross (e.g. some vehicles stream video, some walkers are
    idle) instead of aligning block-by-block.  Deterministic: the same
    ``(spec, seed)`` pair assigns every stack the same population.
    """
    mobility = [
        name
        for name, count in spec.mobility_counts().items()
        for _ in range(count)
    ]
    traffic = [
        kind
        for kind, count in spec.traffic_counts().items()
        for _ in range(count)
    ]
    shuffle_rng = streams.stream("assign.traffic")
    order = list(shuffle_rng.permutation(spec.population))
    traffic = [traffic[position] for position in order]
    hotspot_rng = streams.stream("assign.hotspots")
    hotspots = sorted(
        int(i)
        for i in hotspot_rng.permutation(spec.population)[: spec.hotspot_count()]
    )
    return mobility, traffic, hotspots


class ElasticAckDispatcher:
    """One CN-side 'ack' handler fanning out to every elastic source.

    :meth:`repro.net.node.Node.on_protocol` keeps a single handler per
    protocol, so scenarios with several elastic flows route all acks
    through this dispatcher, matched by flow id.  Shared by every stack
    adapter — the CN end of the elastic feedback loop is
    stack-independent.
    """

    def __init__(self) -> None:
        self.sources: dict[str, ElasticSource] = {}

    def register(self, source: ElasticSource) -> None:
        """Route acks carrying ``source.flow_id`` to ``source``."""
        self.sources[source.flow_id] = source

    def __call__(self, packet: Packet, link) -> None:
        """Dispatch one received ack to its flow's elastic source."""
        source = self.sources.get(packet.flow_id)
        if source is not None:
            source.acknowledge(packet.payload)


@dataclass
class FlowPlan:
    """A traffic flow scheduled to start after warmup."""

    flow_id: str
    kind: str
    start: Callable[[float], TrafficSource]  # duration -> started source
    sink: FlowSink


def plan_flow(
    sim: "Simulator",
    kind: str,
    flow_id: str,
    streams: RandomStreams,
    ack_dispatcher: ElasticAckDispatcher,
    send: Callable[[Packet], bool],
    data_hooks: list,
    ack_reply: Callable[[Packet], object],
    src_address,
    dst_address,
) -> Optional[FlowPlan]:
    """Plan one downlink flow of ``kind``, stack-independently.

    ``send`` is the CN-side downlink injection callable the stack
    provides (route-optimized tunnelling for multi-tier, plain Internet
    routing for the baselines); ``data_hooks`` is the mobile-side hook
    list fired per received data packet; ``ack_reply`` originates the
    elastic ack uplink from the mobile.  Stream names
    (``<flow>.talkspurts`` etc.) are shared across stacks, so the same
    ``(spec, seed)`` pair offers identical traffic under every stack.
    Returns ``None`` for ``"idle"``.
    """
    if kind == "idle":
        return None
    sink = FlowSink(flow_id=flow_id)
    data_hooks.append(sink.bind(sim))

    def start(duration: float) -> TrafficSource:
        if kind == "cbr-voice":
            source = CBRSource(
                sim, send, src_address, dst_address,
                rate_bps=64e3, packet_size=200,
                duration=duration, flow_id=flow_id,
            )
        elif kind == "onoff-voice":
            source = OnOffSource(
                sim, send, src_address, dst_address,
                rng=streams.stream(f"{flow_id}.talkspurts"),
                rate_bps=64e3, packet_size=200,
                duration=duration, flow_id=flow_id,
            )
        elif kind == "vbr-video":
            source = VBRVideoSource(
                sim, send, src_address, dst_address,
                rng=streams.stream(f"{flow_id}.frames"),
                mean_rate_bps=128e3, frame_rate=12.5, mtu=1000,
                duration=duration, flow_id=flow_id,
            )
        elif kind == "poisson-data":
            source = PoissonSource(
                sim, send, src_address, dst_address,
                rng=streams.stream(f"{flow_id}.arrivals"),
                mean_rate_pps=20.0, packet_size=500,
                duration=duration, flow_id=flow_id,
            )
        elif kind == "elastic-data":
            source = ElasticSource(
                sim, send, src_address, dst_address,
                packet_size=1000, duration=duration, flow_id=flow_id,
            )
            ack_dispatcher.register(source)
            data_hooks.append(make_ack_hook(sim, ack_reply, flow_id=flow_id))
        else:  # pragma: no cover - spec validation rejects this earlier
            raise ValueError(f"unknown traffic kind {kind!r}")
        return source.start()

    return FlowPlan(flow_id=flow_id, kind=kind, start=start, sink=sink)


@dataclass
class PopulationPlan:
    """The seeded, stack-independent half of one run.

    Who roams where, who carries which traffic, which mobiles are
    hotspots, and the per-tier air-interface budgets — everything a
    stack builder needs before it lays out its own topology.
    """

    spec: "ScenarioSpec"
    streams: RandomStreams
    roam: Rectangle
    mobility_assignment: list[str]
    traffic_assignment: list[str]
    hotspot_indices: list[int]
    starts: list[Point]
    #: Per-cell shared channels on every tier; ``None`` = legacy
    #: unconstrained per-mobile radio links (contention off).
    channel_plan: Optional[ChannelPlan]


def plan_population(
    spec: "ScenarioSpec", seed: int, air_policy: "PolicyConfig"
) -> PopulationPlan:
    """Draw the seeded population plan for one ``(spec, seed)``.

    ``air_policy`` supplies the admission factor of the contention-mode
    channel plan: the multi-tier stack passes ``spec.policy``, the
    tier-blind baselines a default block.  The micro tier (and any
    unset field) runs at its ``TIER_DEFAULTS`` budget; uplink budgets
    are half the downlink ones.  Deterministic: seeded streams only.
    """
    streams = RandomStreams(int(seed))
    roam = roam_rectangle(spec)
    mobility, traffic, hotspots = assignments(spec, streams)
    channel_plan = None
    if spec.channels_enabled():
        channel_plan = ChannelPlan(
            macro_bandwidth=spec.macro_channel_bandwidth,
            pico_bandwidth=spec.pico_channel_bandwidth,
            admission_factor=air_policy.admission_factor,
        )
    return PopulationPlan(
        spec=spec,
        streams=streams,
        roam=roam,
        mobility_assignment=mobility,
        traffic_assignment=traffic,
        hotspot_indices=hotspots,
        starts=start_positions(spec, streams, roam),
        channel_plan=channel_plan,
    )


@dataclass
class MobileEndpoint:
    """The ends of one mobile's downlink flows, as its stack wires them."""

    #: CN-side downlink injection (route-optimized tunnelling for
    #: multi-tier, plain Internet routing for the baselines).
    send: Callable[[Packet], bool]
    #: The mobile-side hook list fired per received data packet.
    data_hooks: list
    #: Originates the elastic ack uplink from the mobile.
    ack_reply: Callable[[Packet], object]
    #: The address flows to this mobile are sent to.
    address: object


def wire_population(
    sim: "Simulator",
    plan: PopulationPlan,
    cn,
    add_mobile: Callable[[int, str, MobilityModel], MobileEndpoint],
    air_cells: list[tuple["Cell", "SharedChannel"]],
) -> tuple[list[FlowPlan], Optional[FluidDriver]]:
    """Lay the planned population and traffic over a built topology.

    Per mobile index, in order: instantiate its mobility model, let the
    stack create the mobile and its controller
    (``add_mobile(index, traffic kind, model)``) and plan its downlink
    flow from the correspondent ``cn``; then the flash-crowd hotspots'
    extra simultaneous correspondent flows; last the hybrid background
    over ``air_cells`` (a no-op returning ``None`` unless the spec
    carries a non-empty fluid block).  Returns the flow plans and the
    fluid driver.  Deterministic: fixed order, seeded streams only.
    """
    spec = plan.spec
    ack_dispatcher = ElasticAckDispatcher()
    cn.on_protocol("ack", ack_dispatcher)
    endpoints: list[MobileEndpoint] = []
    flow_plans: list[FlowPlan] = []

    def flow(kind: str, flow_id: str, index: int) -> Optional[FlowPlan]:
        end = endpoints[index]
        return plan_flow(
            sim, kind, flow_id, plan.streams, ack_dispatcher,
            end.send, end.data_hooks, end.ack_reply, cn.address, end.address,
        )

    for index in range(spec.population):
        kind = plan.traffic_assignment[index]
        model = make_mobility(
            plan.mobility_assignment[index], index, plan.streams,
            plan.roam, plan.starts[index],
        )
        endpoints.append(add_mobile(index, kind, model))
        planned = flow(kind, f"{spec.name}.mn{index}", index)
        if planned is not None:
            flow_plans.append(planned)
    for index in plan.hotspot_indices:
        for hot in range(spec.hotspot_flows):
            flow_plans.append(
                flow("poisson-data", f"{spec.name}.mn{index}.hot{hot}", index)
            )
    return flow_plans, install_fluid_background(
        sim, spec, air_cells, plan.roam
    )


__all__ = [
    "BANDWIDTH_DEMAND",
    "PICO_FRIENDLY_MODELS",
    "ElasticAckDispatcher",
    "FlowPlan",
    "MobileEndpoint",
    "PopulationPlan",
    "assignments",
    "make_mobility",
    "pico_placements",
    "pico_sites",
    "plan_flow",
    "plan_population",
    "roam_rectangle",
    "start_positions",
    "wire_population",
]
