"""Layer probes: the cost of one operation of one layer, untraced.

Each probe builds its own inputs, calls one layer's public functions a
fixed number of times and reports the cost of one call; the harness
keeps the fastest of several rounds (a probe repeats identical work, so
its minimum is the program and the rest is the host).  Run as a script
this prints one JSON object of ``name -> value``; the unit is the
suffix of the name (``_ns``, ``_us``, ``_ms``).
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    # The program instead of the script directory, where trace.py
    # would shadow the standard library's ``trace``.
    sys.path[0] = str(Path(__file__).resolve().parent.parent / "src")

import json
import time
from types import SimpleNamespace

ROUNDS = 5


def _sim_call_later(count: int) -> float:
    """Pooled-callback scheduling plus dispatch, per callback.

    Scheduled a thousand at a time, so the heap stays the size a
    scenario run keeps it at.
    """
    from repro.sim import Simulator

    sim = Simulator()

    def noop():
        pass

    batches = max(1, count // 1000)
    started = time.perf_counter()
    for _ in range(batches):
        for index in range(1000):
            sim.call_later(float(index % 97), noop)
        sim.run()
    return (time.perf_counter() - started) / (batches * 1000)


def _sim_timeout(count: int) -> float:
    """One process resuming from a timeout, per resume."""
    from repro.sim import Simulator

    sim = Simulator()

    def chain():
        for _ in range(count):
            yield sim.timeout(1.0)

    sim.process(chain())
    started = time.perf_counter()
    sim.run()
    return (time.perf_counter() - started) / count


def _net_hop(count: int) -> float:
    """A packet crossing one link of a three-link chain, per hop."""
    from repro.net import Network, Packet
    from repro.sim import Simulator

    sim = Simulator()
    network = Network(sim)
    src = network.host("src")
    r1 = network.router("r1")
    r2 = network.router("r2")
    dst = network.host("dst")
    for a, b in ((src, r1), (r1, r2), (r2, dst)):
        network.connect(a, b, bandwidth=1e9, queue_limit=count + 1)
    network.install_routes()
    received = []
    dst.on_default(lambda packet, link: received.append(packet.uid))
    started = time.perf_counter()
    for _ in range(count):
        src.send_via(r1, Packet(src=src.address, dst=dst.address, size=500))
    sim.run()
    elapsed = time.perf_counter() - started
    if len(received) != count:
        raise RuntimeError(f"net.hop_ns: {len(received)} of {count} delivered")
    return elapsed / (3 * count)


def _net_addr(count: int) -> float:
    """Parse, hash and compare one dotted-quad address."""
    from repro.net import IPAddress

    texts = [f"10.{(i >> 16) & 255}.{(i >> 8) & 255}.{i & 255}" for i in range(count)]
    reference = IPAddress("10.0.0.1")
    started = time.perf_counter()
    for text in texts:
        address = IPAddress(text)
        hash(address)
        address == reference
    return (time.perf_counter() - started) / count


def _radio_survey(count: int) -> float:
    """One signal survey over the Fig 3.1 cells, per survey."""
    from repro.multitier.architecture import MultiTierWorld
    from repro.radio.geometry import Point
    from repro.radio.propagation import PropagationModel
    from repro.radio.signal import SignalMeter

    cells = [station.cell for station in MultiTierWorld().all_radio_stations()]
    meter = SignalMeter(PropagationModel(), cells)
    positions = [Point(-3000.0 + 6000.0 * i / count, 0.0) for i in range(count)]
    started = time.perf_counter()
    for position in positions:
        meter.survey(position)
    return (time.perf_counter() - started) / count


def _radio_airtime(count: int) -> float:
    """Submit, grant and finish one packet's airtime, 8 mobiles contending."""
    from repro.net import Link, Node, Packet
    from repro.radio.channel import SharedChannel
    from repro.sim import Simulator

    sim = Simulator()
    channel = SharedChannel(sim, "air-probe", downlink_bps=1e9, uplink_bps=1e9)
    base = Node(sim, "bs", "10.0.1.1")
    links = []
    for key in range(8):
        mobile = Node(sim, f"m{key}", f"10.99.0.{key + 1}")
        mobile.on_default(lambda packet, link: None)
        links.append(Link(
            sim, base, mobile, bandwidth=100e6, delay=0.0,
            shared_channel=channel, channel_key=key,
        ))
    waves = max(1, count // len(links))
    started = time.perf_counter()
    for _ in range(waves):
        for link in links:
            link.transmit(Packet(src="10.0.0.1", dst=link.tail.address, size=500))
        sim.run()
    elapsed = time.perf_counter() - started
    if channel.stats.granted["downlink"] != waves * len(links):
        raise RuntimeError("radio.airtime_ns: not every packet was granted airtime")
    return elapsed / (waves * len(links))


def _mobility_advance(count: int) -> float:
    """``advance(0.1)``, mean over the six mobility models."""
    from repro.radio.geometry import Point, Rectangle
    from repro.scenarios import MOBILITY_MODELS
    from repro.sim import RandomStreams
    from repro.stacks.population import make_mobility

    roam = Rectangle(-3200.0, -500.0, 3200.0, 500.0)
    streams = RandomStreams(1)
    models = [
        make_mobility(kind, index, streams, roam, Point(0.0, 0.0))
        for index, kind in enumerate(MOBILITY_MODELS)
    ]
    started = time.perf_counter()
    for model in models:
        for _ in range(count):
            model.advance(0.1)
    return (time.perf_counter() - started) / (count * len(models))


def _policy_decide(count: int) -> float:
    """One tier decision over a five-candidate survey."""
    from repro.policy.decider import TierDecider
    from repro.policy.types import Candidate, HandoffFactors
    from repro.radio.cells import Tier

    tiers = (Tier.MACRO, Tier.MICRO, Tier.MICRO, Tier.PICO, Tier.MACRO)
    candidates = [
        Candidate(SimpleNamespace(tier=tier), -60.0 - 5.0 * index)
        for index, tier in enumerate(tiers)
    ]
    decider = TierDecider()
    slow = HandoffFactors(speed=1.5, bandwidth_demand=384e3, serving_tier=Tier.MACRO)
    fast = HandoffFactors(speed=30.0, bandwidth_demand=64e3, serving_tier=Tier.MICRO)
    started = time.perf_counter()
    for index in range(count):
        decider.decide(candidates, fast if index & 1 else slow)
    return (time.perf_counter() - started) / count


def _fluid_refresh(count: int) -> float:
    """One refresh of the 100k-mobile fluid background over every cell."""
    from repro.scenarios import build_scenario, get_scenario

    driver = build_scenario(get_scenario("metro-100k").smoke(), 1).fluid_driver
    started = time.perf_counter()
    for _ in range(count):
        driver.refresh()
    return (time.perf_counter() - started) / count


def _stack_build(stack: str):
    """Assemble the ``mega`` world under ``stack`` (``count`` ignored)."""

    def probe(count: int) -> float:
        from repro.scenarios import build_scenario, get_scenario

        spec = get_scenario("mega").replace(stack=stack)
        started = time.perf_counter()
        build_scenario(spec, 1)
        return time.perf_counter() - started

    return probe


#: The stacks every checkout registers; a later stack gets its own
#: probe in the change that adds it (the benchmark's names are fixed).
STACKS = ("multitier", "cellularip", "cellularip-hard", "mobileip")

#: name -> (probe, operations per round, seconds -> reported unit).
PROBES = {
    "sim.call_later_ns": (_sim_call_later, 200_000, 1e9),
    "sim.timeout_ns": (_sim_timeout, 100_000, 1e9),
    "net.hop_ns": (_net_hop, 20_000, 1e9),
    "net.addr_ns": (_net_addr, 100_000, 1e9),
    "radio.survey_ns": (_radio_survey, 20_000, 1e9),
    "radio.airtime_ns": (_radio_airtime, 20_000, 1e9),
    "mobility.advance_ns": (_mobility_advance, 20_000, 1e9),
    "policy.decide_ns": (_policy_decide, 50_000, 1e9),
    "fluid.refresh_us": (_fluid_refresh, 400, 1e6),
    **{f"stacks.build_ms.{stack}": (_stack_build(stack), 1, 1e3) for stack in STACKS},
}


def run_all(scale: float = 1.0, rounds: int = ROUNDS) -> dict[str, float]:
    """Every probe: the fastest of ``rounds`` rounds, in its unit.

    ``scale`` shrinks the operation counts (the self-tests use it);
    reported values stay per-operation, so they remain comparable in
    kind, only noisier.
    """
    results = {}
    for name, (probe, count, factor) in PROBES.items():
        count = max(1, int(count * scale))
        results[name] = min(probe(count) for _ in range(rounds)) * factor
    return results


if __name__ == "__main__":
    print(json.dumps(run_all()))
