#!/usr/bin/env python3
"""Quickstart: build the paper's Fig 4.1 world, stream video to a
mobile, watch it hand off between micro cells with zero loss.

Run:  python examples/quickstart.py
"""

from repro.multitier.architecture import MultiTierWorld
from repro.traffic import CBRSource, FlowSink


def main() -> None:
    # 1. Assemble the architecture: Internet core, home agent, MNLD,
    #    correspondent node, and the Fig 3.1 domain rooted at an RSMC.
    world = MultiTierWorld()
    sim = world.sim
    domain = world.domain1

    # 2. A mobile node attaches to micro cell B (new-call admission).
    mobile = world.add_mobile("alice")
    assert mobile.initial_attach(domain["B"]) is None
    sim.run(until=1.0)
    print(f"alice attached to {mobile.serving_bs.name} "
          f"({mobile.serving_tier.label} tier), home address {mobile.home_address}")

    # 3. The correspondent streams 200 kbit/s CBR video to alice's home
    #    address; the first packets go via the home agent, later ones are
    #    route-optimized straight to the RSMC.
    sink = FlowSink()
    mobile.on_data.append(sink.bind(sim))
    source = CBRSource(
        sim,
        world.cn.send,
        src=world.cn.address,
        dst=mobile.home_address,
        rate_bps=200e3,
        packet_size=500,
        duration=6.0,
    ).start()
    sink.flow_id = source.flow_id

    # 4. Mid-stream, alice walks from B's coverage into C's: a
    #    micro-to-micro intra-domain handoff (Fig 3.4 case c).
    def walk():
        yield 2.0
        print(f"[t={sim.now:.2f}s] handing off B -> C ...")
        refusal = yield from mobile.perform_handoff(domain["C"])
        outcome = "succeeded" if refusal is None else f"failed ({refusal})"
        print(f"[t={sim.now:.2f}s] handoff {outcome}")

    sim.process(walk())
    sim.run(until=10.0)

    # 5. Report QoS.
    print()
    print(f"packets sent       : {source.packets_sent}")
    print(f"packets received   : {sink.received}")
    print(f"loss rate          : {sink.loss_rate(source.packets_sent):.4f}")
    print(f"mean delay         : {sink.mean_delay() * 1e3:.2f} ms")
    print(f"jitter             : {sink.jitter() * 1e3:.3f} ms")
    print(f"longest interruption: {sink.max_gap() * 1e3:.1f} ms")
    print(f"RSMC buffered/flushed: {domain.rsmc.buffered_packets}"
          f"/{domain.rsmc.flushed_packets}")
    print(f"CN route-optimized after {world.cn.notifications_received} notify(s)")


if __name__ == "__main__":
    main()
