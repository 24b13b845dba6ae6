#!/usr/bin/env python3
"""Idle-mode economy on a campus Cellular IP network.

Sixteen phones sit mostly idle in a gateway-rooted access tree.  With
paging support they send cheap paging-updates every 5 s; without it
they must refresh route caches every 0.5 s to stay reachable.  The
example measures the control-traffic saving and shows that an idle
phone still receives its first packet (found via the paging caches).

Run:  python examples/idle_paging_campus.py
"""

from repro.cellularip import CIPMobileHost
from repro.experiments.baselines import build_cip_world
from repro.net import Packet, ip
from repro.traffic import FlowSink

PHONES = 16
DURATION = 30.0


def run_campus(with_paging: bool):
    sim, domain, gw, leaves, internet, cn, _mn = build_cip_world()
    domain.route_update_time = 0.5
    domain.active_state_timeout = 1.0
    domain.paging_update_time = 5.0 if with_paging else 0.5

    phones = []
    for index in range(PHONES):
        phone = CIPMobileHost(
            sim, f"phone{index}", ip(f"10.200.1.{index + 1}"), domain
        )
        phone.attach_to(leaves[index % len(leaves)])
        phones.append(phone)
    sim.run(until=DURATION)
    control_rate = domain.total_control_packets() / DURATION

    # Ring the last idle phone.
    target = phones[-1]
    sink = FlowSink("ring")
    target.on_data.append(sink.bind(sim))
    internet.receive(
        Packet(
            src=cn.address, dst=target.address, size=300,
            created_at=sim.now, flow_id="ring", seq=0,
        )
    )
    sim.run(until=DURATION + 3.0)
    first_packet_delay = sink.delays[0] if sink.delays else float("nan")
    return control_rate, first_packet_delay


def main() -> None:
    paging_rate, paging_delay = run_campus(with_paging=True)
    forced_rate, forced_delay = run_campus(with_paging=False)

    print(f"{PHONES} idle phones, {DURATION:.0f} s observation\n")
    print(f"with paging   : {paging_rate:6.1f} control pkt-hops/s, "
          f"first packet in {paging_delay * 1e3:.1f} ms")
    print(f"without paging: {forced_rate:6.1f} control pkt-hops/s, "
          f"first packet in {forced_delay * 1e3:.1f} ms")
    print(f"\npaging cuts idle-mode signalling {forced_rate / paging_rate:.1f}x "
          f"while phones stay reachable.")


if __name__ == "__main__":
    main()
