"""Kernel microbenchmarks: raw event and packet throughput.

These are true pytest-benchmark microbenchmarks (multiple rounds) and
document the simulator's capacity: how many events/packets per wall-
clock second the substrate sustains, which bounds feasible experiment
sizes.
"""

from repro.net import Network, Packet
from repro.sim import Simulator


def run_timeout_chain(count):
    sim = Simulator()

    def chain():
        for _ in range(count):
            yield sim.timeout(1.0)

    sim.process(chain())
    sim.run()
    return sim.now


def test_bench_kernel_event_throughput(benchmark):
    result = benchmark(run_timeout_chain, 10_000)
    assert result == 10_000.0


def run_callback_storm(count):
    sim = Simulator()
    hits = []
    for index in range(count):
        sim.call_later(float(index % 97), hits.append, index)
    sim.run()
    return len(hits)


def test_bench_kernel_callback_throughput(benchmark):
    result = benchmark(run_callback_storm, 10_000)
    assert result == 10_000


def run_packet_chain(count):
    sim = Simulator()
    network = Network(sim)
    src = network.host("src")
    r1 = network.router("r1")
    r2 = network.router("r2")
    dst = network.host("dst")
    network.connect(src, r1, bandwidth=1e9, queue_limit=count + 1)
    network.connect(r1, r2, bandwidth=1e9, queue_limit=count + 1)
    network.connect(r2, dst, bandwidth=1e9, queue_limit=count + 1)
    network.install_routes()
    received = []
    dst.on_default(lambda packet, link: received.append(packet.uid))
    for _ in range(count):
        src.send_via(r1, Packet(src=src.address, dst=dst.address, size=500))
    sim.run()
    return len(received)


def test_bench_packet_forwarding_throughput(benchmark):
    result = benchmark(run_packet_chain, 2_000)
    assert result == 2_000
