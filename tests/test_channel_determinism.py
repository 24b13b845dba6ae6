"""Contention-mode determinism and the legacy byte-identity contract.

Two guarantees this file pins down:

1. A channel-enabled scenario (``campus-air``, and any spec with a
   channel bandwidth set) is byte-identical serial vs ``--jobs 2`` and
   across repeats — the shared-channel arbiter adds no nondeterminism;
   it emits ``air_*`` metrics and a legacy run grows none.
2. Handoff migrates a mobile's airtime claim between cells, in the
   multi-tier stack (make-before-break) and the Cellular IP stack
   (semisoft: claims briefly held on both stations).

With channels disabled (the default) every table stays byte-identical
to its golden in ``results/``: ``tests/test_goldens.py``.
"""

import multiprocessing

import pytest

from repro.experiments.exec import ProcessPoolBackend, SerialBackend
from repro.multitier.architecture import MultiTierWorld
from repro.radio.channel import ChannelPlan, SharedChannel, airtime_key
from repro.scenarios import expand_grid, get_scenario, run_grid, run_scenario_spec

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="platform lacks fork")


def _channel_spec():
    spec = get_scenario("campus-air").smoke()
    assert spec.channels_enabled()
    return spec


# ----------------------------------------------------------------------
# 1. Contention-mode determinism
# ----------------------------------------------------------------------
def test_channel_scenario_repeat_same_seed_is_byte_identical():
    spec = _channel_spec()
    assert run_scenario_spec(spec, seed=1) == run_scenario_spec(spec, seed=1)


@needs_fork
def test_channel_scenario_serial_vs_pool_is_byte_identical():
    spec = _channel_spec()
    seeds = [1, 2]
    cells = expand_grid([spec], seeds=seeds)
    (serial,) = run_grid(cells, backend=SerialBackend())
    (pooled,) = run_grid(cells, backend=ProcessPoolBackend(2))
    assert serial.samples == pooled.samples
    assert serial.metrics == pooled.metrics


def test_channel_scenario_emits_air_metrics_legacy_does_not():
    contended = run_scenario_spec(_channel_spec(), seed=1)
    legacy = run_scenario_spec(get_scenario("campus-dense").smoke(), seed=1)
    assert "air_busiest_downlink" in contended
    assert "air_detach_drops" in contended
    # Legacy runs must not grow keys: that would change their rendered
    # tables and break pre-channel byte-identity.
    assert "air_busiest_downlink" not in legacy


# ----------------------------------------------------------------------
# 2. Airtime-claim migration on handoff
# ----------------------------------------------------------------------
def test_multitier_handoff_migrates_airtime_claim():
    world = MultiTierWorld(channel_plan=ChannelPlan())
    sim = world.sim
    b, c = world.domain1["B"], world.domain1["C"]
    assert b.shared_channel is not None and c.shared_channel is not None
    assert world.domain1["R3"].shared_channel is None  # no cell, no air

    mobile = world.add_mobile("mn0", bandwidth_demand=64e3, airtime_key=0)
    key = airtime_key(mobile)
    assert mobile.initial_attach(b) is None
    assert key in b.shared_channel.attached

    handoff = sim.process(mobile.perform_handoff(c))
    # The handoff ends within its 1 s deadline; then let the Delete
    # Location land at B.
    sim.run(until=sim.now + 3.0)
    assert not handoff.is_alive
    assert mobile.serving_bs is c
    assert key in c.shared_channel.attached
    assert key not in b.shared_channel.attached


def test_cip_semisoft_handoff_holds_claims_on_both_then_migrates():
    from repro.cellularip.base_station import CIPBaseStation, CIPDomain, CIPGateway
    from repro.cellularip.mobile_host import CIPMobileHost
    from repro.sim.kernel import Simulator

    sim = Simulator()
    domain = CIPDomain(sim)
    gateway = CIPGateway(sim, "gw", "10.0.0.1", domain)
    old = CIPBaseStation(
        sim, "bs-old", "10.0.0.2", domain,
        shared_channel=SharedChannel(sim, "air-bs-old", 1e6, 0.5e6),
    )
    new = CIPBaseStation(
        sim, "bs-new", "10.0.0.3", domain,
        shared_channel=SharedChannel(sim, "air-bs-new", 1e6, 0.5e6),
    )
    domain.link(gateway, old)
    domain.link(gateway, new)

    host = CIPMobileHost(sim, "mh0", "10.99.0.1", domain, airtime_key=0)
    key = airtime_key(host)
    host.attach_to(old)
    sim.run(until=0.05)
    assert key in old.shared_channel.attached

    sim.process(host.handoff_semisoft(new))
    sim.run(until=sim.now + domain.semisoft_delay / 2)
    # Mid-semisoft: dual radio paths, claims on both channels.
    assert key in old.shared_channel.attached
    assert key in new.shared_channel.attached
    sim.run(until=sim.now + domain.semisoft_delay)
    assert key in new.shared_channel.attached
    assert key not in old.shared_channel.attached


def test_cip_station_without_shared_channel_stays_legacy():
    from repro.cellularip.base_station import CIPBaseStation, CIPDomain, CIPGateway
    from repro.sim.kernel import Simulator

    sim = Simulator()
    domain = CIPDomain(sim)
    gateway = CIPGateway(sim, "gw", "10.0.0.1", domain)
    bs = CIPBaseStation(sim, "bs", "10.0.0.2", domain)
    domain.link(gateway, bs)
    assert bs.shared_channel is None
    with pytest.raises(ValueError):
        SharedChannel(sim, "air-bs", 0.0, 0.0)
