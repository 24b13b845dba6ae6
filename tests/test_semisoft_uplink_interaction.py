"""End-to-end pin of the semisoft/uplink interaction fix.

Uplink traffic (e.g. acks) continuing through the *old* base station
during the semisoft dual-cast interval must not destroy the advance
mapping — otherwise the downlink reverts to the old path and the radio
switch loses packets.
"""

from repro.experiments.baselines import build_cip_world
from repro.net import Packet
from repro.radio.cells import Tier


def test_semisoft_handoff_lossless_despite_uplink_chatter():
    sim, domain, gw, leaves, internet, cn, mn = build_cip_world()
    domain.semisoft_delay = 0.08
    mn.attach_to(leaves[0])
    sim.run(until=0.5)

    got = []
    mn.on_data.append(lambda packet: got.append(packet.seq))

    # Downlink stream.
    def send_down(seq):
        internet.receive(
            Packet(src=cn.address, dst=mn.address, size=500, seq=seq,
                   created_at=sim.now, flow_id="down")
        )

    for seq in range(60):
        sim.call_later(seq * 0.005, send_down, seq)

    # Concurrent uplink chatter from the mobile (refreshes caches via
    # whichever base station currently serves it).
    def chatter():
        while sim.now < 2.0:
            mn.originate(
                Packet(src=mn.address, dst=cn.address, size=80,
                       created_at=sim.now, protocol="data")
            )
            yield sim.timeout(0.004)

    sim.process(chatter())

    # Semisoft handoff to the far subtree (crossover at the gateway) in
    # the middle of all that.
    sim.call_later(0.1, lambda: sim.process(mn.handoff_semisoft(leaves[3])))
    sim.run(until=4.0)

    lost = set(range(60)) - set(got)
    assert lost == set(), f"semisoft + uplink chatter lost {sorted(lost)}"
    assert mn.serving_bs is leaves[3]


def test_tier_link_budget_closes_at_cell_edge():
    """Invariant: with default radio parameters, a mobile at the nominal
    cell edge of every tier is still above the usable floor."""
    from repro.radio import PropagationModel, TIER_DEFAULTS

    model = PropagationModel(exponent=3.5)
    for tier, defaults in TIER_DEFAULTS.items():
        rss_at_edge = model.received_power_dbm(
            defaults["tx_power_dbm"], defaults["radius"]
        )
        assert rss_at_edge >= -95.0, (
            f"{tier.name}: {rss_at_edge:.1f} dBm at {defaults['radius']} m"
        )


def test_tier_bandwidth_ordering():
    """Smaller cells must offer more per-user bandwidth (the premise of
    the paper's bandwidth-demand handoff factor)."""
    from repro.radio import TIER_DEFAULTS

    pico = TIER_DEFAULTS[Tier.PICO]["bandwidth"]
    micro = TIER_DEFAULTS[Tier.MICRO]["bandwidth"]
    macro = TIER_DEFAULTS[Tier.MACRO]["bandwidth"]
    assert pico > micro > macro
