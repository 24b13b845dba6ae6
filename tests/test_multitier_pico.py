"""Pico-tier tests: the in-building level of the paper's Fig 2.1
hierarchy, managed like a micro cell."""

from repro.mobility import Stationary
from repro.multitier import DIRECT
from repro.multitier.architecture import WORLD_BOUNDS, MultiTierWorld
from repro.radio.cells import Tier
from repro.radio.geometry import Point


def make_world_with_pico():
    world = MultiTierWorld()
    # An office building inside micro cell B's coverage.
    pico = world.add_pico("B", "office", Point(-2700, 50), radius=60.0, channels=4)
    return world, pico


def test_pico_station_has_micro_table_only():
    world, pico = make_world_with_pico()
    assert pico.tier is Tier.PICO
    assert pico.tables.macro_table is None


def test_pico_attachment_and_data_path():
    world, pico = make_world_with_pico()
    sim = world.sim
    mn = world.add_mobile("worker")
    assert mn.initial_attach(pico) is None
    sim.run(until=1.0)

    # Location records climb office -> B -> A -> R1 -> R3 -> RSMC.
    d1 = world.domain1
    assert pico.tables.micro_table.peek(mn.home_address).via is DIRECT
    assert d1["B"].tables.micro_table.peek(mn.home_address).via is pico
    assert d1.rsmc.tables.micro_table.peek(mn.home_address) is not None

    got = []
    mn.on_data.append(lambda packet: got.append(packet.seq))
    world.cn.send_to_mobile(mn.home_address, seq=7)
    sim.run(until=2.0)
    assert got == [7]


def test_pico_to_micro_handoff():
    world, pico = make_world_with_pico()
    sim = world.sim
    d1 = world.domain1
    mn = world.add_mobile("worker")
    assert mn.initial_attach(pico) is None
    sim.run(until=1.0)

    done = []

    def leave_building():
        done.append((yield from mn.perform_handoff(d1["B"])))

    sim.process(leave_building())
    sim.run(until=3.0)
    assert done == [None]
    assert mn.serving_bs is d1["B"]
    assert pico.tables.micro_table.peek(mn.home_address) is None


def test_controller_high_demand_user_picks_pico():
    world, pico = make_world_with_pico()
    mn = world.add_mobile("videocaller", bandwidth_demand=1e6)
    world.add_controller(
        mn, Stationary(Point(-2700, 50), WORLD_BOUNDS)
    )
    world.sim.run(until=5.0)
    assert mn.serving_bs is pico


def test_pico_added_between_controllers_is_audible_to_the_later_one():
    """The world's controllers share one signal meter; it must be
    rebuilt when a station appears, not kept from the first call."""
    world = MultiTierWorld()
    spot = Point(-2700, 50)
    model = Stationary(spot, WORLD_BOUNDS)
    early = world.add_controller(world.add_mobile("early"), model)
    pico = world.add_pico("B", "office", spot, radius=60.0, channels=4)
    caller = world.add_mobile("videocaller", bandwidth_demand=1e6)
    late = world.add_controller(caller, Stationary(spot, WORLD_BOUNDS))

    def covering(controller):
        heard = controller.meter.scan(spot, covering=True)
        return [controller.nodes[index] for _rss, index in heard]

    assert pico not in covering(early)
    assert pico in covering(late)
    world.sim.run(until=5.0)
    assert caller.serving_bs is pico


def test_controller_low_demand_user_picks_micro_over_pico():
    world, pico = make_world_with_pico()
    mn = world.add_mobile("idler", bandwidth_demand=0.0)
    world.add_controller(mn, Stationary(Point(-2700, 50), WORLD_BOUNDS))
    world.sim.run(until=5.0)
    assert mn.serving_bs is world.domain1["B"]


def test_pico_guard_channel_admits_handoff_only():
    world, pico = make_world_with_pico()
    # New calls stop at capacity - guard = 3...
    for index in range(3):
        filler = world.add_mobile(f"filler{index}", bandwidth_demand=1e6)
        assert filler.initial_attach(pico) is None
    blocked = world.add_mobile("blocked", bandwidth_demand=1e6)
    assert blocked.initial_attach(pico) == "channel-pool-full"
    # ...but a handoff may still take the guard channel.
    mover = world.add_mobile("mover", bandwidth_demand=1e6)
    assert mover.initial_attach(world.domain1["B"]) is None
    world.sim.run(until=0.5)
    done = []

    def enter_building():
        done.append((yield from mover.perform_handoff(pico)))

    world.sim.process(enter_building())
    world.sim.run(until=2.0)
    assert done == [None]


def test_pico_completely_full_overflows_to_micro():
    world, pico = make_world_with_pico()
    # Saturate all 4 channels: 3 new calls plus one handoff (guard).
    for index in range(3):
        filler = world.add_mobile(f"filler{index}", bandwidth_demand=1e6)
        assert filler.initial_attach(pico) is None
    guard_filler = world.add_mobile("guard_filler", bandwidth_demand=1e6)
    assert guard_filler.initial_attach(world.domain1["B"]) is None

    def fill_guard():
        assert (yield from guard_filler.perform_handoff(pico)) is None

    world.sim.process(fill_guard())
    world.sim.run(until=1.0)
    assert pico.channels.free == 0

    overflow = world.add_mobile("late", bandwidth_demand=1e6)
    world.add_controller(overflow, Stationary(Point(-2700, 50), WORLD_BOUNDS))
    world.sim.run(until=6.0)
    # Pico is completely full; the controller fell through to micro B
    # and stayed there (handoff attempts into the pico are rejected).
    assert overflow.serving_bs is world.domain1["B"]
    assert world.decision_trace.refusals == {
        ("attach", "channel-pool-full"): 1,
        ("handoff", "channel-pool-full"): 8,
    }
