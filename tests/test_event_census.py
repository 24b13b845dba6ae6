"""``tools/event_census.py`` on one smoke scenario: every dispatched
kernel entry is counted once, under a kind, and the count repeats."""

import json
import pathlib
import sys

import pytest

from repro.net import Node, Packet, connect, drop_totals, protocol_hop_totals
from repro.scenarios import build_scenario, get_scenario
from repro.sim import Simulator, kernel
from repro.stacks import stack_names

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def event_census():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import event_census as module
    finally:
        sys.path.pop(0)
    return module


def test_kinds_sum_to_events_processed_and_two_runs_agree(event_census):
    spec = get_scenario("campus-air").smoke()
    pop, init = kernel.heappop, Simulator.__init__
    first = event_census.census_of(spec, spec.seeds[0])
    assert (kernel.heappop, Simulator.__init__) == (pop, init)  # unwrapped again
    assert first["events"] > 10_000
    assert sum(first["kinds"].values()) == first["events"]
    assert first == event_census.census_of(spec, spec.seeds[0])
    kinds = first["kinds"]
    # An air packet is two entries, and each kind names what was run.
    assert kinds["SharedChannel._arbitrate"] == kinds["SharedChannel._finish"] > 0
    assert "SharedChannel._start" not in kinds
    assert kinds["Link._deliver[MultiTierMobileNode,data]"] > 0
    assert kinds["Timeout -> Process._resume[CBRSource._run]"] > 0
    assert list(kinds.values()) == sorted(kinds.values(), reverse=True)
    assert first["drops"] == {}  # the multi-tier smoke run drops nothing
    assert first["refusals"] == {}  # ... and refuses no move


def test_cli_prints_tables_or_json_for_every_stack(event_census, capsys):
    argv = ["sparse-rural", "--smoke", "--stack", "all", "--seed", "3"]
    assert event_census.main(argv) == 0
    tables = capsys.readouterr().out
    assert event_census.main(argv + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    runs = [label for label in report if label != "all runs"]
    assert len(runs) > 1 and all(f"{label}: " in tables for label in report)
    assert report["all runs"]["events"] == sum(report[run]["events"] for run in runs)
    # Every run lists its drops by cause and its refused moves by move
    # and reason; "all runs" is their sum.
    assert all(f"{label}: 0 packets dropped" in tables for label in report)
    assert all(f"{label}: 0 moves refused" in tables for label in report)
    assert [report[label]["drops"] for label in report] == [{}] * len(report)
    assert [report[label]["refusals"] for label in report] == [{}] * len(report)
    assert event_census.main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == report


def test_census_drops_are_the_runs_drop_ledger(event_census, capsys):
    """A run's ``drops`` are its simulator's ledger, ranked, and they
    are what the stack's drop metric sums."""
    spec = get_scenario("city-rush-hour").smoke().replace(stack="mobileip")
    assert event_census.census_of(spec, 1)["drops"] == {"unknown-visitor": 6}
    assert build_scenario(spec, 1).execute()["mip.dropped_unknown_visitor"] == 6
    argv = ["city-rush-hour", "--smoke", "--stack", "mobileip", "--seed", "1"]
    assert event_census.main(argv) == 0
    tables = capsys.readouterr().out
    assert "city-rush-hour/mobileip: 6 packets dropped\n" in tables
    assert tables.endswith(
        "        6  100.0%  unknown-visitor\n"
        "city-rush-hour/mobileip: 0 moves refused\n"
    )


def test_census_refusals_are_the_runs_decision_trace(event_census):
    """A run's ``refusals`` are its decision trace's, keyed
    ``move:reason`` and ranked; the attach ones are ``blocked_attaches``."""
    spec = get_scenario("mega").replace(
        population=400, duration=6.0, traffic_mix={"idle": 1.0},
        hotspot_fraction=0.0,
    )
    record = event_census.census_of(spec, 3)
    assert record["refusals"] == {
        "attach:channel-pool-full": 3990, "handoff:channel-pool-full": 18,
    }
    assert list(record["refusals"]) == ["attach:channel-pool-full",
                                        "handoff:channel-pool-full"]
    assert build_scenario(spec, 3).execute()["blocked_attaches"] == 3990
    tables = event_census.render("mega/multitier", record)
    assert tables.endswith(
        "mega/multitier: 4008 moves refused\n"
        "       3990   99.6%  attach:channel-pool-full\n"
        "         18    0.4%  handoff:channel-pool-full"
    )


@pytest.mark.parametrize("stack", stack_names())
def test_link_deliveries_are_the_hop_tally_plus_delivery_time_drops(
    event_census, stack
):
    """Every ``Link._deliver`` entry the kernel dispatched either bumped
    the simulator's hop tally (``hop_total``) or was lost on arrival:
    booked as ``in-flight-down`` or ``link-loss``.  The airtime a
    detached claim cancelled never reaches ``_deliver``: it is booked
    as ``air-cancelled``, which the channels count per direction too."""
    spec = get_scenario("campus-air").smoke().replace(stack=stack)
    with event_census.counting() as (kinds, _simulators):
        built = build_scenario(spec, spec.seeds[0])
        metrics = built.execute()
    deliveries = sum(
        count for kind, count in kinds.items() if kind.startswith("Link._deliver[")
    )
    cancelled = sum(
        sum(channel.stats.dropped_on_detach.values())
        for _cell, channel in built.air_cells
    )
    drops = drop_totals(built.sim)
    assert metrics["hop_total"] > 0
    assert deliveries == (
        metrics["hop_total"]
        + drops.get("in-flight-down", 0)
        + drops.get("link-loss", 0)
    )
    assert drops.get("air-cancelled", 0) == cancelled


def test_lossy_and_downed_link_deliveries_count_as_drops(event_census):
    """The drop term of the conservation above, which no catalog link
    exercises: random loss and a link taken down mid-flight."""
    sim = Simulator()
    a, b = Node(sim, "a", "10.0.0.1"), Node(sim, "b", "10.0.0.2")
    forward, _backward = connect(sim, a, b, queue_limit=200, loss_rate=0.25)
    with event_census.counting() as (kinds, _simulators):
        for seq in range(200):
            packet = Packet(src=a.address, dst=b.address, size=1000, seq=seq)
            assert forward.transmit(packet)
        sim.call_later(0.01, setattr, forward, "up", False)
        sim.run()
    deliveries = kinds["Link._deliver[Node,data]"]
    hops = protocol_hop_totals(sim)
    drops = drop_totals(sim)
    assert deliveries == 200 == hops["data"] + sum(drops.values())
    # 112 packets land before the link goes down: the crc32-seeded draw
    # loses 28 of them, and the 88 still in flight meet a downed link.
    assert hops == {"data": 84}
    assert drops == {"link-loss": 28, "in-flight-down": 88}
