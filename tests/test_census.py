"""``tools/census.py`` on smoke scenarios.

In process: every dispatched kernel entry is counted once, under a
kind; every ``repro`` object built is counted once, under its own
class, and generated constructors are told apart; drops and refused
moves are the run's own books; the counts repeat, and wrapping the
constructors does not perturb the kernel.  In a clean child: what it
imports is attributed to packages, and the collector is seen resting
while a world executes.  A kinds miscount or an import inside
``execute()`` fails the run of the tool, and loading the tool loads no
``repro`` module.
"""

import contextlib
import copy
import gc
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.net import Node, Packet, connect, drop_totals, protocol_hop_totals
from repro.radio.channel import DIRECTIONS
from repro.radio.geometry import Point
from repro.scenarios import build_scenario, get_scenario
from repro.sim import Interrupt, Simulator, kernel
from repro.stacks import stack_names

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def census():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import census as module
    finally:
        sys.path.pop(0)
    return module


# ----------------------------------------------------------------------
# In process: kernel entries, drops, refusals and constructions
# ----------------------------------------------------------------------
def test_kinds_sum_to_events_processed_and_two_runs_agree(census):
    spec = get_scenario("campus-air").smoke()
    pop, init = kernel.heappop, Simulator.__init__
    first = census.census_of(spec, spec.seeds[0])
    assert (kernel.heappop, Simulator.__init__) == (pop, init)  # unwrapped again
    assert first["events"] > 10_000
    assert sum(first["kinds"].values()) == first["events"]
    assert first == census.census_of(spec, spec.seeds[0])
    kinds = first["kinds"]
    # An air packet is two entries, and each kind names what was run.
    assert kinds["SharedChannel._arbitrate"] == kinds["SharedChannel._finish"] > 0
    assert "SharedChannel._start" not in kinds
    assert kinds["Link._deliver[MultiTierMobileNode,data]"] > 0
    assert kinds["sleep -> Process._resume[CBRSource._run]"] > 0
    assert list(kinds.values()) == sorted(kinds.values(), reverse=True)
    assert first["drops"] == {}  # the multi-tier smoke run drops nothing
    assert first["refusals"] == {}  # ... and refuses no move


@pytest.mark.parametrize("stack", stack_names())
def test_wrapping_constructors_does_not_perturb_the_kernel(census, stack):
    """The in-process pass wraps every ``repro`` constructor beside the
    kernel's ``heappop``: the kinds it counts are those a pass under
    ``counting()`` alone counts."""
    spec = get_scenario("campus-air").smoke().replace(stack=stack)
    with census.counting() as (kinds, _simulators):
        build_scenario(spec, spec.seeds[0]).execute()
    assert census.census_of(spec, spec.seeds[0])["kinds"] == census.ranked(kinds)


def test_a_sleep_is_named_by_its_process_and_a_stale_one_by_nothing(census):
    """A start, a wake-up and an interrupt name the generator they
    resume; once an interrupt has ended a sleep, its queued wake-up is
    ``sleep -> nothing``.  The process's end is no entry."""

    def sleeper():
        try:
            yield 10.0
        except Interrupt:
            pass
        yield 20.0

    with census.counting() as (kinds, simulators):
        sim = Simulator()
        process = sim.process(sleeper())
        sim.call_later(3.0, process.interrupt)
        sim.run()
    assert simulators == [sim]
    resumed = f"Process._resume[{sleeper.__qualname__}]"
    assert kinds == {
        f"start -> {resumed}": 1,
        "Process.interrupt": 1,  # the call_later that queues the interrupt
        f"interrupt -> {resumed}": 1,
        "sleep -> nothing": 1,  # the interrupted sleep's, at 10 s
        f"sleep -> {resumed}": 1,
    }
    assert sum(kinds.values()) == sim.events_processed


def test_an_interrupt_of_a_process_that_ended_meanwhile_is_named_nothing(census):
    with census.counting() as (kinds, _simulators):
        sim = Simulator()
        answer = sim.event()

        def waiter():
            try:
                yield answer
            except Interrupt:
                return

        process = sim.process(waiter())

        def interrupt_twice():
            process.interrupt()  # ends the process first
            process.interrupt()

        sim.call_later(1.0, interrupt_twice)
        sim.run()
    assert kinds["interrupt -> nothing"] == 1
    assert kinds[f"interrupt -> Process._resume[{waiter.__qualname__}]"] == 1


def test_each_object_is_counted_once_and_two_runs_agree(census):
    spec = get_scenario("campus-dense").smoke().replace(stack="cellularip")
    constructors = Packet.__init__, Node.__init__, Point.__init__
    first = census.census_of(spec, spec.seeds[0])
    assert (Packet.__init__, Node.__init__, Point.__init__) == constructors
    assert first == census.census_of(spec, spec.seeds[0])
    classes = first["classes"]
    assert first["events"] > 1_000 and classes["repro.net.packet.Packet"] > 100
    assert list(classes.values()) == sorted(classes.values(), reverse=True)
    # A subclass is one construction, however long its super() chain:
    # the gateway, the Internet router and the correspondent host.
    assert classes["repro.cellularip.base_station.CIPGateway"] == 1
    assert classes["repro.net.router.Router"] == classes["repro.net.node.Node"] == 1
    # The packet constructor is written out; a plain dataclass's is not.
    assert "repro.net.packet.Packet" not in first["generated"]
    assert "repro.radio.geometry.Point" in first["generated"]
    assert set(first["generated"]) <= set(classes)


@pytest.fixture(scope="module")
def sparse_rural_cli(census):
    """The tool's tables, its JSON report and a second JSON report, for
    every stack of the ``sparse-rural`` smoke at seed 3."""
    argv = ["sparse-rural", "--smoke", "--stack", "all", "--seed", "3"]
    outputs = []
    for args in (argv, argv + ["--json"], argv + ["--json"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert census.main(args) == 0
        outputs.append(out.getvalue())
    tables, report, again = outputs
    return tables, json.loads(report)["runs"], json.loads(again)["runs"]


def test_cli_prints_tables_or_json_for_every_stack(sparse_rural_cli):
    tables, report, again = sparse_rural_cli
    runs = [label for label in report if label != "all runs"]
    assert len(runs) > 1 and all(f"{label}: " in tables for label in report)
    assert report["all runs"]["events"] == sum(report[run]["events"] for run in runs)
    # Every run lists its drops by cause and its refused moves by move
    # and reason; "all runs" is their sum.
    assert all(f"{label}: 0 packets dropped" in tables for label in report)
    assert all(f"{label}: 0 moves refused" in tables for label in report)
    assert [report[label]["drops"] for label in report] == [{}] * len(report)
    assert [report[label]["refusals"] for label in report] == [{}] * len(report)
    report, again = copy.deepcopy((report, again))
    for label in runs:  # wall-clock readings aside
        for record in (report[label], again[label]):
            for row in (*record["during_execute"].values(), record["teardown"]):
                del row["seconds"]
    assert again == report


def test_cli_prints_class_tables_for_every_stack(sparse_rural_cli):
    tables, report, _again = sparse_rural_cli
    runs = [label for label in report if label != "all runs"]
    assert len(runs) > 1 and all(f"{label}: " in tables for label in report)
    lot = report["all runs"]
    assert lot["events"] == sum(report[run]["events"] for run in runs)
    assert lot["classes"]["repro.net.packet.Packet"] == sum(
        report[run]["classes"]["repro.net.packet.Packet"] for run in runs
    )
    assert "  * repro.radio.geometry.Point" in tables
    assert "    repro.net.packet.Packet" in tables


def test_census_drops_are_the_runs_drop_ledger(census, capsys):
    """A run's ``drops`` are its simulator's ledger, ranked, and they
    are what the stack's drop metric sums."""
    spec = get_scenario("city-rush-hour").smoke().replace(stack="mobileip")
    assert census.census_of(spec, 1)["drops"] == {"unknown-visitor": 6}
    assert build_scenario(spec, 1).execute()["mip.dropped_unknown_visitor"] == 6
    argv = ["city-rush-hour", "--smoke", "--stack", "mobileip", "--seed", "1"]
    assert census.main(argv) == 0
    tables = capsys.readouterr().out
    assert "city-rush-hour/mobileip: 6 packets dropped\n" in tables
    assert (
        "        6  100.0%  unknown-visitor\n"
        "city-rush-hour/mobileip: 0 moves refused\n"
    ) in tables


def test_census_refusals_are_the_runs_decision_trace(census):
    """A run's ``refusals`` are its decision trace's, keyed
    ``move:reason`` and ranked; the attach ones are ``blocked_attaches``."""
    spec = get_scenario("mega").replace(
        population=400, duration=6.0, traffic_mix={"idle": 1.0},
        hotspot_fraction=0.0,
    )
    record = census.census_of(spec, 3)
    assert record["refusals"] == {
        "attach:channel-pool-full": 3990, "handoff:channel-pool-full": 18,
    }
    assert list(record["refusals"]) == ["attach:channel-pool-full",
                                        "handoff:channel-pool-full"]
    assert build_scenario(spec, 3).execute()["blocked_attaches"] == 3990
    tables = census.render("mega/multitier", record)
    assert (
        "mega/multitier: 4008 moves refused\n"
        "       3990   99.6%  attach:channel-pool-full\n"
        "         18    0.4%  handoff:channel-pool-full\n"
    ) in tables


@pytest.mark.parametrize("stack", stack_names())
def test_link_deliveries_are_the_hop_tally_plus_delivery_time_drops(census, stack):
    """Every ``Link._deliver`` entry the kernel dispatched either bumped
    the simulator's hop tally (``hop_total``) or was lost on arrival:
    booked as ``in-flight-down`` or ``link-loss``.  The airtime a
    detached claim cancelled never reaches ``_deliver``: it is booked
    as ``air-cancelled``, which is what the channels neither granted
    nor still hold."""
    spec = get_scenario("campus-air").smoke().replace(stack=stack)
    with census.counting() as (kinds, _simulators):
        built = build_scenario(spec, spec.seeds[0])
        metrics = built.execute()
    deliveries = sum(
        count for kind, count in kinds.items() if kind.startswith("Link._deliver[")
    )
    cancelled = sum(
        channel.stats.submitted[d] - channel.stats.granted[d] - channel.queued[d]
        for _cell, channel in built.air_cells
        for d in DIRECTIONS
    )
    drops = drop_totals(built.sim)
    assert metrics["hop_total"] > 0
    assert deliveries == (
        metrics["hop_total"]
        + drops.get("in-flight-down", 0)
        + drops.get("link-loss", 0)
    )
    assert drops.get("air-cancelled", 0) == cancelled


def test_lossy_and_downed_link_deliveries_count_as_drops(census):
    """The drop term of the conservation above, which no catalog link
    exercises: random loss and a link taken down mid-flight."""
    sim = Simulator()
    a, b = Node(sim, "a", "10.0.0.1"), Node(sim, "b", "10.0.0.2")
    forward, _backward = connect(sim, a, b, queue_limit=200, loss_rate=0.25)
    with census.counting() as (kinds, _simulators):
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


# ----------------------------------------------------------------------
# In a clean child: the import graph and the cyclic collector
# ----------------------------------------------------------------------
def test_module_names_map_to_report_rows(census):
    rows = {
        "repro": "repro",
        "repro.cli": "repro.cli",
        "repro.stacks.cellularip": "repro.stacks",
        "numpy.linalg._linalg": "numpy",
        "json.decoder": "other",
    }
    assert {name: census.package_of(name) for name in rows} == rows


def test_modules_are_counted_per_package_most_first(census):
    loaded = ["numpy", "repro.sim", "repro.sim.kernel", "repro.stacks.mobileip", "sys"]
    packages = census.packages_of(loaded)
    assert packages == {"repro.sim": 2, "numpy": 1, "other": 1, "repro.stacks": 1}
    assert list(packages) == ["repro.sim", "numpy", "other", "repro.stacks"]


def test_loading_the_tool_loads_no_repro_module():
    """The child imports the tool before it builds anything, so a
    ``repro`` module the tool loaded would count as the run's."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT / "tools")]),
    )
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, census; print([m for m in sys.modules if m.startswith('repro')])"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"


def test_collector_rests_during_execute_and_the_watch_is_removed(census):
    spec = get_scenario("commuter-corridor").smoke()
    callbacks = list(gc.callbacks)
    record = census.lifecycle_of(spec, spec.seeds[0])
    assert gc.callbacks == callbacks
    # The record carries no kernel entries: the in-process pass counts them.
    assert census.census_of(spec, spec.seeds[0])["events"] > 20_000
    assert [row["passes"] for row in record["during_execute"].values()] == [0, 0, 0]
    assert record["unreachable_after"] < 5_000


def test_a_batch_tears_its_worlds_down_over_a_frozen_heap(census):
    """A lone run's teardown walks the whole heap (here: the test
    session's); in a batch it walks what the batch made."""
    spec = get_scenario("sparse-rural").smoke()
    runs = [(stack, spec.replace(stack=stack), 1) for stack in ("multitier", "mobileip")]
    alone = census.lifecycle_of_runs(runs[:1])["multitier"]["teardown"]
    batch = census.lifecycle_of_runs(runs)
    assert gc.get_freeze_count() == 0
    for label, record in batch.items():
        assert 0 < record["teardown"]["walked"] < alone["walked"] // 4, label


def test_a_pass_is_placed_by_the_stack_it_interrupts(census):
    def run():
        gc.collect()

    # Only the three explicit passes: an allocation-triggered one would
    # land in either tally.
    collecting = gc.isenabled()
    gc.disable()
    try:
        with census.watching_collector(run.__code__) as (during, outside):
            run()
            gc.collect(0)
            gc.collect(0)
    finally:
        if collecting:
            gc.enable()
    assert [during[generation][0] for generation in range(3)] == [0, 0, 1]
    assert outside[0] == 2


def test_cli_reports_a_single_stack_run_without_the_other_stacks(census, capsys):
    argv = ["sparse-rural", "--smoke", "--seed", "3"]
    assert census.main(argv + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    packages = report["packages"]
    assert packages["repro.multitier"] > 0 and packages["numpy"] > 0
    assert not {"repro.cellularip", "repro.experiments", "repro.metrics"} & set(packages)
    (label, run), = report["runs"].items()
    assert label == "sparse-rural/multitier"
    assert run["imported_inside_execute"] == [] and run["events"] > 1_000


# ----------------------------------------------------------------------
# The two ways the tool fails
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sparse_run(census):
    """Both passes' record of one sparse-rural smoke run."""
    spec = get_scenario("sparse-rural").smoke()
    return {
        **census.census_of(spec, spec.seeds[0]),
        **census.lifecycle_of(spec, spec.seeds[0]),
    }


def report_of(run):
    return {
        "packages": {"repro.stacks": 1},
        "runs": {"sparse-rural/multitier": run},
    }


def test_an_import_inside_execute_fails_the_tool(census, sparse_run, capsys, monkeypatch):
    assert sparse_run["imported_inside_execute"] == []
    run = {**sparse_run, "imported_inside_execute": ["repro.metrics.tables"]}
    monkeypatch.setattr(census, "census", lambda *args: report_of(run))
    assert census.main(["sparse-rural", "--smoke"]) == 1
    captured = capsys.readouterr()
    assert "execute() imported repro.metrics.tables" in captured.err
    assert "first imported inside execute(): repro.metrics.tables" in captured.out


def test_a_kinds_miscount_fails_the_tool(census, sparse_run, capsys, monkeypatch):
    events = sparse_run["events"]
    assert sum(sparse_run["kinds"].values()) == events
    run = {**sparse_run, "events": events + 1}
    monkeypatch.setattr(census, "census", lambda *args: report_of(run))
    assert census.main(["sparse-rural", "--smoke"]) == 1
    assert capsys.readouterr().err == (
        f"sparse-rural/multitier: kinds sum to {events}, "
        f"events_processed is {events + 1}\n"
    )
