"""``tools/alloc_census.py`` on one smoke scenario: every ``repro``
object built during a run is counted once, under its own class, the
count repeats, and generated constructors are told apart."""

import json
import pathlib
import sys

import pytest

from repro.net.node import Node
from repro.net.packet import Packet
from repro.radio.geometry import Point
from repro.scenarios import get_scenario

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def alloc_census():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import alloc_census as module
    finally:
        sys.path.pop(0)
    return module


def test_each_object_is_counted_once_and_two_runs_agree(alloc_census):
    spec = get_scenario("campus-dense").smoke().replace(stack="cellularip")
    constructors = Packet.__init__, Node.__init__, Point.__init__
    first = alloc_census.census_of(spec, spec.seeds[0])
    assert (Packet.__init__, Node.__init__, Point.__init__) == constructors
    assert first == alloc_census.census_of(spec, spec.seeds[0])
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


def test_cli_prints_tables_or_json_for_every_stack(alloc_census, capsys):
    argv = ["sparse-rural", "--smoke", "--stack", "all", "--seed", "3"]
    assert alloc_census.main(argv) == 0
    tables = capsys.readouterr().out
    assert alloc_census.main(argv + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    runs = [label for label in report if label != "all runs"]
    assert len(runs) > 1 and all(f"{label}: " in tables for label in report)
    lot = report["all runs"]
    assert lot["events"] == sum(report[run]["events"] for run in runs)
    assert lot["classes"]["repro.net.packet.Packet"] == sum(
        report[run]["classes"]["repro.net.packet.Packet"] for run in runs
    )
    assert "  * repro.radio.geometry.Point" in tables
    assert "    repro.net.packet.Packet" in tables
