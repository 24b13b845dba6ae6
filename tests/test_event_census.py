"""``tools/event_census.py`` on one smoke scenario: every dispatched
kernel entry is counted once, under a kind, and the count repeats."""

import json
import pathlib
import sys

import pytest

from repro.scenarios import get_scenario
from repro.sim import Simulator, kernel

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


def test_cli_prints_tables_or_json_for_every_stack(event_census, capsys):
    argv = ["sparse-rural", "--smoke", "--stack", "all", "--seed", "3"]
    assert event_census.main(argv) == 0
    tables = capsys.readouterr().out
    assert event_census.main(argv + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    runs = [label for label in report if label != "all runs"]
    assert len(runs) > 1 and all(f"{label}: " in tables for label in report)
    assert report["all runs"]["events"] == sum(report[run]["events"] for run in runs)
    assert event_census.main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == report
