"""``tools/lifecycle_census.py`` on one smoke scenario: what a clean
child imports is attributed to packages, the collector is seen resting
while a world executes, and an import inside ``execute()`` fails the
run of the tool."""

import gc
import json
import pathlib
import sys

import pytest

from repro.scenarios import get_scenario

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def lifecycle_census():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import lifecycle_census as module
    finally:
        sys.path.pop(0)
    return module


def test_module_names_map_to_report_rows(lifecycle_census):
    rows = {
        "repro": "repro",
        "repro.cli": "repro.cli",
        "repro.stacks.cellularip": "repro.stacks",
        "numpy.linalg._linalg": "numpy",
        "json.decoder": "other",
    }
    assert {name: lifecycle_census.package_of(name) for name in rows} == rows


def test_modules_come_from_the_child_and_microseconds_from_importtime(lifecycle_census):
    importtime = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   repro.sim.kernel",
        "import time:       300 |        400 | repro.sim",
        "import time:        50 |         50 | repro.sim.kernel",  # from-import, again
        "import time:      9000 |       9000 | numpy",
    ])
    loaded = ["numpy", "repro.sim", "repro.sim.kernel", "repro.stacks.mobileip", "sys"]
    packages, untimed = lifecycle_census.packages_of(importtime, loaded)
    assert packages == {
        "numpy": {"modules": 1, "import_us": 9000},
        "repro.sim": {"modules": 2, "import_us": 450},
        "other": {"modules": 1, "import_us": 0},
        "repro.stacks": {"modules": 1, "import_us": 0},
    }
    assert list(packages) == ["numpy", "repro.sim", "other", "repro.stacks"]
    assert untimed == ["repro.stacks.mobileip"]


def test_collector_rests_during_execute_and_the_watch_is_removed(lifecycle_census):
    spec = get_scenario("commuter-corridor").smoke()
    callbacks = list(gc.callbacks)
    record = lifecycle_census.census_of(spec, spec.seeds[0])
    assert gc.callbacks == callbacks
    assert record["events"] > 20_000
    assert [row["passes"] for row in record["during_execute"].values()] == [0, 0, 0]
    assert record["unreachable_after"] < 5_000


def test_a_batch_tears_its_worlds_down_over_a_frozen_heap(lifecycle_census):
    """A lone run's teardown walks the whole heap (here: the test
    session's); in a batch it walks what the batch made."""
    spec = get_scenario("sparse-rural").smoke()
    runs = [(stack, spec.replace(stack=stack)) for stack in ("multitier", "mobileip")]
    alone = lifecycle_census.census_of_runs(runs[:1], 1)["multitier"]["teardown"]
    batch = lifecycle_census.census_of_runs(runs, 1)
    assert gc.get_freeze_count() == 0
    for label, record in batch.items():
        assert 0 < record["teardown"]["walked"] < alone["walked"] // 4, label


def test_a_pass_is_placed_by_the_stack_it_interrupts(lifecycle_census):
    def run():
        gc.collect()

    # Only the three explicit passes: an allocation-triggered one would
    # land in either tally.
    collecting = gc.isenabled()
    gc.disable()
    try:
        with lifecycle_census.watching_collector(run.__code__) as (during, outside):
            run()
            gc.collect(0)
            gc.collect(0)
    finally:
        if collecting:
            gc.enable()
    assert [during[generation][0] for generation in range(3)] == [0, 0, 1]
    assert outside[0] == 2


def test_cli_reports_a_single_stack_run_without_the_other_stacks(
    lifecycle_census, capsys
):
    argv = ["sparse-rural", "--smoke", "--seed", "3"]
    assert lifecycle_census.main(argv + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    packages = report["packages"]
    assert packages["repro.multitier"]["modules"] > 0
    assert packages["numpy"]["import_us"] > 0
    assert not {"repro.cellularip", "repro.experiments", "repro.metrics"} & set(packages)
    assert report["untimed"] == []
    (label, run), = report["runs"].items()
    assert label == "sparse-rural/multitier"
    assert run["imported_inside_execute"] == [] and run["events"] > 1_000


def test_an_import_inside_execute_fails_the_tool(lifecycle_census, capsys, monkeypatch):
    spec = get_scenario("sparse-rural").smoke()
    run = lifecycle_census.census_of(spec, spec.seeds[0])
    assert run["imported_inside_execute"] == []
    run["imported_inside_execute"] = ["repro.metrics.tables"]
    late = {
        "packages": {"repro.stacks": {"modules": 1, "import_us": 7}},
        "untimed": [],
        "runs": {"sparse-rural/multitier": run},
    }
    monkeypatch.setattr(lifecycle_census, "census", lambda *args: late)
    assert lifecycle_census.main(["sparse-rural", "--smoke"]) == 1
    captured = capsys.readouterr()
    assert "execute() imported repro.metrics.tables" in captured.err
    assert "first imported inside execute(): repro.metrics.tables" in captured.out
