"""Tests for campaigns (`repro.campaign`).

Pins the campaign layer's load-bearing guarantees:

* manifest expansion is deterministic and unique; duplicate grid cells
  and unknown names fail eagerly;
* ``run_campaign`` writes ``manifest.json`` and ``results.json`` only
  after every job has returned — a failed job leaves no campaign, and
  an existing campaign directory is refused before anything runs;
* the store is byte-identical serial and ``--jobs 2``;
* every ``load_store`` integrity gate fires in one line with the file
  and item named;
* store re-aggregation equals a live replication of the same grid;
* the CLI verbs (``run``/``show``/``diff``) wire through with the
  documented exit codes (2 campaign error, 3 strict regression).
"""

import json
import multiprocessing

import pytest

from repro.campaign import (
    CampaignError,
    WorkItem,
    build_manifest,
    load_store,
    run_campaign,
    spec_fingerprint,
    store_replications,
    store_stack_comparisons,
)
from repro.cli import main
from repro.experiments.exec import ProcessPoolBackend, SerialBackend
from repro.scenarios import (
    compare_scenario_stacks,
    expand_grid,
    format_stack_comparison,
    get_scenario,
    run_grid,
    run_scenario_spec,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="platform lacks fork")

SCENARIO = "sparse-rural"  # the fastest smoke scenario in the catalog


def _campaign(tmp_path, sub="camp", backend=None, **kwargs):
    """Run a smoke campaign of ``SCENARIO`` into ``tmp_path / sub``."""
    kwargs.setdefault("scenarios", [SCENARIO])
    manifest = build_manifest("testcamp", smoke=True, **kwargs)
    run_campaign(tmp_path / sub, manifest, backend)
    return tmp_path / sub, manifest


# ----------------------------------------------------------------------
# Manifest expansion
# ----------------------------------------------------------------------
def test_build_manifest_is_deterministic_and_unique():
    knobs = dict(
        scenarios=["sparse-rural", "campus-dense"],
        sweeps=["sparse-rural/population"],
        stacks=["multitier", "cellularip"],
        seeds=[1, 2],
        smoke=True,
    )
    a = build_manifest("grid", **knobs)
    b = build_manifest("grid", **knobs)
    assert a == b
    assert a.digest() == b.digest()
    ids = [item.item_id for item in a.items]
    assert len(ids) == len(set(ids))
    # scenario-major then sweep-major expansion, 2 scenarios x 2 stacks
    # x 2 seeds + 1 sweep x 2 stacks x points x 2 seeds
    assert ids[0] == "sparse-rural--multitier--s1"
    assert any(item.sweep == "sparse-rural/population" for item in a.items)
    assert len(a.items) == sum(len(cell.seeds) for cell in a.cells)


def test_build_manifest_rejects_duplicates_and_empties():
    with pytest.raises(CampaignError, match="duplicate work item"):
        build_manifest("dup", scenarios=[SCENARIO, SCENARIO], smoke=True)
    with pytest.raises(CampaignError, match="at least one"):
        build_manifest("empty")
    with pytest.raises(KeyError, match="registered"):
        build_manifest("bad", scenarios=[SCENARIO], stacks=["hawaii"])


def test_build_manifest_rejects_a_non_integer_seed():
    """A float seed is refused, not truncated to another seed's run."""
    knobs = dict(scenarios=["campus-dense"], stacks=["multitier"], smoke=True)
    with pytest.raises(ValueError, match="integers") as error:
        build_manifest("x", seeds=[1.7], **knobs)
    assert "\n" not in str(error.value)
    import numpy as np

    manifest = build_manifest("x", seeds=(s for s in [np.int64(2)]), **knobs)
    assert manifest.seeds == (2,) and type(manifest.seeds[0]) is int
    assert [item.seed for item in manifest.items] == [2]


def test_manifest_json_round_trip_is_exact():
    """Every manifest item survives JSON; the digest is over the JSON
    payload, so it is unchanged by a round trip."""
    manifest = build_manifest(
        "rt", scenarios=[SCENARIO], sweeps=["sparse-rural/population"],
        stacks=["multitier"], seeds=[3, 5], smoke=True,
    )
    payload = json.loads(json.dumps(manifest.to_json()))
    assert payload == manifest.to_json()
    assert tuple(WorkItem.from_json(entry) for entry in payload["items"]) == (
        manifest.items
    )
    assert [entry["fingerprint"] for entry in payload["items"]] == list(
        manifest.fingerprints
    )


def test_work_item_ids_are_filesystem_safe():
    item = WorkItem(
        scenario="sparse-rural", stack="multitier", seed=7,
        sweep="sparse-rural/population", sweep_value=24.0,
    )
    assert "/" not in item.item_id
    assert WorkItem.from_json(item.to_json()) == item
    assert item.group == "sparse-rural/population@24 [multitier]"


def test_campaign_new_refuses_existing_directory(tmp_path):
    """A second run into the same directory is refused before any job
    runs, and the first run's files are untouched."""
    directory, manifest = _campaign(tmp_path)
    before = (directory / "results.json").read_bytes()

    class _Refuse(SerialBackend):
        def run(self, jobs):
            raise AssertionError("a job ran")

    with pytest.raises(CampaignError, match="never\\s+overwrites"):
        run_campaign(directory, manifest, _Refuse())
    assert (directory / "results.json").read_bytes() == before


# ----------------------------------------------------------------------
# One pass: nothing half-written, byte-identical on any backend
# ----------------------------------------------------------------------
def test_failed_job_leaves_no_campaign(tmp_path, monkeypatch):
    """If any job raises, the exception propagates and the directory
    holds neither ``manifest.json`` nor ``results.json``."""
    import repro.campaign.store as store_module

    def run_or_fail(spec, seed):
        if seed == 2:
            raise RuntimeError("seed 2 failed")
        return run_scenario_spec(spec, seed)

    monkeypatch.setattr(store_module, "run_scenario_spec", run_or_fail)
    with pytest.raises(RuntimeError, match="seed 2 failed"):
        _campaign(tmp_path, seeds=[1, 2, 3])
    assert not (tmp_path / "camp" / "manifest.json").exists()
    assert not (tmp_path / "camp" / "results.json").exists()


def test_record_round_trip_is_byte_exact(tmp_path):
    """A store record holds the item, its fingerprint and its metrics
    as plain floats; the same grid run again writes identical bytes."""
    directory, manifest = _campaign(tmp_path)
    (record,) = load_store(directory)["records"]
    item = manifest.items[0]
    spec = manifest.cells[0].spec
    metrics = run_scenario_spec(spec, item.seed)
    assert record["item"] == item.to_json()
    assert record["metrics"] == {k: float(v) for k, v in metrics.items()}
    assert record["fingerprint"] == spec_fingerprint(spec)
    again, _manifest = _campaign(tmp_path, "again")
    for name in ("manifest.json", "results.json"):
        assert (again / name).read_bytes() == (directory / name).read_bytes()


@needs_fork
def test_pool_run_matches_serial_store(tmp_path):
    serial, _manifest = _campaign(tmp_path, "serial", seeds=[1, 2, 3])
    pooled, _manifest = _campaign(
        tmp_path, "pooled", ProcessPoolBackend(jobs=2), seeds=[1, 2, 3]
    )
    for name in ("manifest.json", "results.json"):
        assert (pooled / name).read_bytes() == (serial / name).read_bytes()


# ----------------------------------------------------------------------
# load_store integrity gates
# ----------------------------------------------------------------------
def _duplicate_record(records):
    records.append(records[0])


def _item_without_seed(records):
    del records[0]["item"]["seed"]


def _non_numeric_metric(records):
    records[0]["metrics"]["loss_rate"] = "x"


def test_load_store_integrity_gates(tmp_path, capsys):
    """Each defect fails ``load_store`` in one line naming the file
    (and the item, where there is one), and ``campaign show`` exits 2
    with that line instead of a traceback."""
    with pytest.raises(CampaignError, match="no results store"):
        load_store(tmp_path / "missing")
    directory, _manifest = _campaign(tmp_path)
    assert load_store(directory)["schema"] == 1  # accepts the directory
    path = directory / "results.json"
    pristine = path.read_text()
    item_id = json.loads(pristine)["records"][0]["item_id"]
    cases = [
        (_duplicate_record, "duplicate item id"),
        (lambda records: records.clear(), "no records"),
        (_item_without_seed, "has no item with scenario, stack and seed"),
        (_non_numeric_metric, "metric 'loss_rate' is not a number: 'x'"),
    ]
    for corrupt, message in cases:
        store = json.loads(pristine)
        corrupt(store["records"])
        path.write_text(json.dumps(store))
        with pytest.raises(CampaignError, match=message) as error:
            load_store(path)
        assert str(path) in str(error.value) and "\n" not in str(error.value)
        if store["records"]:
            assert repr(item_id) in str(error.value)
        capsys.readouterr()
        assert main(["campaign", "show", str(directory)]) == 2
        assert capsys.readouterr().err.count("\n") == 1


def test_corrupt_record_fails_with_file_named(tmp_path):
    directory, _manifest = _campaign(tmp_path)
    (directory / "results.json").write_text("{not json")
    with pytest.raises(CampaignError, match="not valid JSON") as error:
        load_store(directory)
    assert str(directory / "results.json") in str(error.value)


# ----------------------------------------------------------------------
# Store re-aggregation == live replication
# ----------------------------------------------------------------------
def test_store_replications_match_live_aggregate(tmp_path):
    directory, _manifest = _campaign(tmp_path, seeds=[1, 2, 3])
    groups = store_replications(load_store(directory))
    seeds, replication = groups[f"{SCENARIO} [multitier]"]
    assert seeds == [1, 2, 3]
    spec = get_scenario(SCENARIO).smoke()
    (live,) = run_grid(
        expand_grid([spec], seeds=[1, 2, 3]), backend=SerialBackend()
    )
    assert replication == live


def test_store_stack_comparison_renders_byte_identical_to_live(tmp_path):
    directory, _manifest = _campaign(
        tmp_path, stacks=["multitier", "cellularip", "mobileip"]
    )
    (rebuilt,) = store_stack_comparisons(load_store(directory))
    live = compare_scenario_stacks(
        [get_scenario(SCENARIO).smoke()],
        stacks=["multitier", "cellularip", "mobileip"],
        backend=SerialBackend(),
    )[0]
    assert format_stack_comparison(rebuilt) == format_stack_comparison(live)


# ----------------------------------------------------------------------
# CLI verbs
# ----------------------------------------------------------------------
def test_cli_run_show_diff_happy_path(tmp_path, capsys):
    camp = tmp_path / "cli-camp"
    assert main([
        "campaign", "run", str(camp), "--scenarios", SCENARIO,
        "--stacks", "multitier", "mobileip", "--smoke", "--seeds", "1", "2",
        "--name", "clicamp", "--jobs", "1",
    ]) == 0
    assert "'clicamp': 4 item(s) run" in capsys.readouterr().out
    assert sorted(path.name for path in camp.iterdir()) == [
        "manifest.json", "results.json",
    ]

    assert main(["campaign", "show", str(camp)]) == 0
    (comparison,) = store_stack_comparisons(load_store(camp))
    assert capsys.readouterr().out == format_stack_comparison(comparison) + "\n"

    assert main(["campaign", "diff", str(camp), str(camp), "--strict"]) == 0
    assert "no regressions" in capsys.readouterr().out


def test_cli_resume_is_run_again(tmp_path, capsys, monkeypatch):
    """There is no resume: after a run that failed, the same command
    run again is the recovery, and a finished directory is refused."""
    import repro.campaign.store as store_module

    camp = tmp_path / "rerun-camp"
    argv = [
        "campaign", "run", str(camp), "--scenarios", SCENARIO, "--smoke",
        "--seeds", "1", "2", "--name", "rerun",
    ]

    def fail(spec, seed):
        raise RuntimeError("worker died")

    with monkeypatch.context() as patch:
        patch.setattr(store_module, "run_scenario_spec", fail)
        with pytest.raises(RuntimeError, match="worker died"):
            main(argv)
    assert not (camp / "manifest.json").exists()
    assert main(argv) == 0
    assert "results store written" in capsys.readouterr().out
    assert main(argv) == 2
    assert "never overwrites" in capsys.readouterr().err


def test_cli_rejects_unknown_names_with_exit_2(tmp_path, capsys):
    camp = tmp_path / "bad-camp"
    assert main([
        "campaign", "run", str(camp), "--scenarios", "atlantis",
    ]) == 2
    assert main([
        "campaign", "run", str(camp), "--scenarios", SCENARIO,
        "--stacks", "hawaii",
    ]) == 2
    assert main(["campaign", "run", str(camp)]) == 2
    assert not camp.exists()  # failed before touching the filesystem
    assert main(["campaign", "show", str(camp)]) == 2
    err = capsys.readouterr().err
    assert "at least one scenario or sweep" in err
    assert "no results store" in err


def test_cli_diff_strict_exits_3_on_regression(tmp_path, capsys):
    """A seeded single-metric regression (zero-width CIs at one seed)
    must flip ``--strict`` to exit 3."""
    knobs = ["--scenarios", SCENARIO, "--smoke", "--seeds", "1", "--name", "n"]
    camp_a = tmp_path / "a"
    camp_b = tmp_path / "b"
    assert main(["campaign", "run", str(camp_a), *knobs]) == 0
    assert main(["campaign", "run", str(camp_b), *knobs]) == 0
    capsys.readouterr()

    store = json.loads((camp_b / "results.json").read_text())
    record = store["records"][0]
    record["metrics"]["loss_rate"] = record["metrics"]["loss_rate"] + 0.5
    (camp_b / "results.json").write_text(json.dumps(store))

    assert main([
        "campaign", "diff", str(camp_a), str(camp_b), "--strict",
    ]) == 3
    out = capsys.readouterr().out
    assert "1 regressed" in out and "loss_rate" in out


def test_cli_diff_refuses_smoke_against_full_size(tmp_path, capsys):
    """Every metric of a smoke run differs from a full-size one by
    construction; the diff is refused with exit 2, not a wall of
    regressions."""
    camp = tmp_path / "smoke"
    assert main([
        "campaign", "run", str(camp), "--scenarios", SCENARIO, "--smoke",
        "--seeds", "1",
    ]) == 0
    store = json.loads((camp / "results.json").read_text())
    store["smoke"] = False
    full = tmp_path / "full.json"
    full.write_text(json.dumps(store))
    capsys.readouterr()
    assert main(["campaign", "diff", str(camp), str(full), "--strict"]) == 2
    assert "smoke" in capsys.readouterr().err
