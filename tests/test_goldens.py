"""Every golden in ``tools/goldens.py``'s table but ``results/fullsize``
(about 20 s) is what its command produces, each ``repro`` command runs
as one backend batch (one per experiment for the E-series), and the tool
shows a tree that is not what its command produces."""

import pathlib
import shutil
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))
try:
    import goldens
finally:
    sys.path.pop(0)


@pytest.mark.parametrize("tree", [t for t in goldens.GOLDENS if t != "results/fullsize"])
def test_golden_tree_is_what_its_command_produces(tree, tmp_path, monkeypatch, capsys):
    from repro.experiments.exec import SerialBackend

    batches, run = [], SerialBackend.run
    monkeypatch.setattr(
        SerialBackend, "run", lambda self, jobs: batches.append(len(jobs)) or run(self, jobs)
    )
    command = goldens.GOLDENS[tree]
    goldens.produce(command, tmp_path / "out", jobs=1)
    assert goldens.report(tree, tmp_path / "out", REPO_ROOT / tree), capsys.readouterr().out
    if command != goldens.EXAMPLES:
        assert len(batches) == (17 if tree == "results" else 1)


TREE = "results/scenarios_smoke"
RURAL, DENSE = "scenario_sparse-rural.txt", "scenario_campus-dense.txt"


@pytest.fixture
def committed(tmp_path, monkeypatch):
    """Two committed goldens as the whole table: a tree its command makes."""
    tree = tmp_path / TREE
    tree.mkdir(parents=True)
    for name in (RURAL, DENSE):
        shutil.copyfile(REPO_ROOT / TREE / name, tree / name)
    monkeypatch.setattr(goldens, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text('{"workloads": []}')
    monkeypatch.setattr(goldens, "GOLDENS", {TREE: [
        "scenario", "run", "sparse-rural", "campus-dense", "--smoke", "-o", goldens.OUT,
    ]})
    return tree


def test_check_prints_the_line_a_flipped_number_moved(committed, capsys):
    text = (committed / RURAL).read_text()
    (committed / RURAL).write_text(text.replace("sent        454", "sent        455"))
    assert goldens.main(["check"]) == 1
    out = capsys.readouterr().out
    assert f"--- {TREE}/{RURAL} (committed)\n" in out
    assert "\n-                sent        455                0\n" in out
    assert "\n+                sent        454                0\n" in out
    assert DENSE not in out


def test_check_names_extra_and_missing_files_and_write_mends_them(committed, capsys):
    (committed / DENSE).unlink()
    (committed / "scenario_gone.txt").write_text("gone\n")
    assert goldens.main(["check"]) == 1
    out = capsys.readouterr().out
    assert f"extra: {TREE}/{DENSE} was produced but is not committed" in out
    assert f"missing: {TREE}/scenario_gone.txt is committed but was not produced" in out

    assert goldens.main(["write"]) == 0
    assert f"{TREE}: 0 changed, 1 added, 1 removed" in capsys.readouterr().out
    assert sorted(path.name for path in committed.iterdir()) == [DENSE, RURAL]
    assert goldens.main(["check"]) == 0
    assert capsys.readouterr().out == f"{TREE}: same\n"


def test_a_png_stands_in_for_its_ascii_figure_and_is_never_compared(tmp_path):
    produced, committed = tmp_path / "produced", tmp_path / "committed"
    produced.mkdir()
    committed.mkdir()
    (produced / "sweep_a.png").write_bytes(b"\x89PNG")
    (committed / "sweep_a.figure.txt").write_text("ascii figure\n")
    assert goldens.differences(produced, committed) == ([], [], [])
    (produced / "sweep_a.png").unlink()
    assert goldens.differences(produced, committed) == ([], [], ["sweep_a.figure.txt"])


def test_a_pool_check_runs_only_what_reads_jobs(committed, monkeypatch, capsys):
    monkeypatch.setitem(goldens.GOLDENS, "results/examples", goldens.EXAMPLES)
    (committed.parent.parent / "BENCHMARK.json").write_text(
        '{"workloads": [{"name": "never-run"}]}'
    )
    assert goldens.main(["check", "--jobs", "2"]) == 0
    assert capsys.readouterr().out == (
        f"{TREE}: same\nresults/examples: not run, it reads no --jobs\n"
    )
