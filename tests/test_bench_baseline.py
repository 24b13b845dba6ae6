"""Shape tests for the committed benchmark baseline (S3).

``benchmarks/BENCH_kernel.json`` is collected by
``tools/update_bench_baseline.py`` from the kernel-throughput and
per-stack scenario benches.  Timings are machine-dependent and NOT
pinned; these tests pin the *shape* — the file parses, carries the
schema, passes the tool's own ``--check`` validation, and covers every
kernel bench plus one per-stack entry for every registered protocol
stack (so registering a new stack without re-collecting the baseline
fails here, eagerly).
"""

import importlib.util
import json
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
BASELINE = REPO / "benchmarks" / "BENCH_kernel.json"


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "update_bench_baseline", REPO / "tools" / "update_bench_baseline.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_baseline_exists_and_passes_shape_check():
    tool = _load_tool()
    baseline = json.loads(BASELINE.read_text())
    assert tool.check(baseline) == []


def test_baseline_covers_kernel_and_every_stack():
    from repro.stacks import stack_names

    entries = json.loads(BASELINE.read_text())["entries"]
    for name in (
        "test_bench_kernel_event_throughput",
        "test_bench_kernel_callback_throughput",
        "test_bench_packet_forwarding_throughput",
    ):
        assert name in entries, f"kernel bench {name} missing from baseline"
    for stack in stack_names():
        key = f"test_bench_scenario_stack_smoke[{stack}]"
        assert key in entries, (
            f"stack {stack!r} has no baseline entry; re-run "
            f"tools/update_bench_baseline.py"
        )


def _report(name, mean):
    return {"benchmarks": [{"name": name, "stats": {"mean": mean}}]}


def _baseline_with(name, mean):
    tool = _load_tool()
    return {
        "schema": tool.SCHEMA,
        "entries": {
            name: {
                "file": "benchmarks/bench_x.py",
                "stats": {"min": mean, "max": mean, "mean": mean,
                          "stddev": 0.0, "rounds": 5},
            }
        },
    }


def test_compare_timings_passes_within_tolerance_band():
    tool = _load_tool()
    baseline = _baseline_with("bench_a", 0.010)
    assert tool.compare_timings(baseline, _report("bench_a", 0.012), 5.0) == []
    # right at the band edge is still fine; strictly beyond it is not
    assert tool.compare_timings(baseline, _report("bench_a", 0.050), 5.0) == []
    problems = tool.compare_timings(baseline, _report("bench_a", 0.051), 5.0)
    assert len(problems) == 1 and "exceeds baseline" in problems[0]


def test_compare_timings_reports_missing_baseline_entry():
    tool = _load_tool()
    baseline = _baseline_with("bench_a", 0.010)
    problems = tool.compare_timings(baseline, _report("bench_new", 0.001), 5.0)
    assert len(problems) == 1 and "no baseline entry" in problems[0]
    # benches only in the baseline are fine (CI may gate on a subset)
    assert tool.compare_timings(baseline, {"benchmarks": []}, 5.0) == []


def test_compare_timings_rejects_degenerate_tolerance():
    import pytest

    tool = _load_tool()
    with pytest.raises(ValueError, match="tolerance"):
        tool.compare_timings({"entries": {}}, {"benchmarks": []}, 1.0)


def test_check_cli_gates_on_report(tmp_path, capsys):
    """``--check --report`` wires compare_timings into the exit code."""
    tool = _load_tool()
    slow = {
        "benchmarks": [
            {"name": "test_bench_kernel_event_throughput",
             "stats": {"mean": 1e9}}
        ]
    }
    report = tmp_path / "report.json"
    report.write_text(json.dumps(slow))
    assert tool.main(["--check", "--report", str(report)]) == 1
    assert "exceeds baseline" in capsys.readouterr().err

    entries = json.loads(BASELINE.read_text())["entries"]
    name = "test_bench_kernel_event_throughput"
    ok = {"benchmarks": [
        {"name": name, "stats": {"mean": entries[name]["stats"]["mean"]}}
    ]}
    report.write_text(json.dumps(ok))
    assert tool.main(["--check", "--report", str(report)]) == 0


def test_merge_preserves_unrelated_entries():
    tool = _load_tool()
    baseline = {
        "schema": tool.SCHEMA,
        "entries": {"old_bench": {"file": "x.py", "stats": {}}},
    }
    collected = {
        "machine": "m",
        "datetime": "d",
        "entries": {"new_bench": {"file": "y.py", "stats": {}}},
    }
    merged = tool.merge(baseline, collected)
    assert set(merged["entries"]) == {"old_bench", "new_bench"}
    assert merged["schema"] == tool.SCHEMA


# ----------------------------------------------------------------------
# Trajectory: the persisted speed history across collections
# ----------------------------------------------------------------------
def test_baseline_trajectory_is_present_and_well_formed():
    """The committed file carries the speed history the ROADMAP
    promises: at least one point per collection, and the latest point's
    means match the latest entries (same collection run)."""
    baseline = json.loads(BASELINE.read_text())
    trajectory = baseline["trajectory"]
    assert isinstance(trajectory, list) and trajectory
    for point in trajectory:
        assert isinstance(point["datetime"], str)
        assert isinstance(point["means"], dict) and point["means"]
        for mean in point["means"].values():
            assert isinstance(mean, (int, float)) and mean == mean
    latest = trajectory[-1]
    for name, entry in baseline["entries"].items():
        assert latest["means"][name] == entry["stats"]["mean"]


def test_baseline_trajectory_records_kernel_speedup():
    """PR 9's kernel fast path: the latest trajectory point's kernel
    means must not regress past the first (pre-optimization) point.

    Compared with slack (2x) because both points were measured on
    whatever machine collected them — this pins 'the history shows no
    order-of-magnitude regression', not exact timings."""
    trajectory = json.loads(BASELINE.read_text())["trajectory"]
    assert len(trajectory) >= 2, "expected pre- and post-optimization points"
    first, latest = trajectory[0]["means"], trajectory[-1]["means"]
    for name in (
        "test_bench_kernel_event_throughput",
        "test_bench_packet_forwarding_throughput",
    ):
        assert latest[name] <= first[name] * 2.0, (
            f"{name}: trajectory shows a regression "
            f"({first[name]:.4f}s -> {latest[name]:.4f}s)"
        )


def test_check_flags_missing_or_malformed_trajectory():
    tool = _load_tool()
    baseline = json.loads(BASELINE.read_text())
    no_trajectory = {k: v for k, v in baseline.items() if k != "trajectory"}
    assert any("trajectory" in p for p in tool.check(no_trajectory))
    malformed = dict(baseline)
    malformed["trajectory"] = [{"datetime": "d", "means": {}}]
    assert any("means" in p for p in tool.check(malformed))
    bad_mean = dict(baseline)
    bad_mean["trajectory"] = [
        {"datetime": "d", "means": {"bench": float("nan")}}
    ]
    assert any("non-numeric" in p for p in tool.check(bad_mean))


def test_merge_appends_trajectory_and_migrates_schema1():
    """Merging over a pre-trajectory (schema 1) baseline keeps the old
    stats as the history's first point instead of dropping them."""
    tool = _load_tool()
    old = {
        "schema": 1,
        "datetime": "2026-01-01T00:00:00",
        "machine": "x86_64",
        "entries": {
            "bench_a": {
                "file": "x.py",
                "stats": {"min": 0.9, "max": 1.1, "mean": 1.0,
                          "stddev": 0.01, "rounds": 3},
            }
        },
    }
    collected = {
        "machine": "x86_64",
        "datetime": "2026-02-01T00:00:00",
        "entries": {
            "bench_a": {
                "file": "x.py",
                "stats": {"min": 0.4, "max": 0.6, "mean": 0.5,
                          "stddev": 0.01, "rounds": 3},
            }
        },
    }
    merged = tool.merge(old, collected, label="speedup")
    assert merged["schema"] == tool.SCHEMA
    assert [p["means"]["bench_a"] for p in merged["trajectory"]] == [1.0, 0.5]
    assert merged["trajectory"][0]["label"] == "pre-trajectory baseline"
    assert merged["trajectory"][1]["label"] == "speedup"
    # A second merge appends (no re-migration).
    again = tool.merge(merged, collected, label="again")
    assert len(again["trajectory"]) == 3
