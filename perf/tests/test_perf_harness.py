"""Self-tests of the benchmark harness (tier-1; a few seconds in all).

They pin the harness's *shape*, never a timing: every name in
``BENCHMARK.json`` is well formed and is emitted by the harness (and
nothing else is), the four workloads derive valid specs, the output
digest is a function of the seed, and the helpers that classify paths,
check invariants and compare two reports behave as documented.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf import probes, rep, run, trace, workloads, yardstick  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [metric["name"] for metric in BENCHMARK["end_to_end"]]
PER_LAYER = [metric["name"] for metric in BENCHMARK["per_layer"]]
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def quick_records():
    """One smoke-sized, in-process repetition of every workload."""
    return {name: rep.measure(name, 1, quick=True) for name in WORKLOADS}


def test_benchmark_names_are_well_formed_and_unique():
    names = WORKLOADS + END_TO_END + PER_LAYER
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert len(set(names)) == len(names)
    assert "setup_s" in END_TO_END
    assert all(0 < metric["bound"] <= 0.25 for metric in BENCHMARK["end_to_end"])


def test_benchmark_and_harness_name_the_same_workloads():
    assert set(WORKLOADS) == set(workloads.WORKLOADS)
    assert BENCHMARK["paths"] == ["perf"]


def test_derived_specs_validate_as_scenario_specs():
    from repro.scenarios import ScenarioSpec

    for name in WORKLOADS:
        for quick in (False, True):
            specs = workloads.derive(name, quick)
            assert specs and all(isinstance(spec, ScenarioSpec) for spec in specs)
            # Re-validates every field through __post_init__.
            assert all(spec.replace() == spec for spec in specs)


def test_quick_rep_produces_every_end_to_end_metric(quick_records):
    for name, record in quick_records.items():
        assert record["errors"] == [], name
        assert record["events"] > 0 and record["hops"] > 0, name
        result, _ = run.workload_result(name, [record], None, {}, BENCHMARK)
        assert result["failed"] == 0 and result["failed_frac"] == 0.0
        assert list(result["metrics"]) == END_TO_END
        for summary in result["metrics"].values():
            assert summary["n"] == 1 and summary["median"] > 0


def test_digest_is_a_function_of_the_seed(quick_records):
    first = quick_records["mega-forward"]
    again = rep.measure("mega-forward", 1, quick=True)
    other = rep.measure("mega-forward", 2, quick=True)
    assert again["digest"] == first["digest"]
    assert other["digest"] != first["digest"]
    # A repeat that disagrees, or a pinned digest that is not
    # reproduced, fails the repetition.
    drifted = dict(again, digest="0" * 64, errors=[])
    result, _ = run.workload_result("mega-forward", [first, drifted], None, {}, BENCHMARK)
    assert result["failed"] == 1
    pinned = {"mega-forward": {"1": "f" * 64}}
    fresh = dict(first, errors=[])
    result, _ = run.workload_result("mega-forward", [fresh], None, pinned, BENCHMARK)
    assert result["failed"] == 1


def test_harness_emits_exactly_the_per_layer_names(quick_records):
    traced = rep.measure("idle-roam", 1, quick=True, profile=True)
    assert traced["errors"] == []
    _, part = run.workload_result(
        "idle-roam", [quick_records["idle-roam"]], traced, {}, BENCHMARK
    )
    assert part["failed"] == 0  # traced and untraced digests agree
    emitted = set(part["layers"]) | set(probes.run_all(scale=0.01, rounds=1))
    assert emitted == set(PER_LAYER)
    shares = [part["layers"][f"{layer}.share"] for layer in trace.LAYERS]
    assert sum(shares) == pytest.approx(1.0)
    assert part["layers"]["traffic.calls"] == 0  # idle mobiles send no data


def test_layer_of_buckets_paths_by_owning_package():
    assert trace.layer_of(str(ROOT / "src/repro/net/link.py")) == "net"
    assert trace.layer_of("/elsewhere/site-packages/repro/sim/kernel.py") == "sim"
    assert trace.layer_of(str(ROOT / "src/repro/cli.py")) == "other"
    assert trace.layer_of(str(ROOT / "src/repro/shard/runner.py")) == "other"
    assert trace.layer_of(json.__file__) == "other"
    assert trace.layer_of("~") == "other"


def test_check_run_reports_broken_invariants():
    from repro.stacks import COMMON_METRICS

    good = dict.fromkeys(COMMON_METRICS, 1.0)
    assert rep.check_run("run", good, COMMON_METRICS) == []
    assert rep.check_run("run", dict(good, received=2.0), COMMON_METRICS)
    assert rep.check_run("run", dict(good, attached=2.0), COMMON_METRICS)
    assert rep.check_run("run", dict(good, jitter=float("nan")), COMMON_METRICS)


def test_event_counter_restores_the_simulator():
    from repro.sim import Simulator

    original = Simulator.__init__
    with rep.observed_simulators() as counter:
        for _ in range(2):
            sim = Simulator()
            sim.call_later(1.0, lambda: None)
            sim.run()
    assert counter.events == 2
    assert Simulator.__init__ is original


def test_yardstick_quotes_seconds_at_the_reference_speed():
    reference = yardstick.REFERENCE_S
    assert yardstick.at_reference_speed(2.0, reference, reference) == 2.0
    # A host running at half speed took twice as long over the same work.
    assert yardstick.at_reference_speed(4.0, 2 * reference, 2 * reference) == 2.0
    assert yardstick.reading(passes=1) > 0


def test_compare_row_applies_the_bound_and_flags_noise():
    metric = {"better": "lower", "bound": 0.10}

    def reps(*values):
        return run.summarise(list(values))

    base = reps(10.0, 10.1, 10.2)
    assert base["median"] == 10.1
    assert run.compare_row(base, reps(10.4, 10.5, 10.6), metric)[0] == "ok"
    assert run.compare_row(base, reps(11.8, 12.0, 12.2), metric)[0] == "regressed"
    assert run.compare_row(base, reps(8.0, 10.1, 14.0), metric)[0] == "unresolved"
    higher = {"better": "higher", "bound": 0.10}
    status, worsening = run.compare_row(base, reps(8.0, 8.1, 8.2), higher)
    assert status == "regressed" and worsening == pytest.approx(0.198, abs=0.001)


def test_command_line_prints_one_result_line():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf/run.py"), "--workload", "idle-roam",
         "--seed", "2", "--seconds", "0", "--trace", "0", "--quick"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] == 1 and line["failed"] == 0
    assert list(line["metrics"]) == END_TO_END
    assert all(set(value) == {"value", "unit"} for value in line["metrics"].values())
