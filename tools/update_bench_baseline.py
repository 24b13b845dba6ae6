"""Collect kernel/stack benchmark timings into ``benchmarks/BENCH_kernel.json``.

The committed baseline gives bench history a fixed reference point: it
records, per benchmark, the timing stats of the last collection run
plus enough shape metadata (rounds, parametrization) that a regression
check can tell "the bench changed" from "the machine changed".

Usage::

    PYTHONPATH=src python tools/update_bench_baseline.py            # collect + merge
    PYTHONPATH=src python tools/update_bench_baseline.py --check    # shape check only
    PYTHONPATH=src python tools/update_bench_baseline.py --check \
        --report bench.json --tolerance 5    # CI bench regression gate

Collect mode runs the kernel-throughput and per-stack scenario benches
under ``pytest-benchmark --benchmark-json``, reduces each benchmark to
a small stats record and **merges** it into the baseline: entries for
benchmarks that ran are replaced, entries for benchmarks that did not
run (e.g. collecting on a subset) are preserved, and the result is
written with sorted keys so diffs stay minimal.  Every collection also
appends a **trajectory point** (per-bench means, datetime, optional
``--label``) to the file's ``trajectory`` list, so the speed history
across PRs stays readable instead of being overwritten.  ``--check``
validates the committed file's shape without running anything (used by
the test suite): it must parse, carry the schema version, every entry
must have the numeric stats fields, and the trajectory must be a
non-empty list of well-formed points.

Timings are machine-dependent by nature; the baseline records them for
trend reading, while the *shape* (which benchmarks exist, how they are
parametrized) is the part tests pin.  The CI gate therefore compares
within a generous *tolerance band*: ``--check --report <json>`` fails
only when a fresh pytest-benchmark report's mean exceeds the baseline
mean by more than ``--tolerance``x (catching order-of-magnitude
slowdowns, not machine jitter), and when a reported bench has no
baseline entry at all (a new bench must be collected into the
baseline before it can be gated).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
BASELINE = REPO / "benchmarks" / "BENCH_kernel.json"

#: The bench files collected into the baseline.
BENCH_FILES = (
    "benchmarks/bench_kernel_throughput.py",
    "benchmarks/bench_scenario_stacks.py",
)

SCHEMA = 2

#: Per-benchmark stats copied from the pytest-benchmark report.
_STAT_FIELDS = ("min", "max", "mean", "stddev", "rounds")


def trajectory_point(collected: dict, label: str = "") -> dict:
    """Reduce one collection to a trajectory point: name -> mean.

    The trajectory is the baseline's history dimension — one point per
    collection run, so speedups (and regressions) across PRs stay
    readable in the committed file instead of being overwritten by the
    latest merge.  Means only: the full stats of the *latest* run live
    in ``entries``.
    """
    means = {}
    for name, entry in sorted(collected["entries"].items()):
        mean = entry.get("stats", {}).get("mean")
        if isinstance(mean, (int, float)):
            means[name] = mean
    return {
        "datetime": collected.get("datetime", ""),
        "machine": collected.get("machine", ""),
        "label": label,
        "means": means,
    }


def collect(files=BENCH_FILES) -> dict:
    """Run ``files`` under pytest-benchmark and reduce the JSON report."""
    with tempfile.TemporaryDirectory() as tmp:
        report_path = pathlib.Path(tmp) / "bench.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "pytest", "-q", *files,
                f"--benchmark-json={report_path}",
            ],
            cwd=REPO,
            env={**__import__("os").environ, "PYTHONPATH": "src"},
        )
        if proc.returncode != 0:
            raise SystemExit(f"bench run failed (exit {proc.returncode})")
        report = json.loads(report_path.read_text())
    entries = {}
    for bench in report["benchmarks"]:
        stats = {field: bench["stats"][field] for field in _STAT_FIELDS}
        entries[bench["name"]] = {
            "file": bench["fullname"].split("::")[0],
            "group": bench.get("group"),
            "params": bench.get("params"),
            "stats": stats,
        }
    return {
        "machine": report.get("machine_info", {}).get("machine", ""),
        "datetime": report.get("datetime", ""),
        "entries": entries,
    }


def merge(baseline: dict, collected: dict, label: str = "") -> dict:
    """New collection overrides matching entries, preserves the rest.

    Also **appends** a trajectory point for the collection (see
    :func:`trajectory_point`).  A pre-trajectory baseline (schema 1)
    is migrated, not discarded: its committed stats become the
    trajectory's first point so the history starts at the old numbers.
    """
    entries = dict(baseline.get("entries", {}))
    entries.update(collected["entries"])
    trajectory = list(baseline.get("trajectory", []))
    if not trajectory and baseline.get("entries"):
        trajectory.append(
            trajectory_point(baseline, label="pre-trajectory baseline")
        )
    trajectory.append(trajectory_point(collected, label))
    return {
        "schema": SCHEMA,
        "machine": collected["machine"],
        "datetime": collected["datetime"],
        "entries": entries,
        "trajectory": trajectory,
    }


def load_baseline(path: pathlib.Path = BASELINE) -> dict:
    if path.exists():
        return json.loads(path.read_text())
    return {"schema": SCHEMA, "entries": {}}


def check(baseline: dict) -> list[str]:
    """Shape-validate a baseline dict; returns a list of problems."""
    problems = []
    if baseline.get("schema") != SCHEMA:
        problems.append(f"schema must be {SCHEMA}, got {baseline.get('schema')!r}")
    entries = baseline.get("entries")
    if not isinstance(entries, dict) or not entries:
        problems.append("entries must be a non-empty mapping")
        return problems
    for name, entry in entries.items():
        stats = entry.get("stats", {})
        for field in _STAT_FIELDS:
            value = stats.get(field)
            if not isinstance(value, (int, float)) or value != value:
                problems.append(f"{name}: stats.{field} missing or non-numeric")
        if not isinstance(entry.get("file"), str) or not entry["file"]:
            problems.append(f"{name}: missing source file")
    trajectory = baseline.get("trajectory")
    if not isinstance(trajectory, list) or not trajectory:
        problems.append(
            "trajectory must be a non-empty list (collect at least once)"
        )
    else:
        for position, point in enumerate(trajectory):
            if not isinstance(point, dict):
                problems.append(f"trajectory[{position}]: not a mapping")
                continue
            if not isinstance(point.get("datetime"), str):
                problems.append(f"trajectory[{position}]: missing datetime")
            means = point.get("means")
            if not isinstance(means, dict) or not means:
                problems.append(
                    f"trajectory[{position}]: means must be a non-empty mapping"
                )
                continue
            for name, mean in means.items():
                if not isinstance(mean, (int, float)) or mean != mean:
                    problems.append(
                        f"trajectory[{position}]: mean for {name} non-numeric"
                    )
    return problems


def compare_timings(baseline: dict, report: dict, tolerance: float) -> list[str]:
    """Tolerance-band timing comparison; returns a list of problems.

    ``report`` is a raw pytest-benchmark JSON report.  A benchmark
    regresses when its fresh mean exceeds ``tolerance`` times its
    baseline mean; a reported benchmark missing from the baseline is a
    problem too (collect it first).  Benchmarks only in the baseline
    are fine — CI may gate on a subset.  Pure function, no I/O.
    """
    if tolerance <= 1:
        raise ValueError(f"tolerance must be > 1, got {tolerance}")
    entries = baseline.get("entries", {})
    problems = []
    for bench in report.get("benchmarks", []):
        name = bench["name"]
        entry = entries.get(name)
        if entry is None:
            problems.append(
                f"{name}: no baseline entry; run "
                f"tools/update_bench_baseline.py to collect it"
            )
            continue
        base_mean = entry["stats"]["mean"]
        fresh_mean = bench["stats"]["mean"]
        if base_mean > 0 and fresh_mean > base_mean * tolerance:
            problems.append(
                f"{name}: mean {fresh_mean:.6f}s exceeds baseline "
                f"{base_mean:.6f}s by more than {tolerance:g}x "
                f"({fresh_mean / base_mean:.1f}x)"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="validate the committed baseline's shape without running benches",
    )
    parser.add_argument(
        "--report", type=pathlib.Path, default=None,
        help="with --check: a fresh pytest-benchmark JSON report to gate "
             "against the baseline within the tolerance band",
    )
    parser.add_argument(
        "--tolerance", type=float, default=5.0,
        help="with --check --report: fail when a fresh mean exceeds the "
             "baseline mean by more than this factor (default: 5)",
    )
    parser.add_argument(
        "--label", default="",
        help="free-text label recorded on the new trajectory point "
             "(collect mode only), e.g. the PR or change being measured",
    )
    args = parser.parse_args(argv)
    if args.report is not None and not args.check:
        parser.error("--report only makes sense with --check")
    if args.check:
        baseline = load_baseline()
        problems = check(baseline)
        if args.report is not None and not problems:
            report = json.loads(args.report.read_text())
            problems = compare_timings(baseline, report, args.tolerance)
            compared = len(report.get("benchmarks", []))
            print(
                f"bench gate: {compared} benchmark(s) vs baseline at "
                f"{args.tolerance:g}x tolerance"
            )
        for problem in problems:
            print(f"BENCH_kernel.json: {problem}", file=sys.stderr)
        print(
            f"BENCH_kernel.json: "
            f"{len(baseline.get('entries', {}))} entries, "
            f"{'OK' if not problems else f'{len(problems)} problem(s)'}"
        )
        return 1 if problems else 0
    merged = merge(load_baseline(), collect(), label=args.label)
    BASELINE.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    print(
        f"wrote {BASELINE.relative_to(REPO)} "
        f"({len(merged['entries'])} entries, "
        f"{len(merged['trajectory'])} trajectory point(s))"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
