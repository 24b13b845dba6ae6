"""The repo benchmark harness: one command, every metric by name.

    python3 perf/run.py                       the whole suite (all workloads)
    python3 perf/run.py --workload NAME ...   one workload, one result line
    python3 perf/run.py --compare A.json B.json

Closed loop, one client: every repetition is a fresh child process
(``perf/rep.py``) that imports, derives its spec, builds, executes and
checks; children run one at a time, round-robin across the workloads so
machine drift lands on all of them equally.  End-to-end metrics come
from untraced repetitions only; per-layer metrics from one separate
traced repetition per workload plus the layer probes.  Host seconds
are quoted at the reference speed of ``perf/yardstick.py``.  Metric
names, units and regression bounds are read from ``BENCHMARK.json``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # See perf/rep.py: import ``perf`` as a package from the checkout root.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import time

from perf.workloads import SEED_CYCLE, WORKLOADS, scenario_seed

PERF = ROOT / "perf"
OUT = PERF / "out"
#: A traced repetition runs under cProfile; allow it this many times the
#: untraced limit before it counts as hung.
TRACE_SLOWDOWN = 6


def load_benchmark() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(script: str, args: list[str], timeout: float) -> dict:
    """Run one harness child to completion; return its last-line JSON.

    Never raises for a misbehaving child: a crash, a hang (killed at
    ``timeout``) or unparsable output comes back as ``{"errors": [..]}``
    so it is counted as a failed repetition, not lost.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [sys.executable, str(PERF / script), *args]
    try:
        done = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"errors": [f"{script} {' '.join(args)}: no result in {timeout:.0f} s"]}
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"errors": [f"{script} {' '.join(args)}: exit {done.returncode}: {tail[0]}"]}
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"errors": [f"{script} {' '.join(args)}: no JSON on the last line"]}


def run_rep(name: str, seed: int, quick: bool, profile: bool = False) -> dict:
    """One repetition of ``name`` at scenario seed ``seed``, in a child."""
    limit = 10.0 * WORKLOADS[name].baseline_wall_s * (TRACE_SLOWDOWN if profile else 1)
    args = [name, str(seed)] + ["--quick"] * quick + ["--profile"] * profile
    record = run_child("rep.py", args, limit)
    record.setdefault("workload", name)
    record.setdefault("seed", seed)
    return record


def run_reps(names, seed: int, reps: int, seconds: float, quick: bool) -> dict:
    """Untraced repetitions, interleaved round-robin across ``names``.

    ``reps`` rounds, then further rounds for as long as another one the
    length of the last still ends within ``seconds`` of the start.
    Round ``i`` runs scenario seed ``scenario_seed(seed, i)``.
    """
    records = {name: [] for name in names}
    started = time.monotonic()
    index, round_s = 0, 0.0
    while index < reps or time.monotonic() - started + round_s <= seconds:
        round_started = time.monotonic()
        for name in names:
            records[name].append(run_rep(name, scenario_seed(seed, index), quick))
        round_s = time.monotonic() - round_started
        index += 1
    return records


def check_digests(name: str, records: list[dict], expected: dict) -> dict:
    """Fail repetitions whose output digest is not the one it must be.

    Two repetitions of one workload and scenario seed must agree (the
    simulator is deterministic, traced or not), and a scenario seed
    pinned in ``perf/expected.json`` must reproduce the committed
    digest: a speed-up has to leave every simulated statistic
    identical.  Returns ``scenario seed -> digest`` for the repetitions
    that passed.
    """
    digests: dict[str, str] = {}
    for record in records:
        if record["errors"]:
            continue
        key = str(record["seed"])
        wanted = expected.get(name, {}).get(key, digests.get(key))
        if wanted is not None and record["digest"] != wanted:
            record["errors"].append(
                f"digest {record['digest'][:12]} != {wanted[:12]} at seed {key}"
            )
            continue
        digests[key] = record["digest"]
    return digests


def summarise(values: list[float]) -> dict:
    """Median, min, max and count of one metric's repetitions.

    The median is the value the bounds apply to.  A handful of
    repetitions supports no tail percentile, so none is reported.
    """
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def without_spans(record: dict) -> dict:
    return {key: value for key, value in record.items() if key != "spans"}


def workload_result(name, records, traced, expected, benchmark) -> tuple[dict, dict]:
    """Check one workload's repetitions; summarise its metrics.

    ``records`` are the untraced repetitions, ``traced`` the traced one
    (or ``None``).  Returns ``(end-to-end part, traced part)`` of the
    report; the traced repetition is checked like any other but never
    enters the end-to-end numbers.
    """
    digests = check_digests(name, records + [traced] * bool(traced), expected)
    passed = [record for record in records if not record["errors"]]
    joined = "\n".join(f"{seed}:{digests[seed]}" for seed in sorted(digests, key=int))
    result = {
        "attempted": len(records),
        "failed": len(records) - len(passed),
        "failed_frac": (len(records) - len(passed)) / len(records),
        "errors": [error for record in records for error in record["errors"]],
        "digests": digests,
        "result_digest": hashlib.sha256(joined.encode()).hexdigest(),
        "metrics": {
            metric["name"]: summarise([record[metric["name"]] for record in passed])
            for metric in benchmark["end_to_end"]
            if passed
        },
        "reps": [without_spans(record) for record in records],
    }
    if not traced:
        return result, {}
    layers = {} if traced["errors"] else dict(traced["layers"])
    # Both sides are quoted at the workload's nominal size, so the ratio
    # is the tracing overhead whichever scenario seeds ran untraced.
    if layers and passed:
        layers["trace_overhead_x"] = traced["wall_s"] / result["metrics"]["wall_s"]["median"]
    return result, {
        "attempted": 1,
        "failed": int(bool(traced["errors"])),
        "errors": traced["errors"],
        "layers": layers,
        "spans": traced.get("spans", []),
    }


def environment(args) -> dict:
    """Where and how this was measured, for the output file."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.platform(),
        "commit": commit,
        "seed": args.seed,
        "reps": args.reps,
        "seconds": args.seconds,
        "quick": args.quick,
        "load_1min_start": os.getloadavg()[0],
    }


def warn_if_loaded(when: str, own: int) -> None:
    """Warn, never fail: a busy box widens every spread reported here.

    ``own`` is the load this harness itself has been adding (one child
    at a time), which the average at the end includes.
    """
    load, cores = os.getloadavg()[0], os.cpu_count() or 1
    if load - own > cores - 1:
        print(
            f"warning: 1-min load average {load:.2f} at {when} leaves less "
            f"than one of {cores} cores to the benchmark; timings will be noisy",
            file=sys.stderr,
        )


def measure(args, benchmark: dict) -> dict:
    """Run what ``args`` asks for and return the full report.

    The suite runs every workload untraced, then traced, then the
    probes.  ``--workload`` with ``--trace 0`` runs that workload
    untraced only; with ``--trace 1`` it runs one untraced repetition
    (the overhead reference), the traced one and the probes.
    """
    names = [args.workload] if args.workload else list(WORKLOADS)
    tracing = bool(args.trace) or not args.workload
    reps, seconds = (1, 0.0) if args.workload and tracing else (args.reps, args.seconds)
    expected = {} if args.quick else json.loads((PERF / "expected.json").read_text())
    report = {"env": environment(args), "workloads": {}, "traces": {}}
    warn_if_loaded("start", own=0)
    records = run_reps(names, args.seed, reps, seconds, args.quick)
    for name in names:
        traced = None
        if tracing:
            traced = run_rep(name, scenario_seed(args.seed, 0), args.quick, profile=True)
        result, trace_part = workload_result(
            name, records[name], traced, expected, benchmark
        )
        report["workloads"][name] = result
        if tracing:
            report["traces"][name] = trace_part
    if tracing and not args.quick:
        probes = run_child("probes.py", [], 120.0)
        report["probe_errors"] = probes.pop("errors", [])
        report["probes"] = probes
    report["env"]["load_1min_end"] = os.getloadavg()[0]
    warn_if_loaded("end", own=1)
    return report


def write_traces(report: dict) -> None:
    """``perf/out/trace-<workload>.json``: spans and layer costs."""
    if report["traces"]:
        OUT.mkdir(exist_ok=True)
    for name, part in report["traces"].items():
        (OUT / f"trace-{name}.json").write_text(
            json.dumps({"spans": part.pop("spans"), "layers": part["layers"]}, indent=1)
        )


def print_metric(scope: str, name: str, unit: str, summary) -> None:
    if isinstance(summary, dict):
        print(
            f"{scope:14s} {name:28s} median {summary['median']:.6g} {unit}  "
            f"min {summary['min']:.6g}  max {summary['max']:.6g}  n={summary['n']}"
        )
    else:
        print(f"{scope:14s} {name:28s} {summary:.6g} {unit}")


def print_report(report: dict, benchmark: dict) -> None:
    """Every metric by name with its unit, one line each."""
    for name, result in report["workloads"].items():
        for metric in benchmark["end_to_end"]:
            if metric["name"] in result["metrics"]:
                print_metric(name, metric["name"], metric["unit"],
                             result["metrics"][metric["name"]])
        print_metric(name, "failed_frac", "frac", result["failed_frac"])
        print(f"{name:14s} {'result_digest':28s} {result['result_digest']}")
        for error in result["errors"]:
            print(f"{name:14s} FAILED {error}")
    probes = report.get("probes", {})
    for metric in benchmark["per_layer"]:
        for name, traced in report["traces"].items():
            if metric["name"] in traced["layers"]:
                print_metric(name, metric["name"], metric["unit"],
                             traced["layers"][metric["name"]])
        if metric["name"] in probes:
            print_metric("probe", metric["name"], metric["unit"], probes[metric["name"]])
    for name, traced in report["traces"].items():
        for error in traced["errors"]:
            print(f"{name:14s} FAILED (traced) {error}")
    for error in report.get("probe_errors", []):
        print(f"{'probe':14s} FAILED {error}")


def failures(report: dict) -> int:
    parts = list(report["workloads"].values()) + list(report["traces"].values())
    return sum(part["failed"] for part in parts) + bool(report.get("probe_errors"))


def result_line(report: dict, benchmark: dict, trace: bool) -> dict | None:
    """The one-line result of a single-workload run, or ``None`` when
    not every metric could be measured."""
    ((name, part),) = report["workloads"].items()
    attempted = part["attempted"]
    if trace:
        values = {**report["traces"][name]["layers"], **report.get("probes", {})}
        wanted = benchmark["per_layer"]
        attempted += 2  # the traced repetition and the probes
    else:
        values = {key: summary["median"] for key, summary in part["metrics"].items()}
        wanted = benchmark["end_to_end"]
    if any(metric["name"] not in values for metric in wanted):
        return None
    failed = failures(report)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in wanted
        },
    }


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 under 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare_row(base: dict, new: dict, metric: dict) -> tuple[str, float]:
    """``(status, worsening)`` for one (workload, metric) pair.

    ``worsening`` is the share of the base value by which the new one
    is worse (negative = better), median against median.  ``regressed`` past the bound; ``unresolved`` when the
    repetitions' spread is wider than the bound and their ranges
    overlap, so the two sides cannot be told apart.
    """
    change = (new["median"] - base["median"]) / base["median"]
    worsening = change if metric["better"] == "lower" else -change
    noisy = max(spread(base["values"]), spread(new["values"])) > metric["bound"]
    overlap = base["min"] <= new["max"] and new["min"] <= base["max"]
    if noisy and overlap:
        return "unresolved", worsening
    return ("regressed" if worsening > metric["bound"] else "ok"), worsening


def compare(path_a: str, path_b: str, benchmark: dict) -> int:
    """Apply every metric's bound to two suite outputs; print each row."""
    base = json.loads(Path(path_a).read_text())["workloads"]
    new = json.loads(Path(path_b).read_text())["workloads"]
    regressed = 0
    for name in base:
        if name not in new:
            continue
        for metric in benchmark["end_to_end"]:
            a = base[name]["metrics"].get(metric["name"])
            b = new[name]["metrics"].get(metric["name"])
            if not a or not b:
                continue
            status, worsening = compare_row(a, b, metric)
            regressed += status == "regressed"
            print(
                f"{status:10s} {name:14s} {metric['name']:18s} "
                f"{b['median']:.6g} / {a['median']:.6g} {metric['unit']} "
                f"= {b['median'] / a['median']:.4f}  worse by {worsening:+.1%} "
                f"(bound {metric['bound']:.0%}, n={a['n']}/{b['n']})"
            )
        a, b = base[name]["failed_frac"], new[name]["failed_frac"]
        status = "regressed" if b > a else "ok"
        regressed += status == "regressed"
        print(f"{status:10s} {name:14s} {'failed_frac':18s} {b:.3g} vs {a:.3g} (any increase)")
        same = base[name]["result_digest"] == new[name]["result_digest"]
        print(f"{'same' if same else 'DIFFERENT':10s} {name:14s} result_digest")
    return 1 if regressed else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run this workload only and print one result line")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; repetition i runs scenario seed "
                        f"seed*{SEED_CYCLE} + i%%{SEED_CYCLE} (default 1)")
    parser.add_argument("--reps", type=int, default=None,
                        help="untraced rounds to run (default 5; with --seconds, "
                        "1 and then as many as fit)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="after --reps rounds, keep starting rounds that "
                        "still end within this long of the start")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = the traced repetition and the "
                        "probes instead of the end-to-end repetitions")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-sized specs, one round, no probes (self-tests)")
    parser.add_argument("--out", default=None,
                        help="write the full report here (default perf/out/latest.json "
                        "for a suite run)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two suite reports against the bounds")
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    if args.compare:
        return compare(*args.compare, benchmark)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.reps is None:
        args.reps = 1 if args.quick or args.seconds else 5
    report = measure(args, benchmark)
    write_traces(report)
    print_report(report, benchmark)
    out = args.out or (None if args.workload else str(OUT / "latest.json"))
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(json.dumps(report, indent=1))
    if args.workload:
        line = result_line(report, benchmark, bool(args.trace))
        if line is None:
            print("error: not every metric could be measured", file=sys.stderr)
            return 1
        print(json.dumps(line))
    return 1 if failures(report) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
