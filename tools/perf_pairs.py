"""Alternated parent/change pairs of one benchmark workload.

The procedure a performance claim rests on: export the parent commit
into a temporary directory, then run ``perf/run.py --workload W --seed
N+i --seconds S --trace 0`` (``S`` = ``BENCHMARK.json``'s ``run_seconds``)
on the parent and on this checkout, pair after pair, alternating which
side goes first so that machine drift lands on both.  Each side runs
its *own* ``perf/run.py``; a change that claims a gain may not edit
``perf/``, so the two are the same ruler.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
values, median and quartiles, the pairs the change won and tied, the
ratio of the medians with its base, and the verdict of the claim rule:
the change is ahead in at least nine tenths of all pairs run (ties
count for neither side) and the medians lie further apart than the
parent's own interquartile range.  It also prints, per seed, whether
the two sides' ``result_digest`` matched — "faster" only counts with
the same simulated statistics.

Run from the repository root::

    python tools/perf_pairs.py --parent HEAD~1 --workload idle-roam

The parent is exported with ``git archive`` (the committed files only,
no state left behind in ``.git``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(parent: list[float], change: list[float], better: str) -> dict:
    """The claim rule over paired values of one metric.

    ``better`` is ``"lower"`` or ``"higher"``.  ``gain`` is true when
    the change wins at least nine tenths of all pairs (a tie is a win
    for neither) and its median is on the better side of the parent's
    by more than the parent's interquartile range.
    """
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    parent_q1, parent_median, parent_q3 = quartiles(parent)
    change_q1, change_median, change_q3 = quartiles(change)
    ahead = sign * (change_median - parent_median)
    return {
        "pairs": len(parent),
        "wins": wins,
        "ties": ties,
        "parent": (parent_q1, parent_median, parent_q3),
        "change": (change_q1, change_median, change_q3),
        "ratio": change_median / parent_median if parent_median else float("nan"),
        "gain": 10 * wins >= 9 * len(parent) and ahead > parent_q3 - parent_q1,
    }


def run_side(checkout: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One harness run in ``checkout``: its metrics and result digest."""
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"perf/run.py failed in {checkout} (exit {done.returncode}):\n"
            f"{done.stdout}{done.stderr}"
        )
    result = json.loads(lines[-1])
    digests = [line.split()[-1] for line in lines if " result_digest " in line]
    return {
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "failed": result["failed"],
        "digest": digests[-1] if digests else "",
    }


def export_parent(ref: str, target: pathlib.Path) -> None:
    """The committed files of ``ref``, unpacked into ``target``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref], cwd=ROOT, capture_output=True,
        check=True,
    )
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive.stdout, check=True)


def main(argv: list[str]) -> int:
    """CLI entry point: run the pairs, print the tables."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="pair i runs both sides at --seed N+i (default 1)")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as scratch:
        parent_dir = pathlib.Path(scratch)
        export_parent(args.parent, parent_dir)
        sides = {"parent": parent_dir, "change": ROOT}
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for index in range(args.pairs):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            seed = args.seed + index
            for side in order:
                runs[side].append(
                    run_side(sides[side], args.workload, seed, seconds)
                )
            same = runs["parent"][-1]["digest"] == runs["change"][-1]["digest"]
            print(
                f"pair {index + 1:2d} seed {seed:3d} first={order[0]:6s} "
                f"result_digest {'same' if same else 'DIFFERENT'}",
                flush=True,
            )

    print(f"\n{args.workload}: {args.pairs} pairs, {seconds:g} s per side")
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        parent = [run["metrics"][name] for run in runs["parent"]]
        change = [run["metrics"][name] for run in runs["change"]]
        verdict = judge(parent, change, metric["better"])
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better)")
        for side, values in (("parent", parent), ("change", change)):
            q1, median, q3 = verdict[side]
            print(f"  {side:6s} median {median:.4g}  quartiles {q1:.4g} .. {q3:.4g}")
            print("         " + " ".join(f"{value:.4g}" for value in values))
        print(
            f"  change ahead in {verdict['wins']}/{verdict['pairs']} pairs "
            f"({verdict['ties']} tied); ratio x{verdict['ratio']:.3f} of "
            f"{verdict['parent'][1]:.4g} {metric['unit']}; "
            f"gain by the claim rule: {'yes' if verdict['gain'] else 'no'}"
        )
    failed = {side: sum(run["failed"] for run in runs[side]) for side in runs}
    print(f"\nfailed repetitions: parent {failed['parent']}, change {failed['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
