"""The one table of committed goldens, and the two verbs over it.

    python tools/goldens.py check [--jobs N]    exit 1 on any difference
    python tools/goldens.py write [--jobs N]    re-pin every tree

Both verbs produce every tree in :data:`GOLDENS` into a temporary
directory.  ``check`` prints a unified diff for each file that differs
from its committed copy, names each extra or missing file, and runs each
benchmark workload once against ``perf/expected.json``, which ``write``
never touches.  ``check`` with ``--jobs`` above 1 checks only the trees
of ``repro`` commands: the examples and the perf digests read no
``--jobs``, so the serial ``check`` covers them.  No ``.png`` is
compared or written; a committed ``.figure.txt`` is skipped where a
``.png`` was produced (matplotlib).
"""

import argparse
import contextlib
import difflib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Stands for the directory a ``repro`` command writes its tree to.
OUT = "OUT"
#: Stands for each ``examples/<name>.py``, its stdout kept as ``<name>.txt``.
EXAMPLES = "examples"

#: Each golden tree (only the files directly in it count) and what
#: produces it: a ``repro`` argv, run in this process with ``--jobs N``
#: appended, or :data:`EXAMPLES`, run as child processes.
GOLDENS = {
    # The 17 E-series tables.
    "results": ["run", "all", "-o", OUT],
    "results/scenarios_smoke": ["scenario", "run", "all", "--smoke", "-o", OUT],
    # Legacy radio, two domains, contention and fluid, under every stack.
    "results/stacks_smoke": [
        "scenario", "run", "campus-dense", "commuter-corridor", "campus-air",
        "metro-100k", "--stack", "all", "--smoke", "-o", OUT,
    ],
    "results/sweeps_smoke": ["scenario", "sweep", "all", "--smoke", "-o", OUT],
    "results/campaign_smoke": [
        "campaign", "run", OUT, "--scenarios", "sparse-rural", "--sweeps",
        "sparse-rural/population", "--stacks", "multitier", "mobileip",
        "--smoke", "--name", "golden",
    ],
    # The whole catalog at full size under every stack, one seed.
    "results/fullsize": [
        "scenario", "run", "all", "--stack", "all", "--seeds", "1", "-o", OUT,
    ],
    "results/examples": EXAMPLES,
}


def produce(command, out: pathlib.Path, jobs: int) -> None:
    """Run ``command`` (a :data:`GOLDENS` value) so it writes into ``out``."""
    if command == EXAMPLES:
        out.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for script in sorted((ROOT / "examples").glob("*.py")):
            done = subprocess.run([sys.executable, script], cwd=ROOT, env=env,
                                  stdout=subprocess.PIPE, check=True)
            (out / f"{script.stem}.txt").write_bytes(done.stdout)
        return
    from repro.cli import main

    argv = [str(out) if word == OUT else word for word in command]
    with contextlib.redirect_stdout(io.StringIO()):
        if main(argv + ["--jobs", str(jobs)]):
            raise RuntimeError(f"repro {' '.join(argv)} failed")


def _files(tree: pathlib.Path) -> set[str]:
    paths = tree.iterdir() if tree.is_dir() else ()
    return {p.name for p in paths if p.is_file() and p.suffix != ".png"}


def differences(produced: pathlib.Path, committed: pathlib.Path):
    """``(changed, extra, missing)``: sorted names of the files whose
    bytes differ, that only ``produced`` has and that only ``committed``
    has (an ASCII figure a ``.png`` stands in for aside)."""
    made, kept = _files(produced), _files(committed)
    changed = [
        name for name in sorted(made & kept)
        if (produced / name).read_bytes() != (committed / name).read_bytes()
    ]
    missing = [
        name for name in sorted(kept - made)
        if not (produced / name.replace(".figure.txt", ".png")).is_file()
    ]
    return changed, sorted(made - kept), missing


def report(tree: str, produced: pathlib.Path, committed: pathlib.Path) -> bool:
    """Print how ``produced`` differs from ``committed``; True when equal."""
    changed, extra, missing = differences(produced, committed)
    for name in changed:
        old, new = (
            (path / name).read_text(encoding="utf-8").splitlines(keepends=True)
            for path in (committed, produced)
        )
        sys.stdout.writelines(difflib.unified_diff(
            old, new, f"{tree}/{name} (committed)", f"{tree}/{name} (produced)"
        ))
    for name in extra:
        print(f"extra: {tree}/{name} was produced but is not committed")
    for name in missing:
        print(f"missing: {tree}/{name} is committed but was not produced")
    same = not (changed or extra or missing)
    print(f"{tree}: {'same' if same else 'differs'}")
    return same


def replace(produced: pathlib.Path, committed: pathlib.Path) -> list[int]:
    """Make ``committed`` what ``produced`` is; count each difference."""
    changed, extra, missing = differences(produced, committed)
    committed.mkdir(parents=True, exist_ok=True)
    for name in changed + extra:
        shutil.copyfile(produced / name, committed / name)
    for name in missing:
        (committed / name).unlink()
    return [len(changed), len(extra), len(missing)]


def perf_digest_ok(workload: str) -> bool:
    """Run ``workload`` once: exit 0 and ``"correct": true``, or print why not."""
    command = ["perf/run.py", "--workload", workload, "--seed", "1", "--reps", "1",
               "--trace", "0"]
    done = subprocess.run([sys.executable, *command], cwd=ROOT,
                          capture_output=True, text=True)
    with contextlib.suppress(ValueError, IndexError):
        if done.returncode == 0 and json.loads(done.stdout.splitlines()[-1])["correct"]:
            print(f"perf {workload}: correct")
            return True
    print(f"{' '.join(command)}: exit {done.returncode}\n{done.stdout}{done.stderr}")
    return False


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Check or re-pin every golden.")
    parser.add_argument("verb", choices=("check", "write"))
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="the --jobs of each repro command (default 1)")
    args = parser.parse_args(argv)
    ok = True
    pool_check = args.verb == "check" and args.jobs > 1
    with tempfile.TemporaryDirectory() as workdir:
        for tree, command in GOLDENS.items():
            if pool_check and command == EXAMPLES:
                print(f"{tree}: not run, it reads no --jobs")
                continue
            produced, committed = pathlib.Path(workdir) / tree, ROOT / tree
            produce(command, produced, args.jobs)
            if args.verb == "write":
                counts = "{} changed, {} added, {} removed"
                print(f"{tree}:", counts.format(*replace(produced, committed)))
            else:
                ok = report(tree, produced, committed) and ok
    if args.verb == "check" and not pool_check:
        workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
        ok = all([perf_digest_ok(workload["name"]) for workload in workloads]) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
