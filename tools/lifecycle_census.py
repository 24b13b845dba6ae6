"""Census of what a run pays outside its event loop.

``tools/event_census.py`` and ``tools/alloc_census.py`` count what the
dispatch loop does.  A process that runs a world also pays for its
import graph before the first event and for the cyclic collector beside
the loop, and this tool counts both:

* **the import graph** — the planned runs are built and executed, the
  way a library caller does it, in a clean child interpreter under
  ``-X importtime``; the report is the modules the child ended with
  (``sys.modules``) and their own import time per ``repro.*`` package
  (numpy, and the standard library with this tool, in a row each), and
  the modules first imported *inside* an ``execute()`` — there must be
  none: an import there is set-up cost hidden in the timed run.
  ``-X importtime`` sees the ``import`` statement only: a module
  brought in by ``importlib.import_module`` (a lazily resolved
  re-export of ``repro.scenarios`` / ``repro.stacks``, a shipped
  adapter on its first ``get_stack``) is counted and listed as
  untimed, and the microseconds of its own body are in no row (those of
  the ``import`` statements inside it are);
* **the cyclic collector** — per run, the collector's passes, seconds
  and unreachable objects found per generation while ``execute()`` ran
  (``BuiltRun.execute`` suspends automatic collection, so: none), what
  the collector finds afterwards with the finished world still held —
  the garbage the whole run left behind, which is what says suspending
  it is safe — and the teardown: the full collection that frees the
  dropped world, its seconds and the objects it walked.  One planned
  run is made alone, as a library caller makes it; several are made as
  one ``SerialBackend`` batch, as ``compare_scenario_stacks`` makes
  them, so their teardowns walk only what the batch made (the backend
  freezes the heap the batch started with).

Module counts, passes and object counts repeat from run to run; the
microseconds and seconds are wall-clock readings and do not.  Exits 1
if a module was first imported inside an ``execute()``.

Run from the repository root::

    python tools/lifecycle_census.py campus-dense --smoke --stack all
    python tools/lifecycle_census.py perf:idle-roam --seed 6 --json

``SCENARIO``, ``--stack``, ``--seed`` and ``--smoke`` mean what they
mean to ``tools/event_census.py``.  In an export of an earlier commit
the same command shows what that commit loaded and collected.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from functools import partial

from event_census import ROOT, parse_arguments, planned_runs

#: Run in the clean child: one ``census_of`` per planned run.
CHILD = """
import json, sys
from event_census import planned_runs
from lifecycle_census import census_of_runs
scenario, stack, smoke, seed = json.loads(sys.argv[1])
runs = census_of_runs(planned_runs(scenario, stack, smoke), seed)
print(json.dumps({"modules": sorted(sys.modules), "runs": runs}))
"""


def package_of(module: str) -> str:
    """The report row of ``module``: its ``repro.*`` package, ``numpy``,
    or ``other`` (the standard library and this tool)."""
    parts = module.split(".")
    if parts[0] == "repro":
        return ".".join(parts[:2])
    return "numpy" if parts[0] == "numpy" else "other"


def packages_of(importtime: str, loaded: list[str]) -> tuple[dict, list[str]]:
    """The import table — per report row the modules among ``loaded``
    (the child's ``sys.modules``) and the own microseconds
    ``-X importtime`` printed for that row, most expensive first — and
    the ``repro`` modules among ``loaded`` that it printed no line for."""
    modules = Counter(package_of(module) for module in loaded)
    micros: Counter = Counter()
    timed = set()
    for line in importtime.splitlines():
        own, _, rest = line.removeprefix("import time:").partition("|")
        if not (line.startswith("import time:") and own.strip().isdigit()):
            continue  # the header, a warning
        module = rest.partition("|")[2].strip()
        timed.add(module)
        micros[package_of(module)] += int(own)
    packages = {
        package: {"modules": modules[package], "import_us": micros[package]}
        for package in sorted(modules, key=lambda p: (-micros[p], p))
    }
    untimed = [
        module for module in loaded
        if module.split(".")[0] == "repro" and module not in timed
    ]
    return packages, untimed


def census(scenario: str, stack: str | None, smoke: bool, seed: int | None) -> dict:
    """Run the planned runs in a clean child; the whole report."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tools")]),
    )
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", CHILD,
         json.dumps([scenario, stack, smoke, seed])],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError("the census child failed:\n" + "\n".join(
            line for line in done.stderr.splitlines()
            if not line.startswith("import time:")
        ))
    child = json.loads(done.stdout)
    packages, untimed = packages_of(done.stderr, child["modules"])
    return {"packages": packages, "untimed": untimed, "runs": child["runs"]}


@contextmanager
def watching_collector(run_code):
    """Tally the cyclic collector's passes inside the block.

    Yields ``(during, outside)``.  ``during`` maps a generation to
    ``[passes, seconds, unreachable objects found]`` over the passes made
    while ``run_code`` (a function's code object) was executing;
    ``outside`` is one such row for every other pass in the block.  A
    pass is placed by the stack it interrupts, not by when the caller
    regains control: the allocation that follows ``gc.enable()`` can
    start a collection before the caller's next statement runs.
    """
    during = {generation: [0, 0.0, 0] for generation in range(3)}
    outside = [0, 0.0, 0]
    started, row = 0.0, outside

    def on_pass(phase: str, info: dict) -> None:
        nonlocal started, row
        if phase == "start":
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not run_code:
                frame = frame.f_back
            row = outside if frame is None else during[info["generation"]]
            started = time.perf_counter()
            return
        row[0] += 1
        row[1] += time.perf_counter() - started
        row[2] += info["collected"] + info["uncollectable"]

    gc.callbacks.append(on_pass)
    try:
        yield during, outside
    finally:
        gc.callbacks.remove(on_pass)


def census_of(spec, seed: int) -> dict:
    """Build, execute and tear down one run; its record for the report."""
    from repro.scenarios import build_scenario
    from repro.stacks import BuiltRun

    built = build_scenario(spec, seed)
    gc.collect()  # what building left is not the run's
    loaded = set(sys.modules)
    with watching_collector(BuiltRun.execute.__code__) as (during, outside):
        built.execute()
        imported = sorted(set(sys.modules) - loaded)
        # ``built`` is still held: the finished world is one cycle, and
        # it is not garbage the run made.
        gc.collect()
    events = built.sim.events_processed
    del built
    # A full collection walks every object the collector tracks outside
    # the frozen generation; ``get_objects`` lists exactly those.
    walked = len(gc.get_objects())
    started = time.perf_counter()
    gc.collect()
    teardown_s = time.perf_counter() - started
    return {
        "events": events,
        "imported_inside_execute": imported,
        "during_execute": {
            str(generation): {
                "passes": passes, "seconds": seconds, "unreachable": found,
            }
            for generation, (passes, seconds, found) in during.items()
        },
        "unreachable_after": outside[2],
        "teardown": {"walked": walked, "seconds": teardown_s},
    }


def census_of_runs(runs: list[tuple], seed: int | None) -> dict:
    """``census_of`` every planned ``(label, spec)`` run at ``seed`` (the
    spec's first seed if ``None``): a lone run as a library caller makes
    it, several as one serial batch."""
    jobs = [
        partial(census_of, spec, spec.seeds[0] if seed is None else seed)
        for _label, spec in runs
    ]
    if len(jobs) > 1:
        from repro.experiments.exec import SerialBackend

        records = SerialBackend().run(jobs)
    else:
        records = [job() for job in jobs]
    return {label: record for (label, _spec), record in zip(runs, records)}


def render_packages(title: str, packages: dict, untimed: list[str]) -> str:
    """The import table: modules, own import time, package; then the
    modules ``-X importtime`` could not time."""
    ours = [row for package, row in packages.items() if package.startswith("repro")]
    lines = [
        f"{title}: {sum(row['modules'] for row in ours)} repro modules, "
        f"{sum(row['import_us'] for row in ours)} us to import them "
        "in a clean child"
    ]
    for package, row in packages.items():
        lines.append(f"  {row['modules']:5d}  {row['import_us']:9d} us  {package}")
    lines.append(
        "  loaded through importlib, own time in no row: "
        + (", ".join(untimed) or "nothing")
    )
    return "\n".join(lines)


def render_run(label: str, record: dict) -> str:
    """One run: imports inside ``execute()``, the collector's passes,
    what the run left behind, and the collection that freed it."""
    lines = [
        f"{label}: {record['events']} kernel entries",
        "  first imported inside execute(): "
        + (", ".join(record["imported_inside_execute"]) or "nothing"),
    ]
    for generation, row in record["during_execute"].items():
        lines.append(
            f"  generation {generation} during execute(): {row['passes']:4d} "
            f"passes  {row['seconds']:.4f} s  {row['unreachable']} unreachable"
        )
    lines.append(
        f"  left for the collector afterwards, world still held: "
        f"{record['unreachable_after']} unreachable"
    )
    teardown = record["teardown"]
    lines.append(
        f"  teardown collection, world dropped: {teardown['walked']} objects "
        f"walked  {teardown['seconds']:.4f} s"
    )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    """CLI entry point: run, count, print; exit 1 on an import inside
    ``execute()``."""
    args = parse_arguments(__doc__, argv)
    report = census(args.scenario, args.stack, args.smoke, args.seed)
    if args.json:
        print(json.dumps(report, indent=1))
    else:
        print("\n\n".join([
            render_packages(" ".join(argv), report["packages"], report["untimed"]),
            *(render_run(label, record) for label, record in report["runs"].items()),
        ]))
    late = False
    for label, record in report["runs"].items():
        if record["imported_inside_execute"]:
            late = True
            print(f"{label}: execute() imported "
                  f"{', '.join(record['imported_inside_execute'])}", file=sys.stderr)
    return 1 if late else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
