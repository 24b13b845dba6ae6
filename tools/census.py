"""Census of a run: what its event loop did and what it paid around it.

``sim.events`` of the perf harness is one number, and a ``pstats``
listing files every dataclass-generated ``__init__`` under one
``<string>:2(__init__)`` row.  This tool counts each planned run
exactly, in two passes.  **In process**, one build and ``execute()``
while the kernel's ``heappop`` and every ``__init__`` written in (or
generated into) a ``repro`` class body are wrapped from outside
(nothing in ``src/`` knows) count:

* every dispatched kernel entry, as it leaves the queue and before it
  runs, by kind: a ``call_later`` entry by its target's
  ``__qualname__`` — and for ``Link._deliver`` by the class of the
  link's tail node and the packet's protocol
  (``Link._deliver[BaseStation,data]``); a process's start, the
  wake-up of its sleep and its interrupt by the generator each resumes
  (``start -> Process._resume[CBRSource._run]``, ``sleep -> ...``,
  ``interrupt -> ...``), or ``sleep -> nothing`` once an interrupt has
  ended that sleep and ``interrupt -> nothing`` once the process has
  ended; an event entry by the event's class and its first callback —
  with the generator of the process it resumes (``AnyOf ->
  Process._resume[ElasticSource._run]``) or, through a live
  ``AnyOf``, will resume (``Event -> AnyOf._check[ElasticSource._run]``);
  a bare ``AnyOf._check`` is an ``AnyOf`` already decided (a spent
  deadline), ``nothing`` an event nobody waits on.  The kinds must sum
  to the simulators' ``events_processed``;
* why its packets were dropped: the simulators' ``drop_totals``, by
  cause; and why its mobiles' moves were refused: the decision trace's
  ``refusals``, by move and reason (JSON keys ``move:reason``);
* the objects of each class defined under ``repro.*`` it constructed,
  set against the kernel entries, with ``*`` on the classes whose
  constructor's code lives in ``<string>``.  An object is counted once,
  by the constructor its own class resolves to, so a
  ``super().__init__`` chain adds nothing; classes made by ``__new__``
  alone (``IPAddress``, enum members) have no ``__init__`` to wrap and
  are not counted.

**In a clean child**, the planned runs are built and executed again, the
way a library caller does it:

* the import graph — the modules the child ended with (``sys.modules``),
  counted per ``repro.*`` package (numpy, and the standard library with
  this tool, in a row each), and the modules first imported *inside* an
  ``execute()`` — there must be none: an import there is set-up cost
  hidden in the timed run.  The census counts modules and does not time
  them: one ``-X importtime`` reading per child swings by a factor of
  three between identical trees, so import cost is measured as the
  median of many fresh children instead.  So that the child's modules
  stay the run's own, this module imports nothing from ``repro`` at
  load, and what only the in-process pass needs is imported where it
  is used;
* the cyclic collector — per run, the collector's passes, seconds and
  unreachable objects found per generation while ``execute()`` ran
  (``BuiltRun.execute`` suspends automatic collection, so: none), what
  the collector finds afterwards with the finished world still held —
  the garbage the whole run left behind, which is what says suspending
  it is safe — and the teardown: the full collection that frees the
  dropped world, its seconds and the objects it walked.  One planned
  run is made alone, as a library caller makes it; several are made as
  one ``SerialBackend`` batch, as ``compare_scenario_stacks`` makes
  them, so their teardowns walk only what the batch made (the backend
  freezes the heap the batch started with).

Every count repeats from run to run; the seconds are wall-clock
readings and do not.  Exits 1 if a run's kinds do not sum to
its ``events_processed`` or a module was first imported inside an
``execute()``.

Run from the repository root::

    python tools/census.py campus-dense --smoke --stack all
    python tools/census.py perf:idle-roam --seed 6 --json

``SCENARIO`` is a catalog scenario (``--stack`` rebinds it; ``all``
runs every registered stack, one table each and one for the lot) or
``perf:WORKLOAD``, the specs of a ``perf/workloads.py`` workload
(``--seed 6`` is the scenario seed of the traced ``--seed 1``
repetition ROADMAP's tables quote).  In an export of an earlier commit
the same command shows what that commit ran, built, loaded and
collected.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import pathlib
import subprocess
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Run in the clean child: one ``lifecycle_of`` per planned run.
CHILD = """
import json, sys
from census import lifecycle_of_runs, planned_runs
runs = lifecycle_of_runs(planned_runs(*json.loads(sys.argv[1])))
print(json.dumps({"modules": sorted(sys.modules), "runs": runs}))
"""


def planned_runs(
    scenario: str, stack: str | None, smoke: bool, seed: int | None
) -> list[tuple]:
    """``[(label, spec, seed), ...]``: the simulation runs ``scenario``
    names, each at ``seed`` (the spec's first if ``None``)."""
    from repro.scenarios import get_scenario
    from repro.stacks import stack_names

    if scenario.startswith("perf:"):
        sys.path.insert(0, str(ROOT))
        try:
            from perf import workloads
        finally:
            sys.path.pop(0)
        name = scenario.removeprefix("perf:")
        specs = workloads.derive(name, quick=smoke)
        if stack is None and workloads.WORKLOADS[name].all_stacks:
            stack = "all"
    else:
        spec = get_scenario(scenario)
        specs = [spec.smoke() if smoke else spec]
    runs = []
    for spec in specs:
        stacks = stack_names() if stack == "all" else [stack or spec.stack]
        runs += [
            (f"{spec.name}/{s}", spec.replace(stack=s),
             spec.seeds[0] if seed is None else seed)
            for s in stacks
        ]
    return runs


def ranked(counts) -> dict[str, int]:
    """``counts`` by falling count, ties by name."""
    return dict(sorted(counts.items(), key=lambda item: (-item[1], item[0])))


#: The kernel's entries for a process, by target: what each is called.
_PROCESS_ENTRIES = {"_start": "start", "_wake": "sleep", "_interrupt": "interrupt"}


def kind_of(target, args) -> str:
    """The kind of one heap entry ``(..., target, args)``."""
    if args is not None:  # a call_later entry: target(*args)
        name = getattr(target, "__qualname__", type(target).__qualname__)
        if name in _PROCESS_ENTRIES:  # a process's start, wake-up or interrupt
            process = args[0]
            if (
                name == "_wake" and process._target is not args[1]
                or name == "_interrupt" and process._target is None
            ):
                return f"{_PROCESS_ENTRIES[name]} -> nothing"
            generator = process._generator.__qualname__
            return f"{_PROCESS_ENTRIES[name]} -> Process._resume[{generator}]"
        if name == "Link._deliver":
            link, packet = args
            name += f"[{type(link.tail).__name__},{packet.protocol}]"
        return name
    event = type(target).__name__
    if not target.callbacks:
        return f"{event} -> nothing"
    first = waiter = target.callbacks[0]
    name = getattr(first, "__qualname__", type(first).__qualname__)
    if name == "AnyOf._check" and first.__self__.callbacks:
        waiter = first.__self__.callbacks[0]  # who the live AnyOf is for
    generator = getattr(getattr(waiter, "__self__", None), "_generator", None)
    if generator is not None:
        name += f"[{generator.__qualname__}]"
    return f"{event} -> {name}"


@contextmanager
def counting():
    """Count every kernel entry dispatched inside the block.

    Yields ``(kinds, simulators)``: the tally, and every ``Simulator``
    constructed meanwhile (their ``events_processed`` is the total the
    tally must reach).
    """
    from repro.sim import Simulator, kernel

    kinds: Counter = Counter()
    simulators: list = []
    pop, init = kernel.heappop, Simulator.__init__

    def counting_pop(queue):
        entry = pop(queue)
        kinds[kind_of(entry[3], entry[4])] += 1
        return entry

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        simulators.append(self)

    kernel.heappop, Simulator.__init__ = counting_pop, __init__
    try:
        yield kinds, simulators
    finally:
        kernel.heappop, Simulator.__init__ = pop, init


def repro_classes() -> list[type]:
    """Every class defined in a module under ``repro``, in name order."""
    import importlib
    import pkgutil

    import repro

    classes = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                classes.add(value)
    return sorted(classes, key=class_name)


def class_name(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


@contextmanager
def constructing():
    """Count every ``repro`` object constructed inside the block.

    Yields ``made``, a tally keyed by class.
    """
    made: Counter = Counter()
    wrapped = []

    def counted(init):
        @functools.wraps(init)
        def __init__(self, *args, **kwargs):
            if type(self).__init__ is __init__:  # not a super() call
                made[type(self)] += 1
            init(self, *args, **kwargs)

        return __init__

    for cls in repro_classes():
        init = cls.__dict__.get("__init__")
        if isinstance(init, types.FunctionType):
            wrapped.append((cls, init))
            cls.__init__ = counted(init)
    try:
        yield made
    finally:
        for cls, init in wrapped:
            cls.__init__ = init


def census_of(spec, seed: int) -> dict:
    """Build and execute one run in process; its counts."""
    from repro.net import drop_totals
    from repro.scenarios import build_scenario

    with counting() as (kinds, simulators), constructing() as made:
        built = build_scenario(spec, seed)
        built.execute()
    drops = sum((Counter(drop_totals(s)) for s in simulators), Counter())
    refusals = {
        f"{move}:{reason}": count
        for (move, reason), count in built.decision_trace.refusals.items()
    }
    return {
        "events": sum(simulator.events_processed for simulator in simulators),
        "kinds": ranked(kinds), "drops": ranked(drops),
        "refusals": ranked(refusals),
        "classes": ranked({class_name(c): n for c, n in made.items()}),
        "generated": sorted(  # read once the constructors are unwrapped again
            class_name(c) for c in made if c.__init__.__code__.co_filename == "<string>"
        ),
    }


def package_of(module: str) -> str:
    """The report row of ``module``: its ``repro.*`` package, ``numpy``,
    or ``other`` (the standard library and this tool)."""
    parts = module.split(".")
    if parts[0] == "repro":
        return ".".join(parts[:2])
    return "numpy" if parts[0] == "numpy" else "other"


def packages_of(loaded: list[str]) -> dict[str, int]:
    """The import table: per report row the modules among ``loaded``
    (the child's ``sys.modules``), most modules first."""
    modules = Counter(package_of(module) for module in loaded)
    return {
        package: modules[package]
        for package in sorted(modules, key=lambda p: (-modules[p], p))
    }


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


def lifecycle_of(spec, seed: int) -> dict:
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
    del built
    # A full collection walks every object the collector tracks outside
    # the frozen generation; ``get_objects`` lists exactly those.
    walked = len(gc.get_objects())
    started = time.perf_counter()
    gc.collect()
    teardown_s = time.perf_counter() - started
    return {
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


def lifecycle_of_runs(runs: list[tuple]) -> dict:
    """``lifecycle_of`` every planned ``(label, spec, seed)`` run: a lone
    run as a library caller makes it, several as one serial batch."""
    jobs = [functools.partial(lifecycle_of, spec, seed) for _label, spec, seed in runs]
    if len(jobs) > 1:
        from repro.experiments.exec import SerialBackend

        records = SerialBackend().run(jobs)
    else:
        records = [job() for job in jobs]
    return {label: record for (label, *_), record in zip(runs, records)}


def census(scenario: str, stack: str | None, smoke: bool, seed: int | None) -> dict:
    """Both passes over every planned run: the runs in process, then all
    of them in one clean child; the whole report.  With several runs,
    ``"all runs"`` sums their in-process counts."""
    runs = {
        label: census_of(spec, seed)
        for label, spec, seed in planned_runs(scenario, stack, smoke, seed)
    }
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tools")]),
    )
    done = subprocess.run(
        [sys.executable, "-c", CHILD,
         json.dumps([scenario, stack, smoke, seed])],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError("the census child failed:\n" + done.stderr)
    child = json.loads(done.stdout)
    packages = packages_of(child["modules"])
    for label, record in runs.items():
        record.update(child["runs"][label])
    if len(runs) > 1:
        lot = {"events": sum(record["events"] for record in runs.values())}
        for key in ("kinds", "drops", "refusals", "classes"):
            lot[key] = ranked(sum((Counter(r[key]) for r in runs.values()), Counter()))
        lot["generated"] = sorted(
            {name for record in runs.values() for name in record["generated"]}
        )
        runs["all runs"] = lot
    return {"packages": packages, "runs": runs}


def shares(counts: dict, total: int) -> list[str]:
    """One row per entry of ``counts``: count, share of ``total``, name."""
    return [
        f"  {count:9d}  {count / total:6.1%}  {name}" for name, count in counts.items()
    ]


def render_packages(title: str, packages: dict) -> str:
    """The import table: modules per package."""
    ours = sum(n for package, n in packages.items() if package.startswith("repro"))
    lines = [f"{title}: {ours} repro modules loaded in a clean child"]
    lines += [f"  {modules:5d}  {package}" for package, modules in packages.items()]
    return "\n".join(lines)


def render(label: str, record: dict) -> str:
    """One run's tables — kernel entries by kind, drops by cause,
    refused moves by move and reason, constructions by class (per
    kernel entry, ``*`` if generated) — and, for a planned run, the
    imports inside ``execute()``, the collector's passes, what the run
    left behind, and the collection that freed it."""
    events, made = record["events"], set(record["generated"])
    dropped = sum(record["drops"].values())
    refused = sum(record["refusals"].values())
    built = sum(record["classes"].values())
    lines = [
        f"{label}: {events} kernel entries", *shares(record["kinds"], events),
        f"{label}: {dropped} packets dropped", *shares(record["drops"], dropped),
        f"{label}: {refused} moves refused", *shares(record["refusals"], refused),
        f"{label}: {built} constructions over {events} kernel entries "
        f"({built / events:.3f} per entry; * = constructor from <string>)",
    ]
    for name, count in record["classes"].items():
        mark = "*" if name in made else " "
        lines.append(f"  {count:9d}  {count / events:7.4f}  {mark} {name}")
    if "teardown" not in record:  # the sum of several runs
        return "\n".join(lines)
    teardown = record["teardown"]
    lines += [
        "  first imported inside execute(): "
        + (", ".join(record["imported_inside_execute"]) or "nothing"),
        *(
            f"  generation {generation} during execute(): {row['passes']:4d} "
            f"passes  {row['seconds']:.4f} s  {row['unreachable']} unreachable"
            for generation, row in record["during_execute"].items()
        ),
        f"  left for the collector afterwards, world still held: "
        f"{record['unreachable_after']} unreachable",
        f"  teardown collection, world dropped: {teardown['walked']} objects "
        f"walked  {teardown['seconds']:.4f} s",
    ]
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    """CLI entry point: run, count, print; exit 1 on a miscount or an
    import inside ``execute()``."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scenario", metavar="SCENARIO",
                        help="catalog scenario name, or perf:WORKLOAD")
    parser.add_argument("--stack", help="registered stack, or 'all'")
    parser.add_argument("--seed", type=int,
                        help="scenario seed (default: the spec's first)")
    parser.add_argument("--smoke", action="store_true",
                        help="the shrunken CI variant of every spec")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON document instead of tables")
    args = parser.parse_args(argv)
    report = census(args.scenario, args.stack, args.smoke, args.seed)
    if args.json:
        print(json.dumps(report, indent=1))
    else:
        print("\n\n".join([
            render_packages(" ".join(argv), report["packages"]),
            *(render(label, record) for label, record in report["runs"].items()),
        ]))
    failed = False
    for label, record in report["runs"].items():
        counted = sum(record["kinds"].values())
        if counted != record["events"]:
            failed = True
            print(f"{label}: kinds sum to {counted}, "
                  f"events_processed is {record['events']}", file=sys.stderr)
        if record.get("imported_inside_execute"):
            failed = True
            print(f"{label}: execute() imported "
                  f"{', '.join(record['imported_inside_execute'])}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
