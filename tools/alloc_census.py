"""Census of object constructions, by class.

What does a run *build*?  A ``pstats`` listing cannot say: every
dataclass-generated ``__init__`` is a code object compiled from a
string, named ``<string>:2(__init__)``, and ``pstats`` keys its rows by
(file, line, name) — so all of them share one row, and ``perf/trace.py``
files their self time under ``other``.  This tool counts, exactly and
deterministically, how many objects of each class defined under
``repro.*`` a run constructs, sets the total against the kernel entries
the run dispatched, and marks with ``*`` the classes whose constructor's
code lives in ``<string>``.

It is done from outside: while counting, every ``__init__`` written in
(or generated into) a ``repro`` class body is wrapped; an object is
counted once, by the constructor its own class resolves to, so a
``super().__init__`` chain adds nothing.  Classes made by ``__new__``
alone (``IPAddress``, enum members) have no ``__init__`` to wrap and
are not counted.  Counts only — no timing — so two runs print the same
bytes.

Run from the repository root::

    python tools/alloc_census.py campus-dense --smoke --stack all
    python tools/alloc_census.py perf:stacks-campus --seed 6 --json

``SCENARIO``, ``--stack``, ``--seed`` and ``--smoke`` mean what they
mean to ``tools/event_census.py`` (``--seed 6`` is the scenario seed of
the traced ``--seed 1`` repetition ROADMAP's tables quote).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import types
from collections import Counter
from contextlib import contextmanager

import event_census
from event_census import ROOT, parse_arguments, planned_runs, ranked


def repro_classes() -> list[type]:
    """Every class defined in a module under ``repro``, in name order."""
    import repro

    classes = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                classes.add(value)
    return sorted(classes, key=class_name)


def class_name(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


@contextmanager
def counting():
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


def generated(cls: type) -> bool:
    """Whether ``cls`` is constructed by code compiled from a string."""
    return inspect.unwrap(cls.__init__).__code__.co_filename == "<string>"


def census_of(spec, seed: int) -> dict:
    """Build and execute one run; its record for the report."""
    from repro.scenarios import build_scenario

    with event_census.counting() as (_kinds, simulators), counting() as made:
        build_scenario(spec, seed).execute()
    return {
        "events": sum(simulator.events_processed for simulator in simulators),
        "classes": ranked(Counter({class_name(c): n for c, n in made.items()})),
        "generated": sorted(class_name(c) for c in made if generated(c)),
    }


def render(label: str, record: dict) -> str:
    """One run's table: count, per kernel entry, ``*`` if generated, class."""
    events, generated = record["events"], set(record["generated"])
    total = sum(record["classes"].values())
    lines = [
        f"{label}: {total} constructions over {events} kernel entries "
        f"({total / events:.3f} per entry; * = constructor from <string>)"
    ]
    for name, count in record["classes"].items():
        mark = "*" if name in generated else " "
        lines.append(f"  {count:9d}  {count / events:7.4f}  {mark} {name}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    """CLI entry point: run, count, print."""
    args = parse_arguments(__doc__, argv)
    report: dict[str, dict] = {}
    for label, spec in planned_runs(args.scenario, args.stack, args.smoke):
        seed = spec.seeds[0] if args.seed is None else args.seed
        report[label] = census_of(spec, seed)
    if len(report) > 1:
        lot: Counter = Counter()
        names: set[str] = set()
        for record in report.values():
            lot.update(record["classes"])
            names.update(record["generated"])
        report["all runs"] = {
            "events": sum(record["events"] for record in report.values()),
            "classes": ranked(lot),
            "generated": sorted(names),
        }
    if args.json:
        print(json.dumps(report, indent=1))
    else:
        print("\n\n".join(render(label, record) for label, record in report.items()))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
