"""Census of dispatched kernel entries, by kind.

What does the simulator spend its event loop *on*?  ``sim.events`` of
the perf harness is one number; this tool splits it, exactly and
deterministically, by what each dispatched heap entry was:

* a ``call_later`` entry by its target's ``__qualname__`` — and for
  ``Link._deliver`` by the class of the link's tail node and the
  packet's protocol (``Link._deliver[BaseStation,data]``);
* an event entry by the event's class and its first callback — with
  the generator of the process it resumes
  (``Timeout -> Process._resume[CBRSource._run]``) or, through a live
  condition, will resume
  (``Event -> Condition._check[ElasticSource._run]``); a bare
  ``Condition._check`` is a condition already decided (a spent
  deadline), ``nothing`` an event nobody waits on.

It is done from outside: while counting, the ``heappop`` the kernel's
dispatch loop calls is wrapped, so every entry is seen as it leaves the
queue, before it runs, and nothing in ``src/`` knows.  Counts only — no
timing — so two runs print the same bytes, and every run checks that
its kinds sum to the simulators' ``events_processed``.  Each run also
lists why its packets were dropped: the simulators' ``drop_totals``,
by cause; and why its mobiles' moves were refused: the decision
trace's ``refusals``, by move and reason (JSON keys ``move:reason``).

Run from the repository root::

    python tools/event_census.py campus-dense --smoke --stack all
    python tools/event_census.py perf:stacks-campus --seed 6 --json

``SCENARIO`` is a catalog scenario (``--stack`` rebinds it; ``all``
runs every registered stack, one table each and one for the lot) or
``perf:WORKLOAD``, the specs of a ``perf/workloads.py`` workload
(``--seed 6`` is the scenario seed of the traced ``--seed 1``
repetition ROADMAP's tables quote).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from collections import Counter
from contextlib import contextmanager

ROOT = pathlib.Path(__file__).resolve().parent.parent


def kind_of(target, args) -> str:
    """The kind of one heap entry ``(..., target, args)``."""
    if args is not None:  # a call_later entry: target(*args)
        name = getattr(target, "__qualname__", type(target).__qualname__)
        if name == "Link._deliver":
            link, packet = args
            name += f"[{type(link.tail).__name__},{packet.protocol}]"
        return name
    event = type(target).__name__
    if not target.callbacks:
        return f"{event} -> nothing"
    first = waiter = target.callbacks[0]
    name = getattr(first, "__qualname__", type(first).__qualname__)
    if name == "Condition._check" and first.__self__.callbacks:
        waiter = first.__self__.callbacks[0]  # who the live condition is for
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


def planned_runs(scenario: str, stack: str | None, smoke: bool) -> list[tuple]:
    """``[(label, spec), ...]``: the simulation runs ``scenario`` names."""
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
        runs += [(f"{spec.name}/{s}", spec.replace(stack=s)) for s in stacks]
    return runs


def ranked(kinds: Counter) -> dict[str, int]:
    """``kinds`` by falling count, ties by name."""
    return dict(sorted(kinds.items(), key=lambda item: (-item[1], item[0])))


def census_of(spec, seed: int) -> dict:
    """Build and execute one run; its record for the report."""
    from repro.net import drop_totals
    from repro.scenarios import build_scenario

    with counting() as (kinds, simulators):
        built = build_scenario(spec, seed)
        built.execute()
    events = sum(simulator.events_processed for simulator in simulators)
    drops: Counter = Counter()
    for simulator in simulators:
        drops.update(drop_totals(simulator))
    refusals = {
        f"{move}:{reason}": count
        for (move, reason), count in built.decision_trace.refusals.items()
    }
    return {
        "events": events, "kinds": ranked(kinds), "drops": ranked(drops),
        "refusals": ranked(refusals),
    }


def render(label: str, record: dict) -> str:
    """One run's table: count, share of all entries, kind; then count,
    share of all drops, cause; then count, share of all refused moves,
    move and reason."""
    total = record["events"]
    lines = [f"{label}: {total} kernel entries"]
    for kind, count in record["kinds"].items():
        lines.append(f"  {count:9d}  {count / total:6.1%}  {kind}")
    dropped = sum(record["drops"].values())
    lines.append(f"{label}: {dropped} packets dropped")
    for cause, count in record["drops"].items():
        lines.append(f"  {count:9d}  {count / dropped:6.1%}  {cause}")
    refused = sum(record["refusals"].values())
    lines.append(f"{label}: {refused} moves refused")
    for refusal, count in record["refusals"].items():
        lines.append(f"  {count:9d}  {count / refused:6.1%}  {refusal}")
    return "\n".join(lines)


def parse_arguments(doc: str, argv: list[str]) -> argparse.Namespace:
    """The command line the census tools share; ``doc`` heads ``--help``."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("scenario", metavar="SCENARIO",
                        help="catalog scenario name, or perf:WORKLOAD")
    parser.add_argument("--stack", help="registered stack, or 'all'")
    parser.add_argument("--seed", type=int,
                        help="scenario seed (default: the spec's first)")
    parser.add_argument("--smoke", action="store_true",
                        help="the shrunken CI variant of every spec")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON document instead of tables")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    """CLI entry point: run, count, print; exit 1 on a miscount."""
    args = parse_arguments(__doc__, argv)
    report: dict[str, dict] = {}
    for label, spec in planned_runs(args.scenario, args.stack, args.smoke):
        seed = spec.seeds[0] if args.seed is None else args.seed
        report[label] = record = census_of(spec, seed)
        counted = sum(record["kinds"].values())
        if counted != record["events"]:
            print(f"{label}: kinds sum to {counted}, "
                  f"events_processed is {record['events']}", file=sys.stderr)
            return 1
    if len(report) > 1:
        lot: Counter = Counter()
        drops: Counter = Counter()
        refusals: Counter = Counter()
        for record in report.values():
            lot.update(record["kinds"])
            drops.update(record["drops"])
            refusals.update(record["refusals"])
        report["all runs"] = {
            "events": sum(lot.values()), "kinds": ranked(lot),
            "drops": ranked(drops), "refusals": ranked(refusals),
        }
    if args.json:
        print(json.dumps(report, indent=1))
    else:
        print("\n\n".join(render(label, record) for label, record in report.items()))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
