"""One repetition of one workload: import, derive, build, execute, check.

Run as a script this is the fresh child process the harness starts for
every repetition (closed loop, one at a time); it prints one JSON
record on its last line of standard output.  ``setup_s`` counts from
``_STARTED`` below, so it covers the imports that follow it.
"""

import sys
import time
from pathlib import Path

if __name__ == "__main__":
    # Import ``perf`` as a package from the checkout root: with the
    # script directory first on the path, perf/trace.py would shadow
    # the standard library's ``trace``.
    _root = Path(__file__).resolve().parent.parent
    sys.path[0:1] = [str(_root), str(_root / "src")]

    from perf import yardstick

    _YARDSTICK = yardstick.reading()
    _STARTED = time.perf_counter()

import argparse
import cProfile
import hashlib
import json
import math
import resource
from contextlib import contextmanager

from perf import trace, workloads, yardstick


class EventCounter:
    """Events processed by every ``Simulator`` built while observing.

    Worlds run one after another, so a simulator is finished by the time
    the next one is constructed: its count is taken then and only the
    newest instance is held.  Holding them all would keep every finished
    world of an all-stacks repetition alive and inflate ``peak_rss_mb``.
    """

    def __init__(self) -> None:
        self._retired = 0
        self._newest = None

    def saw(self, simulator) -> None:
        if self._newest is not None:
            self._retired += self._newest.events_processed
        self._newest = simulator

    @property
    def events(self) -> int:
        newest = self._newest.events_processed if self._newest is not None else 0
        return self._retired + newest


@contextmanager
def observed_simulators():
    """Count events on every ``Simulator`` constructed inside the block.

    Event counts are read from the instances the harness sees being
    constructed, not from ``built.world.sim`` or ``built.sim``: where a
    stack keeps its simulator differs per stack and is not public API.
    """
    from repro.sim import Simulator

    counter = EventCounter()
    original = Simulator.__init__

    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        counter.saw(self)

    Simulator.__init__ = __init__
    try:
        yield counter
    finally:
        Simulator.__init__ = original


def check_run(label: str, metrics: dict, common: tuple) -> list[str]:
    """Invariants every simulation run must satisfy, as error strings."""
    errors = [
        f"{label}: {key} is {metrics.get(key)!r}"
        for key in common
        if not math.isfinite(metrics.get(key, math.nan))
    ]
    if errors:
        return errors
    if metrics["received"] > metrics["sent"]:
        errors.append(f"{label}: received {metrics['received']} > sent {metrics['sent']}")
    if metrics["attached"] > metrics["population"]:
        errors.append(
            f"{label}: attached {metrics['attached']} > population {metrics['population']}"
        )
    return errors


def result_digest(runs: list, common: tuple) -> str:
    """SHA-256 over every run's ``COMMON_METRICS`` values.

    ``repr`` of the floats in canonical key order, so two digests agree
    only if every simulated statistic is bit-identical.  Stack-specific
    extras are left out so a later change may add namespaced keys.
    """
    digest = hashlib.sha256()
    for label, _spec, metrics in runs:
        digest.update(f"[{label}]\n".encode())
        for key in common:
            digest.update(f"{key}={metrics[key]!r}\n".encode())
    return digest.hexdigest()


def measure(
    name: str,
    seed: int,
    quick: bool = False,
    profile: bool = False,
    began: tuple[float, float] | None = None,
) -> dict:
    """Run one repetition in this process and return its record.

    ``began`` is ``(yardstick reading, clock)`` from just before set-up
    began (the child passes what its first statements took); by
    default, now.  ``setup_s`` and ``wall_s`` are quoted at the
    reference speed of perf/yardstick.py, from the readings on either
    side of each; the measured seconds are kept as ``setup_raw_s`` and
    ``execute_s``.  With ``profile`` the ``execute`` span runs under
    ``cProfile`` and the record carries the per-layer costs; its
    timings are then not end-to-end numbers.
    """
    log = trace.SpanLog(f"{name}/{seed}")
    passes = 1 if quick else yardstick.PASSES
    yard_setup, started = began or (yardstick.reading(passes), time.perf_counter())
    with log.span("rep"):
        with log.span("import"):
            import repro.scenarios  # noqa: F401 - pulls in every layer
            from repro.stacks import COMMON_METRICS
        with observed_simulators() as counter:
            with log.span("derive"):
                specs = workloads.derive(name, quick)
            with log.span("build") as build_span:
                execute = workloads.build(name, specs, seed)
            with log.span("yardstick"):
                yard_before = yardstick.reading(passes)
            profiler = cProfile.Profile() if profile else None
            with log.span("execute"):
                if profiler:
                    profiler.enable()
                runs = execute()
                if profiler:
                    profiler.disable()
            with log.span("yardstick"):
                yard_after = yardstick.reading(passes)
        with log.span("check"):
            errors = [
                error
                for label, _spec, metrics in runs
                for error in check_run(label, metrics, COMMON_METRICS)
            ]
            events = counter.events
            hops = sum(metrics.get("hop_total", 0.0) for _label, _spec, metrics in runs)
            errors += [
                f"{what} is 0"
                for what, count in (("sim.events", events), ("hop_total", hops))
                if count == 0
            ]
            digest = None if errors else result_digest(runs, COMMON_METRICS)
    record = {
        "workload": name,
        "seed": seed,
        "errors": errors,
        "digest": digest,
        "runs": len(runs),
        "spans": log.spans,
    }
    if errors:
        return record
    sim_s = sum(spec.warmup + spec.duration + spec.drain for _label, spec, _metrics in runs)
    setup_raw_s = build_span["end"] - started
    execute_s = log.seconds("execute")
    quoted_s = yardstick.at_reference_speed(execute_s, yard_before, yard_after)
    # This scenario seed's input may be larger or smaller than the
    # workload's nominal repetition; quote the time at the nominal size.
    wall_s = quoted_s * workloads.WORKLOADS[name].nominal_hops / hops
    record.update({
        "setup_s": yardstick.at_reference_speed(setup_raw_s, yard_setup, yard_before),
        "wall_s": wall_s,
        "sim_s_per_wall_s": sim_s / wall_s,
        "hops_per_wall_s": hops / quoted_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_raw_s": setup_raw_s,
        "execute_s": execute_s,
        "yardstick_s": [yard_setup, yard_before, yard_after],
        "sim_s": sim_s,
        "hops": hops,
        "events": events,
    })
    if profiler:
        costs = trace.layer_costs(profiler)
        record["layers"] = {
            **costs,
            **trace.derived_counts(costs, events, hops),
            # Imports finish before the profiler starts, so this is the
            # untraced cost of a fresh interpreter importing the program.
            "scenarios.import_s": log.seconds("import"),
        }
    return record


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    record = measure(
        args.workload, args.seed, args.quick, args.profile, began=(_YARDSTICK, _STARTED)
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
