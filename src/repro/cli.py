"""Command-line experiment and scenario runner.

Usage::

    python -m repro list                # show available experiments
    python -m repro run E8              # run one experiment, print its table
    python -m repro run all             # run everything (takes a minute)
    python -m repro run all --jobs 8    # same, on 8 worker processes
    python -m repro run E3 E8 -o out/   # also write rendered tables to files

    python -m repro scenario list                 # catalog + sweep registry
    python -m repro scenario describe mega        # one spec in full
    python -m repro scenario run city-rush-hour   # run with default seeds
    python -m repro scenario run all --jobs 4     # whole catalog, 4 workers
    python -m repro scenario run mega --seeds 1 2 # override the seed list

    python -m repro scenario run city-rush-hour --stack all         # 4 stacks,
                                                # side-by-side comparison table
    python -m repro scenario run campus-dense --stack mobileip      # 1 baseline

    python -m repro scenario sweep sparse-rural/population          # one curve
    python -m repro scenario sweep all --jobs 4 -o out/             # + figures
    python -m repro scenario sweep campus-dense/backhaul --smoke    # CI variant
    python -m repro scenario sweep flash-crowd/hotspot-fraction --stack all

    python -m repro campaign run night --scenarios all --stacks all --jobs 8
    python -m repro campaign show night             # cross-stack tables
    python -m repro campaign diff night-before night-after  # CI regressions

``--jobs N`` fans the per-seed scenario jobs out over N forked worker
processes; results are identical to a serial run for the same seeds
(see :mod:`repro.experiments.exec`).  ``scenario sweep`` submits the
union of every requested sweep's (point, seed) grid as one backend
batch, so ``sweep all --jobs N`` overlaps small sweeps with big ones.
``--stack <name|all>`` reruns the same scenarios under another
registered protocol stack (see :mod:`repro.stacks`); ``--stack all``
dispatches the whole (stack, scenario, seed) grid as ONE batch and,
for ``scenario run``, renders a side-by-side comparison table.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.experiments.exec import backend_for_jobs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the ICDCSW'02 multi-tier mobility experiments.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list experiment ids")

    run = commands.add_parser("run", help="run experiments and print tables")
    run.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (e.g. E8 T1), or 'all'",
    )
    run.add_argument(
        "-o",
        "--output-dir",
        type=pathlib.Path,
        default=None,
        help="also write each rendered table to <dir>/<id>.txt",
    )
    run.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for scenario jobs (default 1 = serial; "
        "results are identical for any N)",
    )

    scenario = commands.add_parser(
        "scenario", help="list, describe and run catalog scenarios"
    )
    verbs = scenario.add_subparsers(dest="scenario_command", required=True)

    verbs.add_parser("list", help="list the scenario catalog")

    describe = verbs.add_parser("describe", help="show one scenario spec")
    describe.add_argument("name", help="scenario name (see 'scenario list')")

    # The grid knobs 'scenario run' and 'scenario sweep' share.
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the (cell, seed) grid (default 1 = "
        "serial; results are identical for any N)",
    )
    grid.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        metavar="SEED",
        help="override every scenario's (every axis point's) seed list",
    )
    grid.add_argument(
        "--smoke",
        action="store_true",
        help="run the shrunken CI smoke variant (a sweep keeps 2 points, "
        "1 seed)",
    )
    grid.add_argument(
        "--stack",
        default=None,
        metavar="STACK",
        help="protocol stack to run under (a registered stack name, or "
        "'all' for every registered stack: side by side for 'run', one "
        "curve each for 'sweep'); default: each spec's own stack",
    )
    grid.add_argument(
        "-o",
        "--output-dir",
        type=pathlib.Path,
        default=None,
        help="also write each table to <dir>/scenario_<name>.txt or "
        "<dir>/sweep_<name>.txt, and each sweep figure beside it "
        "(.png, or .figure.txt without matplotlib)",
    )

    scenario_run = verbs.add_parser(
        "run",
        parents=[grid],
        help="replicate scenarios over seeds and print metric tables",
    )
    scenario_run.add_argument(
        "names",
        nargs="+",
        help="scenario names (see 'scenario list'), or 'all'",
    )
    scenario_run.add_argument(
        "--trace-decisions",
        action="store_true",
        help="after each table, replay the first seed in-process and "
        "print its decision trace (per-reason counts + last recorded "
        "tier decisions and fallbacks; multi-tier stack only)",
    )

    scenario_sweep = verbs.add_parser(
        "sweep",
        parents=[grid],
        help="run registered scenario sweeps: per-point CI tables + figures",
    )
    scenario_sweep.add_argument(
        "names",
        nargs="+",
        help="sweep names (see 'scenario list'), or 'all'",
    )

    campaign = commands.add_parser(
        "campaign",
        help="run a (scenario, stack, sweep, seed) grid into a results "
        "store; cross-run regression diffs",
    )
    campaign_verbs = campaign.add_subparsers(
        dest="campaign_command", required=True
    )

    campaign_run = campaign_verbs.add_parser(
        "run", help="run a grid; write manifest.json and results.json"
    )
    campaign_run.add_argument(
        "directory", type=pathlib.Path, help="campaign directory to create"
    )
    campaign_run.add_argument(
        "--scenarios",
        nargs="+",
        default=[],
        metavar="NAME",
        help="catalog scenarios to run (names, or 'all')",
    )
    campaign_run.add_argument(
        "--sweeps",
        nargs="+",
        default=[],
        metavar="NAME",
        help="registered sweeps to run (names, or 'all')",
    )
    campaign_run.add_argument(
        "--stacks",
        nargs="+",
        default=None,
        metavar="STACK",
        help="protocol stacks to cross every entry with (names, or "
        "'all'); default: each spec's own stack",
    )
    campaign_run.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        metavar="SEED",
        help="override every entry's default seed list",
    )
    campaign_run.add_argument(
        "--smoke",
        action="store_true",
        help="run the shrunken CI smoke variant of every entry",
    )
    campaign_run.add_argument(
        "--name",
        default=None,
        help="campaign name recorded in the manifest (default: the "
        "directory name)",
    )
    campaign_run.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the grid (default 1 = serial; both "
        "files are byte-identical for any N)",
    )

    campaign_show = campaign_verbs.add_parser(
        "show", help="render a store's cross-stack comparison tables"
    )
    campaign_show.add_argument(
        "directory", type=pathlib.Path, help="campaign dir or results.json"
    )

    campaign_diff = campaign_verbs.add_parser(
        "diff", help="per-metric CI regression report between two runs"
    )
    campaign_diff.add_argument(
        "run_a", type=pathlib.Path, help="first campaign dir or results.json"
    )
    campaign_diff.add_argument(
        "run_b", type=pathlib.Path, help="second campaign dir or results.json"
    )
    campaign_diff.add_argument(
        "--all",
        action="store_true",
        dest="show_all",
        help="also list the metrics whose intervals overlap (no change)",
    )
    campaign_diff.add_argument(
        "--strict",
        action="store_true",
        help="exit 3 when the report contains at least one regression",
    )
    return parser


def _expand_names(names: list[str], available: list[str], kind: str):
    """Expand 'all' and validate ``names`` against ``available``.

    Returns the concrete name list, or ``None`` after printing the
    unknown-name error (the caller exits 2).
    """
    if len(names) == 1 and names[0].lower() == "all":
        return list(available)
    known = set(available)
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown {kind}(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(available)}", file=sys.stderr)
        return None
    return list(names)


def _jobs_ok(jobs: int) -> bool:
    """Validate a --jobs value, printing the error on failure."""
    if jobs < 1:
        print(f"--jobs must be at least 1, got {jobs}", file=sys.stderr)
        return False
    return True


def _timed(call):
    """Run ``call()``; return ``(result, elapsed wall-clock seconds)``.

    Only the call itself is timed — rendering, printing and file
    writing happen after it, outside every reported duration.
    """
    started = time.perf_counter()
    result = call()
    return result, time.perf_counter() - started


def _print_completed(count: int, noun: str, elapsed: float) -> None:
    """Print the ``[N noun(s) completed in X.Xs]`` footer line."""
    label = noun if count == 1 else f"{noun}s"
    print(f"[{count} {label} completed in {elapsed:.1f}s]")


def _write_table(output_dir, stem: str, body: str):
    """Write ``body`` to ``<output_dir>/<stem>.txt``; return the path.

    ``stem`` is lower-cased with ``/`` flattened to ``_`` (sweep names
    are ``<scenario>/<axis>``).  Without ``-o`` (``output_dir`` is
    ``None``) nothing is written and ``None`` is returned.
    """
    if output_dir is None:
        return None
    output_dir.mkdir(parents=True, exist_ok=True)
    path = output_dir / f"{stem.replace('/', '_').lower()}.txt"
    path.write_text(body)
    return path


def _stack_ok(stack: str | None) -> bool:
    """Validate a --stack value eagerly, printing the error on failure.

    Accepts ``None`` (spec default), a registered stack name, or
    ``'all'``; anything else fails before any simulation runs, with
    the registered names listed.
    """
    if stack is None or stack == "all":
        return True
    from repro.stacks import get_stack

    try:
        get_stack(stack)
    except KeyError as error:
        # Reuse the registry's own message (single source of truth for
        # the registered-names listing), adding the CLI-only sentinel.
        print(f"{error.args[0]} (or 'all')", file=sys.stderr)
        return False
    return True


def _scenario_main(args: argparse.Namespace) -> int:
    from repro import scenarios

    if args.scenario_command == "list":
        for spec in scenarios.iter_scenarios():
            print(
                f"{spec.name:22s} pop={spec.population:<4d} "
                f"dur={spec.duration:<5g} domains={spec.domains}  "
                f"{spec.description}"
            )
        print()
        print("sweeps:")
        for sweep in scenarios.iter_sweeps():
            values = ", ".join(f"{v:g}" for v in sweep.values)
            print(
                f"{sweep.name:34s} {sweep.axis_label()}=({values})  "
                f"{sweep.description}"
            )
        return 0

    if args.scenario_command == "describe":
        # Scenario names first, then sweep names (disjoint by the
        # <scenario>/<axis> convention, but be permissive).
        try:
            print(scenarios.describe_scenario(args.name))
            return 0
        except KeyError:
            pass
        try:
            print(scenarios.describe_sweep(args.name))
        except KeyError:
            print(
                f"unknown scenario or sweep {args.name!r}; available "
                f"scenarios: {', '.join(scenarios.scenario_names())}; "
                f"sweeps: {', '.join(scenarios.sweep_names())}",
                file=sys.stderr,
            )
            return 2
        return 0

    # scenario run | sweep: expand -> run -> regroup ---------------------
    sweeping = args.scenario_command == "sweep"
    wanted = _expand_names(
        args.names,
        scenarios.sweep_names() if sweeping else scenarios.scenario_names(),
        "sweep" if sweeping else "scenario",
    )
    if (
        wanted is None
        or not _jobs_ok(args.jobs)
        or not _stack_ok(args.stack)
    ):
        return 2

    # ONE backend batch for the whole (entry, stack, point, seed) grid:
    # the pool's work-stealing queue balances across scenarios, sweeps,
    # stacks and axis points, so a single-seed heavyweight (mega) still
    # overlaps its neighbours under --jobs N.
    cells = scenarios.expand_grid(
        scenarios=() if sweeping else wanted,
        sweeps=wanted if sweeping else (),
        stacks=_stack_list(args.stack),
        seeds=args.seeds,
        smoke=args.smoke,
    )
    replications, elapsed = _timed(
        lambda: scenarios.run_grid(cells, backend=backend_for_jobs(args.jobs))
    )
    if sweeping:
        return _print_sweeps(
            args, scenarios.sweep_curves(cells, replications), elapsed
        )

    if args.stack == "all":
        if args.trace_decisions:
            print(
                "[--trace-decisions applies to single-stack runs; "
                "ignored with --stack all]"
            )
        # Cross-stack mode: each scenario renders a side-by-side
        # comparison table across every registered stack.
        comparisons = scenarios.stack_comparisons(cells, replications)
        for comparison in comparisons:
            text = scenarios.format_stack_comparison(comparison)
            print(text)
            print()
            _write_table(
                args.output_dir,
                f"scenario_{comparison.spec.name}_stacks",
                text + "\n",
            )
        _print_completed(len(comparisons), "stack comparison", elapsed)
        return 0

    for cell, replication in zip(cells, replications):
        spec, seeds = cell.spec, cell.seeds
        text = scenarios.format_scenario_result(spec, replication, seeds)
        print(text)
        print()
        if args.trace_decisions:
            # Replay the first seed in-process (byte-identical run; the
            # trace is observation, not behavior) and show its ring.
            _metrics, trace = scenarios.run_scenario_trace(spec, seeds[0])
            if trace is None:
                print(
                    f"[no decision trace: stack {spec.stack!r} makes "
                    f"no tier decisions]"
                )
            else:
                print(trace.render(
                    title=f"decision trace: {spec.name} seed {seeds[0]}"
                ))
            print()
        _write_table(
            args.output_dir,
            f"scenario_{spec.name}{_stack_suffix(spec.stack)}",
            text + "\n",
        )
    _print_completed(len(cells), "scenario", elapsed)
    return 0


def _stack_list(stack: str | None):
    """The ``stacks=`` knob for a validated --stack value: ``None``
    (each spec's own stack), every registered stack, or the one named."""
    if stack is None:
        return None
    if stack == "all":
        from repro.stacks import stack_names

        return stack_names()
    return [stack]


def _stack_suffix(stack: str) -> str:
    """Output-file suffix for a non-default stack ("" for the default).

    Keeps default-stack filenames identical to pre-stacks output so the
    CI parity gates (``diff -r`` serial vs ``--jobs N``) and historical
    tooling keep working unchanged.
    """
    from repro.stacks import DEFAULT_STACK

    return "" if stack == DEFAULT_STACK else f"--{stack}"


def _print_sweeps(args: argparse.Namespace, curves, elapsed: float) -> int:
    """Print (and with ``-o`` write) each ``sweep_curves`` entry's table
    and figure; the entry's rebound base spec names the files."""
    from repro import scenarios
    from repro.experiments.runner import save_experiment_figure

    for effective, base, seeds, result in curves:
        text = scenarios.format_sweep_result(effective, result, seeds)
        print(text)
        if result.notes:
            print(f"Notes: {result.notes}")
        table_path = _write_table(
            args.output_dir,
            f"sweep_{effective.name}{_stack_suffix(base.stack)}",
            text + "\n",
        )
        if table_path is not None:
            figure_path = save_experiment_figure(
                result, args.output_dir, stem=table_path.stem
            )
            print(f"figure written to {figure_path}")
        print()
    _print_completed(len(curves), "sweep", elapsed)
    return 0


def _campaign_main(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CampaignError,
        build_manifest,
        diff_stores,
        format_campaign_diff,
        load_store,
        run_campaign,
        store_stack_comparisons,
    )

    try:
        if args.campaign_command == "run":
            from repro import scenarios
            from repro.stacks import stack_names

            if not _jobs_ok(args.jobs):
                return 2
            knobs = {}
            for kind, names, available in (
                ("scenario", args.scenarios, scenarios.scenario_names),
                ("sweep", args.sweeps, scenarios.sweep_names),
                ("stack", args.stacks, stack_names),
            ):
                if names:
                    names = _expand_names(names, available(), kind)
                    if names is None:
                        return 2
                knobs[f"{kind}s"] = names
            manifest = build_manifest(
                args.name or args.directory.name,
                seeds=args.seeds,
                smoke=args.smoke,
                **knobs,
            )
            elapsed = _timed(
                lambda: run_campaign(
                    args.directory, manifest, backend_for_jobs(args.jobs)
                )
            )[1]
            print(
                f"campaign {manifest.name!r}: {len(manifest.items)} item(s) "
                f"run in {elapsed:.1f}s; results store written to "
                f"{args.directory / 'results.json'}"
            )
            return 0

        if args.campaign_command == "show":
            from repro.scenarios import format_stack_comparison

            comparisons = store_stack_comparisons(load_store(args.directory))
            if comparisons:
                print("\n\n".join(map(format_stack_comparison, comparisons)))
            else:
                print(
                    "[no scenario in this store ran under several stacks "
                    "with the same seeds: no cross-stack table]"
                )
            return 0

        # campaign diff --------------------------------------------------
        store_a = load_store(args.run_a)
        store_b = load_store(args.run_b)
        diff = diff_stores(
            store_a,
            store_b,
            label_a=str(args.run_a),
            label_b=str(args.run_b),
        )
        print(format_campaign_diff(diff, show_all=args.show_all))
        if args.strict and diff.regressions():
            return 3
        return 0
    except CampaignError as error:
        print(f"campaign error: {error}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "scenario":
        return _scenario_main(args)

    if args.command == "campaign":
        return _campaign_main(args)

    from repro.experiments.registry import ALL_EXPERIMENTS

    if args.command == "list":
        for experiment_id, fn in ALL_EXPERIMENTS.items():
            first_line = (fn.__doc__ or "").strip().splitlines()
            summary = first_line[0] if first_line else ""
            print(f"{experiment_id:6s} {summary}")
        return 0

    wanted = _expand_names(args.experiments, list(ALL_EXPERIMENTS), "experiment")
    if wanted is None or not _jobs_ok(args.jobs):
        return 2
    backend = backend_for_jobs(args.jobs)
    for experiment_id in wanted:
        result, elapsed = _timed(
            lambda: ALL_EXPERIMENTS[experiment_id](backend=backend)
        )
        print(result.text)
        if result.notes:
            print(f"Notes: {result.notes}")
        print(f"[{experiment_id} completed in {elapsed:.1f}s]\n")
        _write_table(
            args.output_dir,
            experiment_id,
            result.text
            + (f"\n\nNotes: {result.notes}\n" if result.notes else ""),
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
