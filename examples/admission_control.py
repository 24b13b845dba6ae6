#!/usr/bin/env python3
"""Air-interface admission control and the explainable policy engine.

Three stops: (1) the same contended `campus-air` scenario run with the
default never-reject policy and with `admission_factor=0.25` — the
constrained run shows nonzero `policy.admission_reject` and
`policy.escalate_tier` counters, the paper's §3.2 "turn to ask" the
next tier behavior; (2) the decision trace behind those counters —
every tier decision and fallback with its machine-readable reasons;
(3) a `policy.speed_threshold` point from the shipped sweep axis, to
show policy knobs sweep like any spec field.

Run:  PYTHONPATH=src python examples/admission_control.py
"""

from repro.policy import PolicyConfig
from repro.scenarios import (
    expand_grid,
    get_scenario,
    run_grid,
    run_scenario_trace,
    sweep_curves,
)


def admission_comparison() -> None:
    """campus-air: default admission (never reject) vs factor 0.25."""
    base = get_scenario("campus-air")
    seed = base.seeds[0]
    constrained = base.replace(policy=PolicyConfig(admission_factor=0.25))

    default_metrics, _ = run_scenario_trace(base, seed)
    tight_metrics, trace = run_scenario_trace(constrained, seed)

    print(f"campus-air, seed {seed}: admission off vs factor 0.25")
    rows = [
        ("attached", "attached"),
        ("blocked_attaches", "blocked_attaches"),
        ("handoffs", "handoffs"),
        ("loss_rate", "loss_rate"),
    ]
    print(f"  {'metric':24s} {'admission off':>14s} {'factor 0.25':>14s}")
    for label, key in rows:
        print(
            f"  {label:24s} {default_metrics[key]:14.4g} "
            f"{tight_metrics[key]:14.4g}"
        )
    # policy.* keys exist only on the non-default-policy run: metric
    # gating keeps default-run tables byte-identical to the goldens.
    assert not any(k.startswith("policy.") for k in default_metrics)
    print("  policy.* (constrained run only):")
    for key in ("policy.decisions", "policy.admission_reject",
                "policy.escalate_tier", "policy.retry_same_tier"):
        print(f"  {key:24s} {'':>14s} {tight_metrics[key]:14g}")
    assert tight_metrics["policy.admission_reject"] > 0
    assert tight_metrics["policy.escalate_tier"] > 0
    return trace


def trace_tail(trace) -> None:
    """The narrative behind the counters: reasons on every record."""
    print()
    print(trace.render(title="decision trace (constrained run)", limit=6))
    assert all(record.reasons for record in trace.records)


def sweep_point_demo() -> None:
    """policy.speed_threshold sweeps like any other spec axis."""
    print()
    cells = expand_grid(sweeps=["city-rush-hour/speed-threshold"], smoke=True)
    ((_sweep, _base, _seeds, result),) = sweep_curves(cells, run_grid(cells))
    print(
        f"sweep {result.experiment_id}: speed_threshold axis "
        f"{result.x_values} -> handoffs "
        f"{[round(r.metrics['handoffs'].mean, 2) for r in result.replications]}"
    )


def main() -> None:
    trace = admission_comparison()
    trace_tail(trace)
    sweep_point_demo()


if __name__ == "__main__":
    main()
