"""V1: simulator-vs-analysis validation table.

Compares the simulated channel-pool blocking probabilities against
Erlang-B and the guard-channel birth-death model — the credibility
check behind every admission-control number in E7/E7b.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.analysis import erlang_b, guard_channel_blocking
from repro.experiments.runner import ExperimentResult
from repro.metrics.tables import format_table
from repro.multitier.basestation import GuardedChannelPool
from repro.sim import RandomStreams, Simulator


def simulate_blocking(servers, guard, new_load, handoff_load, duration, seed):
    """Simulate a guarded loss system; returns (P_block_new, P_drop_ho)."""
    sim = Simulator()
    pool = GuardedChannelPool(capacity=servers, guard=guard)
    streams = RandomStreams(seed)
    counts = {"new": 0, "new_blocked": 0, "ho": 0, "ho_blocked": 0}

    def hold_then_release(request, holding):
        def proc():
            yield sim.timeout(holding)
            pool.release(request)

        sim.process(proc())

    def arrival_stream(kind, rate, admit):
        def proc():
            while True:
                yield sim.timeout(streams.exponential(f"{kind}-gap", 1.0 / rate))
                counts[kind] += 1
                request = admit()
                if request is None:
                    counts[f"{kind}_blocked"] += 1
                else:
                    hold_then_release(
                        request, streams.exponential(f"{kind}-hold", 1.0)
                    )

        sim.process(proc())

    arrival_stream("new", new_load, pool.admit_new_call)
    if handoff_load > 0:
        arrival_stream("ho", handoff_load, pool.admit_handoff)
    sim.run(until=duration)
    p_new = counts["new_blocked"] / max(counts["new"], 1)
    p_ho = counts["ho_blocked"] / max(counts["ho"], 1) if handoff_load else 0.0
    return p_new, p_ho


def build_validation_table():
    cases = [
        # (servers, guard, new_load, handoff_load)
        (4, 0, 3.0, 0.0),
        (8, 0, 6.0, 0.0),
        (8, 2, 4.0, 2.0),
        (16, 2, 10.0, 3.0),
    ]
    rows = []
    for servers, guard, new_load, handoff_load in cases:
        if guard == 0 and handoff_load == 0.0:
            analytic_new = erlang_b(servers, new_load)
            analytic_ho = 0.0
        else:
            analytic_new, analytic_ho = guard_channel_blocking(
                servers, guard, new_load, handoff_load
            )
        sims = [
            simulate_blocking(servers, guard, new_load, handoff_load, 4000.0, seed)
            for seed in (1, 2, 3)
        ]
        sim_new = float(np.mean([s[0] for s in sims]))
        sim_ho = float(np.mean([s[1] for s in sims]))
        rows.append(
            [
                f"c={servers} g={guard} a_n={new_load} a_h={handoff_load}",
                analytic_new,
                sim_new,
                analytic_ho,
                sim_ho,
            ]
        )
    text = format_table(
        ["case", "analytic_P_new", "sim_P_new", "analytic_P_ho", "sim_P_ho"],
        rows,
        title="V1: channel blocking, simulation vs closed form",
    )
    return ExperimentResult(
        experiment_id="V1",
        title="Simulator validation against Erlang-B / guard-channel models",
        x_label="case",
        x_values=[row[0] for row in rows],
        series={
            "analytic_P_new": [row[1] for row in rows],
            "sim_P_new": [row[2] for row in rows],
            "analytic_P_ho": [row[3] for row in rows],
            "sim_P_ho": [row[4] for row in rows],
        },
        text=text,
        notes="The kernel's guarded channel pools reproduce classic "
        "teletraffic results, so E7/E7b blocking numbers are trustworthy.",
    )


def test_bench_v1_blocking_validation(benchmark, record_result):
    result = run_once(benchmark, build_validation_table)
    record_result(result)

    for analytic, simulated in zip(
        result.series["analytic_P_new"], result.series["sim_P_new"]
    ):
        assert abs(simulated - analytic) < max(0.15 * analytic, 0.01)
    for analytic, simulated in zip(
        result.series["analytic_P_ho"], result.series["sim_P_ho"]
    ):
        assert abs(simulated - analytic) < max(0.25 * analytic, 0.01)
