"""Tests for the experiment harness: replication, sweeps, the scheme
baselines and the CLI."""

import math

import pytest

from repro.experiments.baselines import SCHEMES, roam
from repro.experiments.registry import ALL_EXPERIMENTS
from repro.experiments.runner import replicate_cells, sweep


def test_replicate_aggregates_metrics():
    def scenario(seed):
        return {"value": float(seed), "constant": 2.0}

    (replication,) = replicate_cells([(scenario, [1, 2, 3])])
    assert replication.mean("value") == pytest.approx(2.0)
    assert replication["constant"].half_width == 0.0
    assert replication.samples["value"] == [1.0, 2.0, 3.0]


def test_replicate_confidence_interval_contains_mean():
    def scenario(seed):
        return {"value": float(seed % 5)}

    (replication,) = replicate_cells([(scenario, range(20))])
    estimate = replication["value"]
    assert estimate.low <= estimate.mean <= estimate.high
    assert estimate.n == 20


def test_sweep_builds_series_and_text():
    def scenario(x, seed):
        return {"doubled": 2.0 * x, "seeded": float(seed)}

    result = sweep(
        "TEST",
        "a test sweep",
        "x",
        [1, 2, 3],
        scenario,
        seeds=[1, 2],
        columns=["doubled", "seeded"],
    )
    assert result.series["doubled"] == [2.0, 4.0, 6.0]
    assert result.series["seeded"] == [1.5, 1.5, 1.5]
    assert "a test sweep" in result.text


def test_sweep_renders_a_case_table_with_renamed_headers():
    """The one assembler covers what the hand-rolled E-series tables
    did: label rows, headers that differ from the metric names, a
    metric one row lacks, and counts printed without a decimal point."""
    cases = {"short": 5, "long": 1200}

    def scenario(case, seed):
        metrics = {"hops": cases[case], "delay": 0.25 * seed}
        if case == "long":
            metrics["detour"] = 3
        return metrics

    result = sweep(
        "TEST",
        "a case table",
        "case",
        list(cases),
        scenario,
        seeds=[1, 3],
        columns={"hops": "msg-hops", "delay": "delay_s", "detour": "detour"},
    )
    assert result.x_values == ["short", "long"]
    # Series are keyed by metric name; the header only shows in the text.
    assert result.series["hops"] == [5.0, 1200.0]
    assert result.series["delay"] == [0.5, 0.5]
    assert math.isnan(result.series["detour"][0])
    assert result.series["detour"][1] == 3.0
    assert result.text.splitlines() == [
        "a case table",
        " case   msg-hops  delay_s  detour",
        "-----  ---------  -------  ------",
        "short          5      0.5     nan",
        " long  1.200e+03      0.5       3",
    ]


def test_all_experiments_registry_complete():
    expected = {
        "E1", "E2", "E3", "E4", "E5/E6", "E7", "E7b", "E8", "E8b", "E9",
        "E10", "E11", "T1", "T2", "V1", "AB1", "AB2",
    }
    assert set(ALL_EXPERIMENTS) == expected


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_baseline_schemes_produce_complete_metrics(scheme):
    metrics = roam(SCHEMES[scheme](), handoffs=2, handoff_interval=1.0, duration=4.0)
    for key in ("loss_rate", "mean_delay", "jitter", "max_gap", "sent", "received"):
        assert key in metrics
        assert not math.isnan(metrics[key]) or key == "mean_delay"
    assert metrics["sent"] > 0
    assert 0.0 <= metrics["loss_rate"] <= 1.0
    assert metrics["received"] <= metrics["sent"]


#: The experiments that draw no random stream and so default to one seed.
SEED_BLIND = (
    "E1", "E2", "E3", "E4", "E5/E6", "E7", "E7b", "E8", "E8b", "E10",
    "AB1", "AB2",
)


@pytest.mark.parametrize("experiment_id", SEED_BLIND)
def test_seed_blind_experiments_print_the_same_table_under_any_seed(experiment_id):
    """One seed is the whole replication only while the table ignores
    it; an experiment that gains a random stream fails here and goes
    back to ``DEFAULT_SEEDS``."""
    experiment = ALL_EXPERIMENTS[experiment_id]
    assert experiment(seeds=(1,)).text == experiment(seeds=(2,)).text


def test_e8_ordering_holds_on_single_seed():
    """The headline ordering must hold even without averaging."""
    results = {
        name: roam(SCHEMES[scheme](), handoffs=4, handoff_interval=1.5, duration=8.0)
        for name, scheme in (
            ("mip", "mobile-ip"),
            ("hard", "cip-hard"),
            ("semisoft", "cip-semisoft"),
            ("rsmc", "multitier-rsmc"),
        )
    }
    assert results["mip"]["loss_rate"] > results["hard"]["loss_rate"]
    assert results["hard"]["loss_rate"] >= results["semisoft"]["loss_rate"]
    assert results["rsmc"]["loss_rate"] <= results["hard"]["loss_rate"]
    assert results["mip"]["mean_delay"] > results["hard"]["mean_delay"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_list(capsys):
    from repro.cli import main

    assert main(["list"]) == 0
    output = capsys.readouterr().out
    assert "E8" in output and "T1" in output


def test_cli_run_writes_output(tmp_path, capsys):
    from repro.cli import main

    assert main(["run", "T1", "-o", str(tmp_path)]) == 0
    output = capsys.readouterr().out
    assert "T1:" in output
    assert (tmp_path / "t1.txt").exists()


def test_cli_rejects_unknown_experiment(capsys):
    from repro.cli import main

    assert main(["run", "E99"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_cli_jobs_flag_matches_serial_output(capsys):
    from repro.cli import main

    assert main(["run", "T1"]) == 0
    serial_output = capsys.readouterr().out

    assert main(["run", "T1", "--jobs", "2"]) == 0
    parallel_output = capsys.readouterr().out

    # Identical tables (timing lines differ).
    assert serial_output.splitlines()[:-2] == parallel_output.splitlines()[:-2]


def test_cli_rejects_bad_jobs(capsys):
    from repro.cli import main

    assert main(["run", "T1", "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err
