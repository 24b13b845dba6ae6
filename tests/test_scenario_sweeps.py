"""Tests for the scenario sweep engine (`repro.scenarios.sweep`).

The load-bearing guarantees: a sweep's whole (point, seed) grid goes
through ONE backend batch, derived specs are re-validated immutable
copies, and every registered sweep is byte-identical serial vs
``--jobs N`` and across repeats (smoke variants, same code path).
"""

import multiprocessing

import pytest

from repro.experiments.exec import ProcessPoolBackend, SerialBackend
from repro.scenarios import catalog
from repro.scenarios import sweep as sweep_module
from repro.scenarios import (
    ScenarioSpec,
    ScenarioSweep,
    describe_sweep,
    expand_grid,
    format_sweep_result,
    get_scenario,
    get_sweep,
    iter_sweeps,
    register,
    register_sweep,
    run_grid,
    run_scenario_spec,
    scenario_names,
    sweep_curves,
    sweep_names,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="platform lacks fork")


def _tiny_sweep(**overrides) -> ScenarioSweep:
    fields = dict(
        name="sparse-rural/test-axis",
        scenario="sparse-rural",
        field="population",
        values=(2, 4),
        seeds=(1,),
        metrics=("sent", "received"),
    )
    fields.update(overrides)
    return ScenarioSweep(**fields)


class _CountingBackend(SerialBackend):
    """Serial execution that records every batch it receives."""

    def __init__(self):
        self.batches = []

    def run(self, jobs):
        self.batches.append(len(jobs))
        return super().run(jobs)


def _curve(sweep, backend=None, confidence=0.95, **knobs):
    """One sweep's result, the way ``repro scenario sweep`` gets it:
    expand -> run -> regroup."""
    cells = expand_grid(sweeps=[sweep], **knobs)
    replications = run_grid(cells, confidence, backend)
    (entry,) = sweep_curves(cells, replications, confidence)
    return entry[3]


# ----------------------------------------------------------------------
# Sweep validation
# ----------------------------------------------------------------------
def test_sweep_rejects_unknown_field():
    with pytest.raises(ValueError, match="unknown ScenarioSpec field"):
        _tiny_sweep(field="populaton")


def test_sweep_rejects_unsweepable_fields():
    unsweepable = (
        "name", "seeds", "policy", "notes",
        "mobility_mix", "traffic_mix", "roam",  # non-scalar fields
    )
    for field in unsweepable:
        with pytest.raises(ValueError, match="cannot be swept"):
            _tiny_sweep(field=field)


def test_sweep_rejects_non_monotone_axis():
    with pytest.raises(ValueError, match="monotone"):
        _tiny_sweep(values=(2, 8, 4))
    with pytest.raises(ValueError, match="monotone"):
        _tiny_sweep(values=(2, 2, 4))  # plateaus are not strict either


def test_sweep_accepts_decreasing_axis():
    assert _tiny_sweep(values=(8, 4, 2)).values == (8, 4, 2)


def test_sweep_rejects_short_empty_or_non_numeric_axis():
    with pytest.raises(ValueError, match="at least 2"):
        _tiny_sweep(values=(2,))
    with pytest.raises(ValueError, match="at least 2"):
        _tiny_sweep(values=())
    with pytest.raises(ValueError, match="numeric"):
        _tiny_sweep(values=("a", "b"))


def test_sweep_rejects_empty_metrics_seeds_and_policy_key():
    with pytest.raises(ValueError, match="metrics"):
        _tiny_sweep(metrics=())
    with pytest.raises(ValueError, match="seeds"):
        _tiny_sweep(seeds=())
    with pytest.raises(ValueError, match="empty policy key"):
        _tiny_sweep(field="policy.")


# ----------------------------------------------------------------------
# Spec derivation: immutable, re-validated rebinding
# ----------------------------------------------------------------------
def test_derive_rebinding_is_immutable_and_validated():
    base = get_scenario("sparse-rural")
    sweep = _tiny_sweep()
    derived = sweep.derive(base, 4)
    assert derived.population == 4 and base.population == 5
    assert derived.mobility_mix == base.mobility_mix
    # Integral floats coerce to int for int fields; others error.
    assert sweep.derive(base, 4.0).population == 4
    with pytest.raises(ValueError, match="integral"):
        sweep.derive(base, 4.5)


def test_derive_integrality_follows_the_annotation_not_the_value():
    # An int handed to the float-annotated `duration` field must not
    # turn the axis integral: fractional values stay legal.
    base = get_scenario("sparse-rural").replace(duration=4)
    sweep = _tiny_sweep(field="duration", values=(2.5, 5.5))
    assert sweep.derive(base, 2.5).duration == 2.5


def test_derive_invalid_value_names_the_sweep_and_value():
    base = get_scenario("sparse-rural")
    with pytest.raises(ValueError, match=r"test-axis.*population=0"):
        _tiny_sweep(values=(0, 4)).derive(base, 0)


def test_register_sweep_validates_eagerly_and_rejects_duplicates():
    with pytest.raises(KeyError, match="unknown scenario"):
        register_sweep(_tiny_sweep(scenario="no-such-scenario"))
    with pytest.raises(ValueError, match="invalid spec"):
        register_sweep(_tiny_sweep(values=(0, 4)))  # population 0
    existing = get_sweep(sweep_names()[0])
    with pytest.raises(ValueError, match="already registered"):
        register_sweep(existing)


def test_register_sweep_adds_a_fresh_name(monkeypatch):
    monkeypatch.setattr(sweep_module, "_SWEEPS", dict(sweep_module._SWEEPS))
    fresh = _tiny_sweep(name="sparse-rural/fresh-axis")
    assert register_sweep(fresh) is fresh
    assert get_sweep("sparse-rural/fresh-axis") is fresh


def test_get_sweep_unknown_name():
    with pytest.raises(KeyError, match="unknown sweep"):
        get_sweep("no-such-sweep")


# ----------------------------------------------------------------------
# Registry integrity
# ----------------------------------------------------------------------
def test_registry_ships_at_least_five_sweeps_over_real_scenarios():
    sweeps = iter_sweeps()
    assert len(sweeps) >= 5
    names = sweep_names()
    assert len(set(names)) == len(names)
    for sweep in sweeps:
        assert sweep.scenario in scenario_names()
        assert sweep.name.startswith(sweep.scenario + "/")
        assert len(sweep.values) >= 2


def test_registry_covers_the_papers_axes():
    fields = {sweep.field for sweep in iter_sweeps()}
    assert "population" in fields  # load axis
    assert "wired_bandwidth" in fields  # backhaul
    assert "hotspot_fraction" in fields  # offered-load axis
    assert "pico_cells" in fields  # cell-layout axis


def test_registered_metrics_exist_in_scenario_output():
    # Each sweep's metrics must exist in the output of its OWN derived
    # spec (the air_* keys only exist when the axis enables channels,
    # so a shared reference run would let a legacy sweep reference
    # contention-only metrics and crash mid-run instead of here).
    for sweep in iter_sweeps():
        spec = sweep.derive(
            get_scenario(sweep.scenario).smoke(), sweep.values[0]
        )
        metrics = set(run_scenario_spec(spec, seed=1))
        missing = set(sweep.metrics) - metrics
        assert not missing, f"{sweep.name} extracts unknown metrics {missing}"


# ----------------------------------------------------------------------
# Execution: one batch, correct shape, CIs
# ----------------------------------------------------------------------
def test_sweep_scenario_dispatches_one_batch_for_the_whole_grid():
    backend = _CountingBackend()
    sweep = _tiny_sweep(seeds=(1, 2))
    result = _curve(sweep, backend=backend)
    assert backend.batches == [len(sweep.values) * 2]  # points x seeds, once
    assert result.x_values == list(sweep.values)
    assert set(result.series) == set(sweep.metrics)
    assert all(len(v) == len(sweep.values) for v in result.series.values())
    assert len(result.replications) == len(sweep.values)
    for replication in result.replications:
        estimate = replication.metrics["sent"]
        assert estimate.n == 2
        assert estimate.half_width >= 0.0


def test_sweep_scenario_population_axis_reaches_the_builder():
    result = _curve(_tiny_sweep(), backend=SerialBackend())
    assert result.series  # population metric reports the derived spec
    populations = [
        replication.mean("population") for replication in result.replications
    ]
    assert populations == [2.0, 4.0]


def test_sweep_scenario_smoke_shrinks_points_and_seeds():
    sweep = get_sweep("sparse-rural/population")
    result = _curve(sweep, backend=SerialBackend(), smoke=True)
    assert result.x_values == list(sweep.values[:2])
    assert all(r.metrics["sent"].n == 1 for r in result.replications)


def test_format_sweep_result_has_ci_columns_per_point():
    sweep = _tiny_sweep(seeds=(1, 2))
    result = _curve(sweep, backend=SerialBackend())
    text = format_sweep_result(sweep, result, seeds=sweep.seeds)
    lines = text.splitlines()
    assert "sent_ci95" in lines[1] and "received_ci95" in lines[1]
    assert "2 seeds/point: 1, 2" in lines[0]
    # one data row per axis point, after title + header + rule
    assert len(lines) == 3 + len(sweep.values)


def test_describe_sweep_mentions_axis_and_values():
    text = describe_sweep("campus-dense/backhaul")
    assert "wired_bandwidth" in text
    assert "campus-dense" in text and "mean_delay" in text


# ----------------------------------------------------------------------
# Determinism: the sweep engine's core guarantee
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", [sweep.name for sweep in iter_sweeps()])
def test_sweep_repeat_is_byte_identical(name):
    first = _curve(name, backend=SerialBackend(), smoke=True)
    second = _curve(name, backend=SerialBackend(), smoke=True)
    assert first.series == second.series
    assert first.text == second.text
    assert [r.samples for r in first.replications] == [
        r.samples for r in second.replications
    ]


@needs_fork
@pytest.mark.parametrize("name", [sweep.name for sweep in iter_sweeps()])
def test_sweep_serial_vs_pool_is_byte_identical(name):
    serial = _curve(name, backend=SerialBackend(), smoke=True)
    pooled = _curve(name, backend=ProcessPoolBackend(2), smoke=True)
    assert serial.series == pooled.series
    assert [r.samples for r in serial.replications] == [
        r.samples for r in pooled.replications
    ]
    smoke = get_sweep(name).smoke()
    assert format_sweep_result(smoke, serial) == format_sweep_result(
        smoke, pooled
    )


def _register_base(monkeypatch, **fields):
    """Register a small custom base spec in a scratch catalog."""
    monkeypatch.setattr(catalog, "_REGISTRY", dict(catalog._REGISTRY))
    return register(ScenarioSpec(
        description="test spec",
        population=3,
        duration=3.0,
        mobility_mix={"stationary": 1.0},
        traffic_mix={"poisson-data": 0.5, "idle": 0.5},
        **fields,
    ))


def test_custom_base_spec(monkeypatch):
    _register_base(monkeypatch, name="tiny-sweep-base", seeds=(7,))
    sweep = _tiny_sweep(scenario="tiny-sweep-base", values=(2, 3))
    result = _curve(sweep)
    assert [r.mean("population") for r in result.replications] == [2.0, 3.0]


def test_custom_base_spec_with_smoke(monkeypatch):
    # The base satisfies the whole run, smoke seed resolution included.
    _register_base(monkeypatch, name="tiny-smoke-base", seeds=(5, 6))
    sweep = _tiny_sweep(scenario="tiny-smoke-base", seeds=None)
    result = _curve(sweep, smoke=True)
    assert result.x_values == [2, 4]
    assert all(r.metrics["sent"].n == 1 for r in result.replications)


def test_ci_column_label_follows_the_computed_confidence():
    sweep = _tiny_sweep(seeds=(1, 2))
    result = _curve(sweep, backend=SerialBackend(), confidence=0.99)
    text = format_sweep_result(sweep, result)
    assert "sent_ci99" in text and "ci95" not in text


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_scenario_list_includes_sweeps(capsys):
    from repro.cli import main

    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in sweep_names():
        assert name in out


def test_cli_scenario_describe_resolves_sweeps(capsys):
    from repro.cli import main

    assert main(["scenario", "describe", "flash-crowd/hotspot-fraction"]) == 0
    assert "hotspot_fraction" in capsys.readouterr().out


def test_cli_sweep_rejects_unknown_and_bad_jobs(capsys):
    from repro.cli import main

    assert main(["scenario", "sweep", "nope/axis"]) == 2
    assert "unknown sweep" in capsys.readouterr().err
    assert main(["scenario", "sweep", "sparse-rural/population", "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_cli_sweep_smoke_writes_table_and_figure(capsys, tmp_path):
    from repro.cli import main

    argv = [
        "scenario", "sweep", "sparse-rural/population", "--smoke",
        "-o", str(tmp_path),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    table = tmp_path / "sweep_sparse-rural_population.txt"
    assert table.exists()
    assert table.read_text().strip() in out
    figures = [
        path
        for path in tmp_path.iterdir()
        if path.name.startswith("sweep_sparse-rural_population.figure")
        or path.suffix == ".png"
    ]
    assert figures, "sweep must emit a figure file"
    assert "figure written to" in out


@needs_fork
def test_cli_sweep_jobs_flag_matches_serial_output(capsys, tmp_path):
    from repro.cli import main

    serial_dir, pooled_dir = tmp_path / "serial", tmp_path / "pooled"
    argv = ["scenario", "sweep", "sparse-rural/population", "--smoke"]
    assert main(argv + ["-o", str(serial_dir)]) == 0
    serial_out = capsys.readouterr().out
    assert main(argv + ["--jobs", "2", "-o", str(pooled_dir)]) == 0
    pooled_out = capsys.readouterr().out
    # Strip wall-clock and path lines; everything else must match.
    strip = lambda text: [
        line
        for line in text.splitlines()
        if not line.startswith(("[", "figure written to"))
    ]
    assert strip(serial_out) == strip(pooled_out)
    serial_files = sorted(p.name for p in serial_dir.iterdir())
    assert serial_files == sorted(p.name for p in pooled_dir.iterdir())
    for name in serial_files:
        assert (serial_dir / name).read_bytes() == (
            pooled_dir / name
        ).read_bytes(), f"{name} differs between serial and --jobs 2"
