"""Tests for the execution engine: backend equivalence, per-world link
registry isolation, and the confidence passthrough in sweep()."""

import multiprocessing
import os
import pickle
import time

import pytest

from repro.experiments.ablations import experiment_t1
from repro.experiments.exec import (
    ProcessPoolBackend,
    RemoteTraceback,
    SerialBackend,
    backend_for_jobs,
)
from repro.experiments.runner import replicate_cells, sweep
from repro.multitier.architecture import MultiTierWorld

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="platform lacks fork")


def _world_scenario(seed: int) -> dict[str, float]:
    """A real simulation whose metrics include whole-world accounting.

    The hop totals are exactly the numbers a leaking (global) link
    registry would corrupt across back-to-back or concurrent runs.
    """
    world = MultiTierWorld()
    mn = world.add_mobile("mn")
    assert mn.initial_attach(world.domain1["B"])
    world.sim.run(until=2.0)
    totals = world.protocol_hop_totals()
    return {
        "hop_total": float(sum(totals.values())),
        "link_count": float(len(world.network.link_registry)),
        "seed_echo": float(seed),
    }


# ----------------------------------------------------------------------
# Backend basics
# ----------------------------------------------------------------------
def test_serial_backend_preserves_job_order():
    jobs = [lambda value=v: value for v in range(7)]
    assert SerialBackend().run(jobs) == list(range(7))


@needs_fork
def test_process_pool_preserves_job_order():
    jobs = [lambda value=v: value for v in range(11)]
    assert ProcessPoolBackend(3).run(jobs) == list(range(11))


@needs_fork
def test_process_pool_raises_original_exception_type():
    """A job failure surfaces as its original type, not RuntimeError."""

    def boom():
        raise ValueError("scenario exploded")

    with pytest.raises(ValueError, match="scenario exploded") as excinfo:
        ProcessPoolBackend(2).run([lambda: 1, boom, lambda: 3])
    # The worker-side traceback travels along as the cause.
    assert isinstance(excinfo.value.__cause__, RemoteTraceback)
    assert "scenario exploded" in str(excinfo.value.__cause__)


class _LoadsHostileError(Exception):
    """Pickles fine but cannot unpickle: BaseException.__reduce__ stores
    args=(message,), and __init__ then demands a second argument."""

    def __init__(self, key, value):
        super().__init__(f"{key}={value}")


@needs_fork
def test_process_pool_reports_exception_that_fails_to_unpickle():
    """dumps-ok/loads-fail exceptions must not crash the queue reader."""

    def boom():
        raise _LoadsHostileError("buffer", 64)

    with pytest.raises(RuntimeError, match="buffer=64") as excinfo:
        ProcessPoolBackend(2).run([lambda: 1, boom])
    assert "unpicklable exception" in str(excinfo.value)


@needs_fork
def test_process_pool_unpicklable_result_fails_instead_of_hanging():
    def returns_closure():
        return lambda: 1  # closures can't cross the result queue

    # pickling the closure raises (AttributeError / PicklingError) in
    # the worker; that original exception type reaches the caller.
    with pytest.raises((AttributeError, pickle.PicklingError, TypeError)):
        ProcessPoolBackend(2).run([lambda: 1, returns_closure, lambda: 3])


@needs_fork
def test_process_pool_fails_fast_on_first_failure(tmp_path):
    """The first failure aborts the batch: trailing jobs never run."""

    def boom():
        raise KeyError("first job dies immediately")

    def slow_marker(tag):
        def job():
            time.sleep(0.5)
            (tmp_path / f"ran-{tag}").touch()
            return tag

        return job

    # One worker claims the failing job 0 and dies; the other starts a
    # slow job at most.  The parent aborts on the failure message and
    # terminates the survivor, so nearly all of the eight slow jobs
    # never run — under the old semantics all eight completed first.
    jobs = [boom] + [slow_marker(tag) for tag in range(8)]
    started = time.perf_counter()
    with pytest.raises(KeyError):
        ProcessPoolBackend(2).run(jobs)
    elapsed = time.perf_counter() - started
    completed = len(list(tmp_path.iterdir()))
    assert completed <= 2, f"batch was not aborted: {completed} jobs finished"
    # Completing the batch would take > 4 s even perfectly parallel.
    assert elapsed < 3.0


@needs_fork
def test_process_pool_steals_work_from_busy_workers(tmp_path):
    """Dynamic claiming: fast jobs drain while one worker is stuck."""
    quick_tags = range(6)

    def slow():
        # Barrier, not a sleep: hold this worker until every quick job
        # has finished, so the test is deterministic under load.  Only
        # the *other* worker can create the markers — under the old
        # static round-robin split it would own jobs 2, 4 and 6 and the
        # barrier could never clear before the timeout.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if all((tmp_path / f"quick-{t}").exists() for t in quick_tags):
                break
            time.sleep(0.01)
        return ("slow", os.getpid())

    def quick(tag):
        def job():
            (tmp_path / f"quick-{tag}").touch()
            return (tag, os.getpid())

        return job

    results = ProcessPoolBackend(2).run([slow] + [quick(t) for t in quick_tags])
    slow_pid = results[0][1]
    quick_pids = {pid for _, pid in results[1:]}
    assert all((tmp_path / f"quick-{t}").exists() for t in quick_tags)
    assert slow_pid not in quick_pids


def test_process_pool_warns_when_degrading_to_serial(capsys):
    backend = ProcessPoolBackend(4)
    backend._can_fork = False  # simulate a fork-less platform
    assert backend.run([lambda value=v: value for v in range(3)]) == [0, 1, 2]
    err = capsys.readouterr().err
    assert "--jobs 4" in err and "serial" in err
    # The warning is once per backend, not once per batch.
    backend.run([lambda: 0])
    assert "--jobs" not in capsys.readouterr().err


def test_process_pool_no_warning_for_single_job_batches(capsys):
    backend = ProcessPoolBackend(4)
    backend._can_fork = False
    assert backend.run([lambda: 42]) == [42]
    # A one-job batch is serial on every platform; nothing degraded.
    assert capsys.readouterr().err == ""


def test_process_pool_rejects_bad_job_count():
    with pytest.raises(ValueError):
        ProcessPoolBackend(0)


def test_backend_for_jobs_selection():
    assert isinstance(backend_for_jobs(None), SerialBackend)
    assert isinstance(backend_for_jobs(1), SerialBackend)
    pool = backend_for_jobs(4)
    assert isinstance(pool, ProcessPoolBackend)
    assert pool.jobs == 4


# ----------------------------------------------------------------------
# Equivalence: identical metrics on every backend
# ----------------------------------------------------------------------
@needs_fork
@pytest.mark.parametrize("jobs", [2, 3])
def test_replicate_identical_across_backends(jobs):
    seeds = [1, 2, 3]
    (serial,) = replicate_cells([(_world_scenario, seeds)], backend=SerialBackend())
    (pooled,) = replicate_cells(
        [(_world_scenario, seeds)], backend=ProcessPoolBackend(jobs)
    )
    assert serial.samples == pooled.samples
    assert set(serial.metrics) == set(pooled.metrics)
    for name in serial.metrics:
        assert serial.metrics[name] == pooled.metrics[name]


@needs_fork
def test_sweep_identical_across_backends():
    def scenario(x, seed: int) -> dict[str, float]:
        result = _world_scenario(seed)
        result["x_echo"] = float(x)
        return result

    kwargs = dict(
        experiment_id="TEST",
        title="engine equivalence sweep",
        x_label="x",
        x_values=[1, 2],
        scenario=scenario,
        seeds=[1, 2],
        columns=["hop_total", "link_count", "x_echo"],
    )
    serial = sweep(backend=SerialBackend(), **kwargs)
    pooled = sweep(backend=ProcessPoolBackend(2), **kwargs)
    assert serial.series == pooled.series
    assert serial.text == pooled.text


@needs_fork
def test_t1_identical_across_backends():
    serial = experiment_t1(backend=SerialBackend())
    pooled = experiment_t1(backend=ProcessPoolBackend(3))
    assert serial.series == pooled.series
    assert serial.text == pooled.text


# ----------------------------------------------------------------------
# Link-registry isolation (no reset, no cross-contamination)
# ----------------------------------------------------------------------
def test_back_to_back_worlds_do_not_cross_contaminate():
    first = _world_scenario(1)
    second = _world_scenario(1)  # same workload, no reset in between
    # A class-level registry would double the second run's totals.
    assert second == first
    assert first["hop_total"] > 0


def test_link_registry_is_freed_with_its_simulator():
    """No module-level root may pin finished worlds in memory."""
    import gc
    import weakref

    world = MultiTierWorld()
    world.sim.run(until=0.5)
    assert len(world.network.link_registry) > 0
    sim_ref = weakref.ref(world.sim)
    del world
    gc.collect()
    assert sim_ref() is None


def test_world_totals_are_frozen_against_later_worlds():
    world_a = MultiTierWorld()
    mn = world_a.add_mobile("mn")
    assert mn.initial_attach(world_a.domain1["B"])
    world_a.sim.run(until=2.0)
    totals_a = world_a.protocol_hop_totals()

    world_b = MultiTierWorld()
    other = world_b.add_mobile("mn")
    assert other.initial_attach(world_b.domain1["B"])
    world_b.sim.run(until=2.0)

    assert world_a.protocol_hop_totals() == totals_a
    assert world_b.protocol_hop_totals() == totals_a  # same deterministic run


# ----------------------------------------------------------------------
# One batch of several cells and the E8 job entry point
# ----------------------------------------------------------------------
def test_replicate_grid_matches_per_scenario_replicate():
    def make_scenario(factor):
        def scenario(seed: int) -> dict[str, float]:
            return {"value": float(seed * factor)}

        return scenario

    scenarios = [make_scenario(f) for f in (1, 10)]
    grid = replicate_cells([(scenario, [1, 2, 3]) for scenario in scenarios])
    singles = [
        replicate_cells([(scenario, [1, 2, 3])])[0] for scenario in scenarios
    ]
    assert [r.samples for r in grid] == [r.samples for r in singles]
    assert [r.metrics for r in grid] == [r.metrics for r in singles]


def test_run_scheme_rejects_unknown_name():
    from repro.experiments.baselines import run_scheme

    with pytest.raises(ValueError, match="unknown scheme"):
        run_scheme("no-such-scheme", seed=1)


# ----------------------------------------------------------------------
# sweep() confidence passthrough
# ----------------------------------------------------------------------
def test_sweep_passes_confidence_through():
    def scenario(x, seed: int) -> dict[str, float]:
        return {"value": float(seed * x)}

    kwargs = dict(
        experiment_id="TEST",
        title="confidence passthrough",
        x_label="x",
        x_values=[1, 2],
        scenario=scenario,
        seeds=range(8),
        columns=["value"],
    )
    narrow = sweep(confidence=0.50, **kwargs)
    wide = sweep(confidence=0.99, **kwargs)
    assert len(narrow.replications) == 2
    for low, high in zip(narrow.replications, wide.replications):
        assert low["value"].mean == high["value"].mean
        assert low["value"].half_width < high["value"].half_width


# ----------------------------------------------------------------------
# The serial batch runs over a frozen starting heap
# ----------------------------------------------------------------------
def _failing_job():
    raise RuntimeError("job failed")


def test_serial_batch_freezes_the_starting_heap_for_the_batch_only():
    import gc

    assert gc.get_freeze_count() == 0  # nothing else in the suite freezes
    frozen = SerialBackend().run([gc.get_freeze_count, gc.get_freeze_count])
    assert all(count > 0 for count in frozen)
    assert gc.get_freeze_count() == 0
    with pytest.raises(RuntimeError, match="job failed"):
        SerialBackend().run([gc.get_freeze_count, _failing_job])
    assert gc.get_freeze_count() == 0


def test_serial_batch_keeps_a_host_freeze_as_it_found_it():
    import gc

    gc.freeze()
    try:
        host = gc.get_freeze_count()
        assert SerialBackend().run([gc.get_freeze_count]) == [host]
        assert gc.get_freeze_count() == host
        with pytest.raises(RuntimeError, match="job failed"):
            SerialBackend().run([_failing_job])
        assert gc.get_freeze_count() == host
    finally:
        gc.unfreeze()


def test_a_frozen_batch_frees_every_world_but_the_newest(monkeypatch):
    """A caller that keeps the newest simulator referenced (the perf
    harness counts events that way) must still see each earlier world
    freed by the next run's teardown: the frozen heap is the one the
    batch started with, never a world the batch made.  Automatic
    collection is off, so only the jobs' own collections free worlds."""
    import gc
    import weakref

    from repro.scenarios import get_scenario, run_scenario_spec
    from repro.sim import Simulator
    from repro.stacks import stack_names

    simulators, newest = [], []
    original = Simulator.__init__

    def keeping_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        simulators.append(weakref.ref(self))
        newest[:] = [self]

    def job(spec):
        def run():
            run_scenario_spec(spec, seed=1)
            return sum(ref() is not None for ref in simulators)

        return run

    spec = get_scenario("sparse-rural").smoke()
    monkeypatch.setattr(Simulator, "__init__", keeping_init)
    collecting = gc.isenabled()
    gc.disable()
    try:
        alive = SerialBackend().run(
            [job(spec.replace(stack=stack)) for stack in stack_names()]
        )
    finally:
        if collecting:
            gc.enable()
    assert len(simulators) == len(stack_names()) >= 3
    assert max(alive) <= 2, alive
