"""Pluggable execution backends for replications and sweeps.

The paper's evaluation (E1-E11, T1/T2) is embarrassingly parallel: every
(seed, sweep-point) pair builds its own world and its own
:class:`~repro.sim.kernel.Simulator`, so scenario jobs share no state.
:func:`repro.experiments.runner.replicate_cells` flattens a grid of
``(scenario, seeds)`` cells into a list of zero-argument *jobs* and
hands the list to an
:class:`ExecutionBackend`; the backend returns results **in job order**,
which makes aggregation deterministic regardless of how (or where) the
jobs actually ran.

Two backends ship:

* :class:`SerialBackend` — run jobs in order in the calling process.
  This is the default and produces bit-identical output to the historic
  serial code path.
* :class:`ProcessPoolBackend` — fan jobs out over forked worker
  processes.  Scenario functions are closures, which ordinary
  ``concurrent.futures`` pickling rejects, so the pool forks workers
  that inherit the closures and only pickles the *results* (plain
  metric dicts) back over a queue.  Jobs are claimed dynamically from a
  shared counter (work stealing), so heterogeneous batches — a ``mega``
  scenario next to a ``sparse-rural`` one — stay load-balanced.  The
  first job failure aborts the whole batch and the *original* exception
  type is re-raised in the parent with the worker traceback attached as
  its ``__cause__``.  On platforms without ``fork`` the backend warns
  on stderr and degrades to serial execution rather than failing.

Determinism guarantee
---------------------
A scenario derives all randomness from its seed (see
:mod:`repro.sim.rng`), builds a private simulator, and returns plain
floats.  Backends only change *where* jobs run, never their inputs or
the aggregation order, so for any job list::

    SerialBackend().run(jobs) == ProcessPoolBackend(n).run(jobs)

for every ``n`` — verified by ``tests/test_experiments_exec.py``.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import queue as queue_module
import sys
import traceback
from abc import ABC, abstractmethod
from typing import Callable, Sequence

#: A unit of work: builds its own world, returns a picklable result.
Job = Callable[[], object]


class RemoteTraceback(Exception):
    """Carries a worker-process traceback as the ``__cause__`` of the
    re-raised job exception, so the original failure site stays visible
    in the parent's traceback output."""

    def __init__(self, formatted: str) -> None:
        super().__init__(formatted)
        self.formatted = formatted

    def __str__(self) -> str:
        return f"\n\n--- worker traceback ---\n{self.formatted}"


class ExecutionBackend(ABC):
    """Strategy for running a batch of independent scenario jobs."""

    @abstractmethod
    def run(self, jobs: Sequence[Job]) -> list:
        """Run every job and return their results in job order."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__}>"


class SerialBackend(ExecutionBackend):
    """Run jobs one after another in the calling process.

    The batch runs over a frozen starting heap: what the process held
    before the first job (the import graph, the caller's data) is moved
    out of the cyclic collector's reach for the batch, so the full
    collection that frees each finished world walks only what the batch
    made.  The freeze is paired — ``gc.unfreeze()`` in a ``finally`` —
    so nothing stays hidden from the collector after the batch, and a
    process that froze its own heap already keeps its state untouched.
    Freezing is process-wide: batches run single-threaded.
    """

    def run(self, jobs: Sequence[Job]) -> list:
        if gc.get_freeze_count():
            return [job() for job in jobs]
        gc.freeze()
        try:
            return [job() for job in jobs]
        finally:
            gc.unfreeze()


def _claim_next_index(next_index) -> int:
    """Atomically claim the next unstarted job index (work stealing)."""
    with next_index.get_lock():
        index = next_index.value
        next_index.value = index + 1
    return index


def _pool_worker(results_queue, jobs, next_index) -> None:
    """Claim jobs off the shared counter and report each result.

    Runs in a forked child: ``jobs`` (closures included) arrive via the
    inherited address space, only ``(index, ok, payload)`` tuples cross
    back to the parent.  Claiming from ``next_index`` instead of a
    static round-robin split keeps heterogeneous batches balanced: a
    worker stuck on one long job stops claiming, and the others drain
    the rest.
    """
    while True:
        index = _claim_next_index(next_index)
        if index >= len(jobs):
            return
        try:
            payload = jobs[index]()
            # The queue pickles in a background feeder thread whose
            # errors vanish; pickling eagerly turns an unpicklable
            # result into an ordinary job failure instead of a lost
            # message (which would hang the parent).
            pickle.dumps(payload)
        except Exception as exc:
            # Exception only: KeyboardInterrupt/SystemExit must kill the
            # worker (the parent reports the missing results), not be
            # recorded as a job failure.
            try:
                # Full round trip: an exception can pickle fine but fail
                # to UNpickle (e.g. a multi-arg __init__), which would
                # crash the parent's queue reader instead of reporting.
                pickle.loads(pickle.dumps(exc))
                wire_exc = exc
            except Exception:
                wire_exc = None  # parent falls back to the traceback text
            results_queue.put(
                (index, False, (wire_exc, traceback.format_exc()))
            )
            # Fail fast: the batch is doomed, claim nothing further.
            return
        results_queue.put((index, True, payload))


class ProcessPoolBackend(ExecutionBackend):
    """Run jobs across ``jobs`` forked worker processes.

    Workers claim job indices dynamically from a shared counter (work
    stealing), so a batch mixing long and short jobs stays balanced.
    Results are re-ordered by job index before being returned, so
    callers observe exactly the serial ordering regardless of which
    worker ran what.

    Failure semantics: the first failing job aborts the batch — the
    remaining workers are terminated rather than allowed to finish —
    and the job's original exception is re-raised in the parent with
    the worker traceback attached as its ``__cause__``.

    Parameters
    ----------
    jobs:
        Worker process count.  ``None`` uses ``os.cpu_count()``.
    """

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self._can_fork = "fork" in multiprocessing.get_all_start_methods()
        self._warned_degrade = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ProcessPoolBackend jobs={self.jobs}>"

    def _warn_serial_degrade(self) -> None:
        """Tell the user once that their --jobs request is not honoured."""
        if self._warned_degrade:
            return
        self._warned_degrade = True
        print(
            f"repro: warning: --jobs {self.jobs} requested but this "
            "platform lacks the 'fork' start method; running jobs "
            "serially (results are identical, just slower)",
            file=sys.stderr,
        )

    def run(self, jobs: Sequence[Job]) -> list:
        """Run ``jobs`` across the worker pool; results in job order.

        Deterministic: workers only change *where* a job runs, never
        its inputs, and results are re-ordered by job index, so the
        returned list equals ``SerialBackend().run(jobs)`` for any
        worker count.  Degrades to in-process serial execution (with a
        one-time stderr warning) on platforms without ``fork``.
        """
        jobs = list(jobs)
        worker_count = min(self.jobs, len(jobs))
        if not self._can_fork:
            if worker_count > 1:
                # A real degrade: parallelism was requested and possible
                # for this batch, but the platform cannot deliver it.
                self._warn_serial_degrade()
            return [job() for job in jobs]
        if worker_count <= 1:
            # One worker: the serial path is already correct.
            return [job() for job in jobs]

        context = multiprocessing.get_context("fork")
        results_queue = context.Queue()
        next_index = context.Value("l", 0)
        workers = [
            context.Process(
                target=_pool_worker,
                args=(results_queue, jobs, next_index),
                daemon=True,
            )
            for _ in range(worker_count)
        ]
        for worker in workers:
            worker.start()

        results: list = [None] * len(jobs)
        failure: tuple[int, Exception | None, str] | None = None
        received = 0

        def record(index: int, ok: bool, payload) -> None:
            """Store one worker message; sets ``failure`` on a bad one."""
            nonlocal received, failure
            received += 1
            if ok:
                results[index] = payload
            else:
                failure = (index, *payload)

        try:
            while received < len(jobs) and failure is None:
                try:
                    record(*results_queue.get(timeout=1.0))
                except queue_module.Empty:
                    if any(w.is_alive() for w in workers):
                        continue
                    # Every worker has exited.  Drain results that raced
                    # the liveness check, then fail loudly if any are
                    # still missing — a clean exit (code 0) with lost
                    # results must error, not hang.
                    while received < len(jobs) and failure is None:
                        try:
                            record(*results_queue.get_nowait())
                        except queue_module.Empty:
                            break
                    if failure is not None:
                        break
                    if received < len(jobs):
                        codes = sorted({w.exitcode for w in workers})
                        raise RuntimeError(
                            f"worker processes exited (exit codes {codes}) "
                            f"with {len(jobs) - received} result(s) missing"
                        )
                # Fail fast: the loop condition aborts the batch on the
                # first failure instead of letting the rest complete.
        finally:
            if failure is not None:
                for worker in workers:
                    worker.terminate()
            for worker in workers:
                worker.join(timeout=5.0)
                if worker.is_alive():  # pragma: no cover - defensive
                    worker.terminate()

        if failure is not None:
            index, exc, formatted = failure
            if exc is not None:
                # Re-raise the original exception type; the remote
                # traceback rides along as the cause.
                raise exc from RemoteTraceback(formatted)
            raise RuntimeError(
                f"job {index} failed with an unpicklable exception:\n"
                f"{formatted}"
            )
        return results


def backend_for_jobs(jobs: int | None) -> ExecutionBackend:
    """The natural backend for a ``--jobs N`` request."""
    if jobs is None or jobs <= 1:
        return SerialBackend()
    return ProcessPoolBackend(jobs)


__all__ = [
    "ExecutionBackend",
    "Job",
    "ProcessPoolBackend",
    "RemoteTraceback",
    "SerialBackend",
    "backend_for_jobs",
]
