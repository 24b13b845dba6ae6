"""Shared fixture for the benchmark harness.

Every bench runs its experiment once (``benchmark.pedantic`` with one
round: the workload is a full simulation, not a microbenchmark) at the
registry defaults and asserts the shape of its table or figure: the
paper's orderings and trends.  The benches write nothing: each table's
bytes are pinned in ``results/`` and checked by ``python
tools/goldens.py check``, and timings live in ``perf/``.
"""

import pytest


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return lambda experiment: benchmark.pedantic(experiment, rounds=1, iterations=1)
