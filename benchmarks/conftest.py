"""Shared helpers for the benchmark harness.

Every bench runs its experiment once (``benchmark.pedantic`` with one
round — the workload is a full simulation, not a microbenchmark),
prints the reproduced table/figure and also writes it to
``results/<experiment>.txt`` so the output survives pytest's capture.

Every bench calls its experiment at the registry defaults, so what it
writes is byte-identical to the committed golden: a bench run leaves
``git status --short results/`` empty unless the table really changed.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture
def record_result():
    """Persist and echo an ExperimentResult."""

    def _record(result) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        safe_id = result.experiment_id.replace("/", "_").lower()
        path = RESULTS_DIR / f"{safe_id}.txt"
        body = result.text
        if result.notes:
            body += f"\n\nNotes: {result.notes}\n"
        path.write_text(body)
        print()
        print(result.text)
        if result.notes:
            print(f"Notes: {result.notes}")

    return _record


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
