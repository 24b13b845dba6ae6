"""Spans around the calls into the program, and self time per layer.

Both are recorded from the benchmark's own files: spans wrap the
harness's calls (``import``, ``derive``, ``build``, ``execute``,
``check``), and inside ``execute`` a ``cProfile`` run attributes every
function's self time and call count to the package that owns it.
Spans stay in memory and are written out once, when the repetition
ends.  ``cProfile`` taxes every Python call but not the work inside
native code, so the shares lean towards call-heavy layers: use them to
find a layer, and the untraced end-to-end metrics to measure it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import PurePath

#: The layers: the packages under ``src/repro/`` that run inside a
#: simulation, plus ``other`` (builtins, stdlib, third-party, and the
#: harness's own frames).
LAYERS = (
    "sim", "net", "radio", "mobility", "traffic", "policy", "multitier",
    "cellularip", "mobileip", "fluid", "stacks", "scenarios",
    "experiments", "metrics", "analysis", "other",
)


class SpanLog:
    """In-memory span records: name, start, end, parent id, run id."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; spans opened inside it become its children."""
        record = {
            "id": len(self.spans),
            "run": self.run_id,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> float:
        """Duration of the (single) span called ``name``."""
        (record,) = [span for span in self.spans if span["name"] == name]
        return record["end"] - record["start"]


def layer_of(filename: str) -> str:
    """The layer owning ``filename``: its package under ``repro/``.

    Anything else — stdlib, third-party, builtins (``~``), top-level
    ``repro`` modules, packages that never run inside a simulation —
    is ``other``.
    """
    parts = PurePath(filename).parts
    for position, part in enumerate(parts[:-1]):
        if part == "repro" and parts[position + 1] in LAYERS:
            return parts[position + 1]
    return "other"


def layer_costs(profile) -> dict[str, float]:
    """``L.self_s``, ``L.share`` and ``L.calls`` for every layer.

    ``profile`` is a finished ``cProfile.Profile``.  ``inlinetime`` is
    self time by construction (callees excluded), so the layer totals
    partition the profiled interval and the shares sum to one.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for entry in profile.getstats():
        code = entry.code
        layer = layer_of(code.co_filename) if hasattr(code, "co_filename") else "other"
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
    total = sum(self_s.values())
    costs: dict[str, float] = {}
    for layer in LAYERS:
        costs[f"{layer}.self_s"] = self_s[layer]
        costs[f"{layer}.share"] = self_s[layer] / total if total else 0.0
        costs[f"{layer}.calls"] = calls[layer]
    return costs


def derived_counts(costs: dict, events: int, hops: float) -> dict[str, float]:
    """Counts taken at the layer boundaries, and calls per unit of work.

    ``events`` and ``hops`` are program outputs that repeat exactly, as
    do the ``L.calls`` they divide, so every value here compares two
    commits bit for bit.
    """
    return {
        "sim.events": events,
        "sim.calls_per_event": costs["sim.calls"] / events,
        "net.hops": hops,
        "net.calls_per_hop": costs["net.calls"] / hops,
        "multitier.calls_per_hop": costs["multitier.calls"] / hops,
        "radio.calls_per_event": costs["radio.calls"] / events,
    }
