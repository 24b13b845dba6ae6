"""Running a campaign, its results store, and the store's re-aggregation.

:func:`run_campaign` sends every (cell, seed) job of a manifest to the
execution backend as ONE batch and, after the last job returns, writes
``manifest.json`` and ``results.json`` — the store, one record per item,
sorted by item id, that ``repro campaign diff`` and ``show`` read.
Nothing is written before every job has returned, so a failed run
leaves no campaign behind and re-running it is the recovery.  A store
read back is outside input: :func:`load_store` validates it and fails
in one line, file and item named.  :func:`store_replications` and
:func:`store_stack_comparisons` re-aggregate a store with the reduction
live runs use, so its intervals and tables equal a live run's.

Determinism: every item's metrics depend only on its (spec, seed), and
both files are pure functions of the manifest and those metrics —
byte-identical for any backend and any ``--jobs N``.
"""

from __future__ import annotations

import json
import pathlib
from functools import partial
from typing import Optional, Sequence, Union

from repro.experiments.exec import ExecutionBackend, SerialBackend
from repro.experiments.runner import Replication, replicate_cells
from repro.scenarios.builder import run_scenario_spec
from repro.scenarios.compare import StackComparison
from repro.scenarios.grid import GridCell, expand_grid, stack_comparisons
from repro.stacks.registry import stack_names

from repro.campaign.manifest import CampaignError, CampaignManifest, WorkItem

#: Store schema version, bumped on layout changes.
STORE_SCHEMA = 1


def run_campaign(
    directory: Union[str, pathlib.Path],
    manifest: CampaignManifest,
    backend: Optional[ExecutionBackend] = None,
) -> None:
    """Run ``manifest``'s grid; write it and its store into ``directory``.

    A directory already holding a ``manifest.json`` is refused
    (:class:`CampaignError`) before anything runs.  The jobs go to
    ``backend`` (serial when ``None``) as one batch, row-major with
    seeds fastest like :func:`repro.scenarios.grid.run_grid`'s.  If a
    job raises, the exception propagates and neither file is written.
    """
    directory = pathlib.Path(directory)
    if (directory / "manifest.json").exists():
        raise CampaignError(
            f"{directory / 'manifest.json'} already exists; 'campaign run' "
            f"never overwrites — pick a fresh directory"
        )
    results = (backend or SerialBackend()).run([
        partial(run_scenario_spec, cell.spec, seed)
        for cell in manifest.cells
        for seed in cell.seeds
    ])
    directory.mkdir(parents=True, exist_ok=True)
    for filename, payload in (
        ("manifest.json", manifest.to_json()),
        ("results.json", merge_store(manifest, results)),
    ):
        (directory / filename).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )


def merge_store(manifest: CampaignManifest, results: Sequence[dict]) -> dict:
    """The store mapping for a manifest and its per-item metric dicts
    (``results`` parallel to ``manifest.items``): one record per item —
    item, id, spec fingerprint, plain-float metrics — ordered by item
    id, so the store is canonical.  Deterministic."""
    records = [
        {
            "item": item.to_json(),
            "item_id": item.item_id,
            "fingerprint": fingerprint,
            "metrics": {key: float(value) for key, value in metrics.items()},
        }
        for item, fingerprint, metrics in zip(
            manifest.items, manifest.fingerprints, results
        )
    ]
    records.sort(key=lambda record: record["item_id"])
    return {
        "schema": STORE_SCHEMA,
        "campaign": manifest.name,
        "manifest_digest": manifest.digest(),
        "smoke": manifest.smoke,
        "records": records,
    }


def load_store(path: Union[str, pathlib.Path]) -> dict:
    """Load and validate a store from a ``results.json`` path or the
    campaign directory holding one.

    Checks the schema, duplicate item ids and every record's shape — an
    ``item`` with ``scenario``, ``stack`` and ``seed``, and a non-empty
    mapping of numeric metrics — and raises :class:`CampaignError`
    naming the file and the item.  Deterministic: read-only.
    """
    path = pathlib.Path(path)
    if path.is_dir():
        path = path / "results.json"
    if not path.exists():
        raise CampaignError(
            f"no results store at {path}; write one with 'campaign run'"
        )
    try:
        store = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise CampaignError(f"{path} is not valid JSON: {error}") from None
    if store.get("schema") != STORE_SCHEMA:
        raise CampaignError(
            f"{path}: store schema must be {STORE_SCHEMA}, "
            f"got {store.get('schema')!r}"
        )
    records = store.get("records")
    if not isinstance(records, list) or not records:
        raise CampaignError(f"{path}: store has no records")
    seen: set[str] = set()
    for record in records:
        item_id = record.get("item_id")
        if not isinstance(item_id, str) or not item_id:
            raise CampaignError(f"{path}: record without an item_id")
        if item_id in seen:
            raise CampaignError(f"{path}: duplicate item id {item_id!r}")
        seen.add(item_id)
        item, metrics = record.get("item"), record.get("metrics")
        if not isinstance(item, dict) or not {"scenario", "stack", "seed"} <= item.keys():
            raise CampaignError(
                f"{path}: record {item_id!r} has no item with scenario, "
                f"stack and seed"
            )
        if not isinstance(metrics, dict) or not metrics:
            raise CampaignError(f"{path}: record {item_id!r} has no metrics")
        for metric, value in metrics.items():
            if not isinstance(value, (int, float)):
                raise CampaignError(
                    f"{path}: record {item_id!r} metric {metric!r} is not "
                    f"a number: {value!r}"
                )
    return store


def _store_cells(
    store: dict, confidence: float
) -> list[tuple[WorkItem, list[int], Replication]]:
    """Regroup a store's records per grid cell, in store order: one
    ``(first item, seeds ascending, Replication)`` per
    :attr:`WorkItem.group`, reduced by
    :func:`repro.experiments.runner.replicate_cells` (each "job" a
    lookup) so means and CI half-widths match a live run's."""
    grouped: dict[str, tuple[WorkItem, dict[int, dict]]] = {}
    for record in store["records"]:
        item = WorkItem.from_json(record["item"])
        grouped.setdefault(item.group, (item, {}))[1][item.seed] = record["metrics"]
    replications = replicate_cells(
        [(by_seed.__getitem__, sorted(by_seed)) for _item, by_seed in grouped.values()],
        confidence,
    )
    return [
        (item, sorted(by_seed), replication)
        for (item, by_seed), replication in zip(grouped.values(), replications)
    ]


def store_replications(
    store: dict, confidence: float = 0.95
) -> dict[str, tuple[list[int], Replication]]:
    """Re-aggregate a store per grid cell: group -> (seeds, Replication),
    seeds ascending, reduced at ``confidence`` exactly as a live
    replication is, groups in store order.  Deterministic."""
    return {
        item.group: (seeds, replication)
        for item, seeds, replication in _store_cells(store, confidence)
    }


def store_stack_comparisons(
    store: dict, confidence: float = 0.95
) -> list[StackComparison]:
    """Rebuild cross-stack comparison tables from a store.

    One :class:`~repro.scenarios.compare.StackComparison` per plain
    scenario the store holds under several stacks with equal seed
    lists, built as a live ``scenario run <name> --stack all`` builds
    it (scenarios in store order, stacks in registry order), so it
    renders byte-identically.  Deterministic: pure reduction.
    """
    columns: dict[str, dict[str, tuple[list[int], Replication]]] = {}
    for item, seeds, replication in _store_cells(store, confidence):
        if item.sweep is None:
            columns.setdefault(item.scenario, {})[item.stack] = (seeds, replication)
    registry = stack_names()
    cells: list[GridCell] = []
    replications: list[Replication] = []
    for scenario, by_stack in columns.items():
        # A stack no longer registered sorts last (and fails expansion).
        stacks = sorted(by_stack, key=(registry + list(by_stack)).index)
        seed_lists = [by_stack[name][0] for name in stacks]
        if len(stacks) < 2 or any(seeds != seed_lists[0] for seeds in seed_lists):
            # One stack, or unpaired seeds (columns would not be
            # comparable per seed): no side-by-side table.
            continue
        cells += expand_grid(
            [scenario], stacks=stacks, seeds=seed_lists[0],
            smoke=bool(store.get("smoke")),
        )
        replications += [by_stack[name][1] for name in stacks]
    return stack_comparisons(cells, replications, confidence)


__all__ = [
    "STORE_SCHEMA",
    "load_store",
    "merge_store",
    "run_campaign",
    "store_replications",
    "store_stack_comparisons",
]
