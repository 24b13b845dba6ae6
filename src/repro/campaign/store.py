"""The merged campaign results store and its re-aggregation views.

When a campaign's last work item completes, the per-item records merge
into one canonical ``results.json``: records sorted by item id, JSON
keys sorted, schema-stamped, with the manifest digest pinned — the
single artifact ``repro campaign diff`` consumes and the byte-identity
contract is stated over.

Integrity is checked eagerly at every boundary: merging refuses
incomplete campaigns (naming the pending count), duplicate item ids,
fingerprint drift against the manifest, and records for items the
manifest never queued; loading a store re-validates schema, duplicate
ids and record shape, so a hand-edited or truncated store fails with
the problem named instead of producing silently wrong aggregates.

Re-aggregation: :func:`store_replications` groups records per grid
cell (same scenario/stack/sweep-point, seeds ascending) and reduces
them with :func:`repro.experiments.runner.replicate_cells` — the exact
reduction live runs use — so confidence intervals computed from a
store equal the ones a live run would have printed.
:func:`store_stack_comparisons` goes one step further and regroups
the cells into :class:`~repro.scenarios.compare.StackComparison`
tables (:func:`repro.scenarios.grid.stack_comparisons`) for scenarios
the campaign covered under several stacks.

Determinism: merging, loading and re-aggregation are pure functions of
the record contents; the store's bytes are independent of execution
order, backend, batch size and crash/resume history.
"""

from __future__ import annotations

import json
import pathlib
from typing import Union

from repro.experiments.runner import Replication, replicate_cells
from repro.scenarios.compare import StackComparison
from repro.scenarios.grid import GridCell, expand_grid, stack_comparisons
from repro.stacks.registry import stack_names

from repro.campaign.manifest import CampaignError, WorkItem
from repro.campaign.queue import Campaign, _write_atomic

#: Merged-store schema version, bumped on layout changes.
STORE_SCHEMA = 1


def merge_store(campaign: Campaign) -> dict:
    """Merge a *completed* campaign's records into one store mapping.

    Validates everything eagerly: every manifest item must have a
    record (else the pending count is reported — run ``campaign
    resume``), every record must parse, match its filename id, carry
    metrics, and carry the fingerprint the manifest pinned for that
    item; duplicates cannot arise from the filesystem but are guarded
    against all the same.  Records are ordered by item id so the
    result is canonical.  Deterministic: pure function of the records.
    """
    status = campaign.status()
    if not status.done:
        raise CampaignError(
            f"campaign {campaign.manifest.name!r} has {status.pending} "
            f"pending item(s); run 'repro campaign resume' before merging"
        )
    pinned = dict(zip(campaign.manifest.item_ids(), campaign.manifest.fingerprints))
    records = []
    seen: set[str] = set()
    for item_id in sorted(pinned):
        if item_id in seen:
            raise CampaignError(f"duplicate item id {item_id!r} in manifest")
        seen.add(item_id)
        record = campaign.read_record(item_id)
        if record.get("fingerprint") != pinned[item_id]:
            raise CampaignError(
                f"record {item_id!r}: spec fingerprint "
                f"{record.get('fingerprint')!r} does not match the "
                f"manifest's {pinned[item_id]!r} — the record was produced "
                f"by a different spec; re-run the item (delete its record "
                f"and 'campaign resume')"
            )
        records.append({
            "item": record["item"],
            "item_id": item_id,
            "fingerprint": record["fingerprint"],
            "metrics": record["metrics"],
        })
    return {
        "schema": STORE_SCHEMA,
        "campaign": campaign.manifest.name,
        "manifest_digest": campaign.manifest.digest(),
        "smoke": campaign.manifest.smoke,
        "records": records,
    }


def write_store(campaign: Campaign) -> pathlib.Path:
    """Merge and write ``results.json`` atomically; returns its path.

    Canonical bytes: sorted record order, sorted JSON keys, trailing
    newline — byte-identical for any execution history of the same
    campaign (the crash/kill suite and the CI campaign smoke step
    ``diff -r`` this).  Deterministic per the merge contract.
    """
    store = merge_store(campaign)
    _write_atomic(
        campaign.store_path,
        json.dumps(store, indent=2, sort_keys=True) + "\n",
    )
    return campaign.store_path


def load_store(path: Union[str, pathlib.Path]) -> dict:
    """Load and validate a merged store from a file or campaign dir.

    Accepts either the ``results.json`` path itself or a campaign
    directory containing one.  Validates schema, record shape and
    duplicate item ids eagerly (:class:`CampaignError` with the
    problem named).  Deterministic: read-only.
    """
    path = pathlib.Path(path)
    if path.is_dir():
        path = path / "results.json"
    if not path.exists():
        raise CampaignError(
            f"no merged store at {path}; finish the campaign "
            f"('repro campaign resume') to produce one"
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
        metrics = record.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            raise CampaignError(f"{path}: record {item_id!r} has no metrics")
        if not isinstance(record.get("item"), dict):
            raise CampaignError(f"{path}: record {item_id!r} has no item")
    return store


def _store_cells(
    store: dict, confidence: float
) -> list[tuple[WorkItem, list[int], Replication]]:
    """Regroup a store's records per grid cell, in store order.

    One ``(item, seeds ascending, Replication)`` entry per
    :attr:`WorkItem.group` (``item`` is the cell's first record).  The
    stored per-seed metric dicts go through
    :func:`repro.experiments.runner.replicate_cells` — the batch
    function live runs use, each "job" a lookup — so means and CI
    half-widths match a live run of the same grid.
    """
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
    """Re-aggregate a store per grid cell: group -> (seeds, Replication).

    Groups records by :attr:`WorkItem.group` (same scenario, stack and
    sweep-point — the cells of the campaign grid), each group's seeds
    ascending, reduced at ``confidence`` exactly as a live replication
    is.  Groups are returned in first-appearance (store) order.
    Deterministic: pure reduction.
    """
    return {
        item.group: (seeds, replication)
        for item, seeds, replication in _store_cells(store, confidence)
    }


def store_stack_comparisons(
    store: dict, confidence: float = 0.95
) -> list[StackComparison]:
    """Rebuild cross-stack comparison tables from a merged store.

    For every plain scenario (non-sweep) the campaign ran under more
    than one stack with identical seed lists, re-expands the
    scenario's cells (:func:`repro.scenarios.grid.expand_grid`) and
    groups them with :func:`repro.scenarios.grid.stack_comparisons` —
    the same :class:`~repro.scenarios.compare.StackComparison` a live
    ``repro scenario run <name> --stack all`` builds; render it with
    :func:`~repro.scenarios.compare.format_stack_comparison` for a
    byte-identical table.  Scenarios appear in store order; stacks in
    registry order (the order a live ``--stack all`` uses).  A store
    naming a stack that is no longer registered fails the expansion
    with the registered names listed.
    Deterministic: pure reduction.
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
    "store_replications",
    "store_stack_comparisons",
    "write_store",
]
