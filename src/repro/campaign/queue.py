"""The durable on-disk campaign queue: crash-safe records, resume.

Directory layout of one campaign::

    <campaign>/
        manifest.json          # frozen grid (see repro.campaign.manifest)
        items/<item_id>.json   # one atomic completion record per item
        results.json           # canonical merged store, written when done

Durability model
----------------
Each work item's completion record is written to a temporary file and
``os.replace``-d into place, so a record either exists completely or
not at all — a SIGKILL at any instant leaves no half-written record
(stray ``*.tmp`` files are ignored and overwritten on resume).  A
resumed campaign (``repro campaign resume``, or just ``run`` again)
lists the existing records, skips every completed item, and runs only
the remainder; items that were in flight when the process died simply
re-run.  Records carry the item's spec fingerprint, so a resume under
a changed catalog fails eagerly instead of merging incomparable runs.

Execution model
---------------
:func:`run_campaign` drains pending items in batches of ``batch_size``
jobs, dispatching each batch through one
:meth:`ExecutionBackend.run <repro.experiments.exec.ExecutionBackend.run>`
call — so ``--jobs N`` parallelism, work stealing and fail-fast error
propagation all work exactly as they do for ``repro scenario run``.
Smaller batches persist progress more often (better crash granularity);
larger batches amortize pool dispatch (better throughput).

Determinism contract
--------------------
Every item's metrics depend only on its (spec, seed) pair, records are
keyed by item id, and the merged store is canonical (sorted ids, sorted
keys) — so a killed-then-resumed campaign's ``results.json`` and item
records are **byte-identical** to an uninterrupted run's, serial or
``--jobs N``, in any interleaving of crashes and resumes (enforced by
``tests/test_campaign_crash.py`` and the CI campaign smoke step).
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

from repro.experiments.exec import ExecutionBackend, SerialBackend
from repro.scenarios.builder import run_scenario_spec

from repro.campaign.manifest import (
    CampaignError,
    CampaignManifest,
    WorkItem,
    build_manifest,
    spec_fingerprint,
)

#: Completion-record schema version, bumped on layout changes.
RECORD_SCHEMA = 1

#: Default number of items drained per backend batch: big enough to
#: keep a small pool busy, small enough that a crash loses little.
DEFAULT_BATCH_SIZE = 8

MANIFEST_FILE = "manifest.json"
ITEMS_DIR = "items"
STORE_FILE = "results.json"


def _write_atomic(path: pathlib.Path, text: str) -> None:
    """Write ``text`` to ``path`` via tmp-file + ``os.replace``.

    The rename is atomic on POSIX, so readers (and a resume after
    SIGKILL) see either the complete file or nothing.
    """
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


@dataclass(frozen=True)
class CampaignStatus:
    """One campaign's progress snapshot (pure data, renderable)."""

    name: str
    total: int
    completed: int
    #: group label -> (completed, total) item counts.
    groups: dict[str, tuple[int, int]]

    @property
    def pending(self) -> int:
        """Items still to run (``total - completed``)."""
        return self.total - self.completed

    @property
    def done(self) -> bool:
        """True when every item has a completion record."""
        return self.completed == self.total


class Campaign:
    """A handle on one durable campaign directory.

    Created by :meth:`create` (``repro campaign new``) or reopened by
    :meth:`load` (``run``/``resume``/``status``); all mutation goes
    through atomic file operations, so concurrent readers and a
    crash-interrupted writer can never observe a torn state.
    Deterministic: the directory contents are a pure function of the
    manifest knobs and the completed items' (spec, seed) metrics.
    """

    def __init__(
        self, directory: pathlib.Path, manifest: CampaignManifest
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.manifest = manifest

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        directory,
        scenarios: Sequence[str] = (),
        sweeps: Sequence[str] = (),
        stacks: Optional[Sequence[str]] = None,
        seeds: Optional[Iterable[int]] = None,
        smoke: bool = False,
        name: Optional[str] = None,
    ) -> "Campaign":
        """Expand the grid, freeze it, and write ``manifest.json``.

        Refuses to overwrite an existing campaign (a second ``new`` on
        the same directory raises :class:`CampaignError`); the items
        directory is created empty.  Deterministic: equal knobs give
        byte-equal manifests (no timestamps).
        """
        directory = pathlib.Path(directory)
        manifest_path = directory / MANIFEST_FILE
        if manifest_path.exists():
            raise CampaignError(
                f"{manifest_path} already exists; 'campaign new' never "
                f"overwrites — run/resume it, or pick a fresh directory"
            )
        manifest = build_manifest(
            name=name or directory.name,
            scenarios=scenarios,
            sweeps=sweeps,
            stacks=stacks,
            seeds=seeds,
            smoke=smoke,
        )
        (directory / ITEMS_DIR).mkdir(parents=True, exist_ok=True)
        _write_atomic(
            manifest_path,
            json.dumps(manifest.to_json(), indent=2, sort_keys=True) + "\n",
        )
        return cls(directory, manifest)

    @classmethod
    def load(cls, directory) -> "Campaign":
        """Reopen an existing campaign directory.

        Parses and shape-validates the manifest, then re-derives every
        item's spec and checks its fingerprint
        (:meth:`CampaignManifest.verify_derivable`) so a drifted
        catalog fails here — eagerly, with the item named — not while
        merging results.  Deterministic: read-only.
        """
        directory = pathlib.Path(directory)
        manifest_path = directory / MANIFEST_FILE
        if not manifest_path.exists():
            raise CampaignError(
                f"{directory} is not a campaign directory "
                f"(no {MANIFEST_FILE}); create one with 'campaign new'"
            )
        try:
            payload = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as error:
            raise CampaignError(
                f"{manifest_path} is not valid JSON: {error}"
            ) from None
        manifest = CampaignManifest.from_json(payload)
        manifest.verify_derivable()
        return cls(directory, manifest)

    # ------------------------------------------------------------------
    @property
    def items_dir(self) -> pathlib.Path:
        """The per-item completion-record directory."""
        return self.directory / ITEMS_DIR

    @property
    def store_path(self) -> pathlib.Path:
        """Where the merged results store lands when the run completes."""
        return self.directory / STORE_FILE

    def record_path(self, item_id: str) -> pathlib.Path:
        """The completion-record path for one item id."""
        return self.items_dir / f"{item_id}.json"

    def completed_ids(self) -> set[str]:
        """Item ids with a completion record on disk.

        Only complete ``*.json`` records count; in-flight ``*.tmp``
        files (from a crashed writer) are ignored.  Stray record files
        whose id is not in the manifest raise :class:`CampaignError`
        (a foreign or corrupted campaign directory must not be
        silently merged).
        """
        if not self.items_dir.exists():
            return set()
        known = set(self.manifest.item_ids())
        found = {
            path.stem
            for path in self.items_dir.glob("*.json")
            if not path.name.endswith(".tmp")
        }
        strays = sorted(found - known)
        if strays:
            raise CampaignError(
                f"items directory contains record(s) for unknown item "
                f"id(s) {', '.join(strays)} — not part of this "
                f"campaign's manifest"
            )
        return found

    def pending(self) -> list[WorkItem]:
        """Items without a completion record, in manifest order."""
        completed = self.completed_ids()
        return [
            item
            for item in self.manifest.items
            if item.item_id not in completed
        ]

    # ------------------------------------------------------------------
    def write_record(self, item: WorkItem, metrics: dict) -> pathlib.Path:
        """Persist one item's completion record atomically.

        The record carries the item, its spec fingerprint and the
        plain-float metric dict; JSON is canonical (sorted keys) so
        equal results are byte-equal files.  Returns the record path.
        """
        payload = {
            "schema": RECORD_SCHEMA,
            "item": item.to_json(),
            "item_id": item.item_id,
            "fingerprint": spec_fingerprint(item.spec(self.manifest.smoke)),
            "metrics": {key: float(value) for key, value in metrics.items()},
        }
        path = self.record_path(item.item_id)
        _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    def read_record(self, item_id: str) -> dict:
        """Load and shape-validate one completion record.

        Raises :class:`CampaignError` on unparsable JSON, a schema or
        id mismatch, or missing metrics — corruption surfaces at read
        time with the file named, never as silently wrong aggregates.
        """
        path = self.record_path(item_id)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            raise CampaignError(
                f"no completion record for item {item_id!r} "
                f"(expected {path})"
            ) from None
        except json.JSONDecodeError as error:
            raise CampaignError(
                f"{path} is not valid JSON: {error}"
            ) from None
        if payload.get("schema") != RECORD_SCHEMA:
            raise CampaignError(
                f"{path}: record schema must be {RECORD_SCHEMA}, "
                f"got {payload.get('schema')!r}"
            )
        if payload.get("item_id") != item_id:
            raise CampaignError(
                f"{path}: record claims item id {payload.get('item_id')!r}, "
                f"filename says {item_id!r}"
            )
        metrics = payload.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            raise CampaignError(f"{path}: record has no metrics mapping")
        return payload

    def status(self) -> CampaignStatus:
        """The campaign's progress snapshot, grouped per grid cell."""
        completed = self.completed_ids()
        groups: dict[str, tuple[int, int]] = {}
        for item in self.manifest.items:
            done, total = groups.get(item.group, (0, 0))
            groups[item.group] = (
                done + (1 if item.item_id in completed else 0),
                total + 1,
            )
        return CampaignStatus(
            name=self.manifest.name,
            total=len(self.manifest.items),
            completed=len(completed),
            groups=groups,
        )


@dataclass(frozen=True)
class RunSummary:
    """What one :func:`run_campaign` invocation did."""

    total: int
    skipped: int
    ran: int
    #: Path of the merged store, when the campaign completed.
    store: Optional[pathlib.Path]

    @property
    def done(self) -> bool:
        """True when the campaign finished (store written)."""
        return self.store is not None


def run_campaign(
    campaign: Campaign,
    backend: Optional[ExecutionBackend] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    max_items: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> RunSummary:
    """Drain a campaign's pending items through an execution backend.

    Completed items are skipped (this *is* resume — a fresh campaign
    simply has nothing to skip); the remainder is drained in batches
    of ``batch_size``, each batch one
    :meth:`ExecutionBackend.run <repro.experiments.exec.ExecutionBackend.run>`
    call, with every finished item's record written atomically before
    the next batch starts.  ``max_items`` stops after that many items
    (deterministic partial runs for tests and incremental draining).
    When the last record lands, the canonical merged store is written
    to ``results.json`` and its path returned in the summary.

    Determinism: the on-disk end state is byte-identical for any
    backend, any ``batch_size``, any ``max_items`` chunking and any
    crash/resume interleaving — only the order records appear in is
    affected, never their contents.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    if backend is None:
        backend = SerialBackend()
    say = log if log is not None else (lambda message: None)

    pending = campaign.pending()
    total = len(campaign.manifest.items)
    skipped = total - len(pending)
    if skipped:
        say(f"resuming: {skipped} completed item(s) skipped, "
            f"{len(pending)} to run")
    if max_items is not None:
        pending = pending[:max_items]

    smoke = campaign.manifest.smoke
    ran = 0
    for start in range(0, len(pending), batch_size):
        batch = pending[start:start + batch_size]
        jobs = [
            partial(run_scenario_spec, item.spec(smoke), item.seed)
            for item in batch
        ]
        results = backend.run(jobs)
        for item, metrics in zip(batch, results):
            campaign.write_record(item, metrics)
        ran += len(batch)
        say(f"  {skipped + ran}/{total} items complete")

    store: Optional[pathlib.Path] = None
    if not campaign.pending():
        from repro.campaign.store import write_store

        store = write_store(campaign)
        say(f"campaign complete; merged store written to {store}")
    return RunSummary(total=total, skipped=skipped, ran=ran, store=store)


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "ITEMS_DIR",
    "MANIFEST_FILE",
    "RECORD_SCHEMA",
    "STORE_FILE",
    "Campaign",
    "CampaignStatus",
    "RunSummary",
    "run_campaign",
]
