"""Campaign manifests: the definition of one campaign's grid.

A :class:`CampaignManifest` records the knobs a campaign was expanded
from (scenarios, sweeps, stacks, seeds, smoke) and the expanded
:class:`WorkItem` list with a :func:`spec_fingerprint` per item, so
``manifest.json`` says exactly which specs produced the
``results.json`` beside it.  The items come from one
:func:`repro.scenarios.grid.expand_grid` call, the expansion live
``repro scenario run`` / ``sweep`` calls use, and the manifest keeps
its cells, so a campaign runs the very specs it fingerprinted.

Determinism: expansion is a pure function of the knobs and the
registered catalog/sweep/stack definitions, and a manifest holds no
timestamps, so equal knobs give byte-identical manifests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.scenarios.grid import GridCell, expand_grid
from repro.scenarios.spec import ScenarioSpec

#: Manifest (and work-item) schema version, bumped on layout changes.
MANIFEST_SCHEMA = 1


class CampaignError(Exception):
    """A campaign-layer failure: an existing campaign directory, a
    malformed store, incomparable stores asked to diff — always raised
    eagerly with the offending item or file named."""


def spec_fingerprint(spec: ScenarioSpec) -> str:
    """A stable 16-hex-char digest of one derived spec's full contents
    (canonical-JSON SHA-256), pinned into the manifest and every store
    record so stores run from different specs can be told apart.
    Deterministic: pure function of the spec's value."""
    payload = dataclasses.asdict(spec)
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class WorkItem:
    """One (scenario, stack, optional sweep-point, seed) cell of the grid.

    ``sweep``/``sweep_value`` are ``None`` for plain scenario items and
    name a registered sweep and one of its axis values for sweep items.
    """

    scenario: str
    stack: str
    seed: int
    sweep: Optional[str] = None
    sweep_value: Optional[float] = None

    @property
    def item_id(self) -> str:
        """The unique, filesystem-safe id (``/`` becomes ``_``)."""
        if self.sweep is None:
            stem = self.scenario
        else:
            stem = f"{self.sweep}@{self.sweep_value:g}"
        return f"{stem}--{self.stack}--s{self.seed}".replace("/", "_")

    @property
    def group(self) -> str:
        """The aggregation group: every seed of one grid cell, reduced
        to one mean ± CI estimate per metric and compared group by
        group by ``campaign diff``."""
        if self.sweep is None:
            return f"{self.scenario} [{self.stack}]"
        return f"{self.sweep}@{self.sweep_value:g} [{self.stack}]"

    def to_json(self) -> dict:
        """The JSON mapping stored in manifests and store records."""
        payload = {"scenario": self.scenario, "stack": self.stack, "seed": self.seed}
        if self.sweep is not None:
            payload["sweep"] = self.sweep
            payload["sweep_value"] = self.sweep_value
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "WorkItem":
        """Rebuild an item from :meth:`to_json` output (round-trip
        exact: ids and groups match the originals)."""
        return cls(
            scenario=payload["scenario"],
            stack=payload["stack"],
            seed=int(payload["seed"]),
            sweep=payload.get("sweep"),
            sweep_value=payload.get("sweep_value"),
        )


@dataclass(frozen=True)
class CampaignManifest:
    """One campaign's definition: knobs plus the expanded grid.

    ``fingerprints`` is parallel to ``items``; ``cells`` holds the grid
    cells the items were made from (one item per (cell, seed), in
    order), in memory only — neither serialized nor compared.
    """

    name: str
    scenarios: tuple[str, ...]
    sweeps: tuple[str, ...]
    stacks: Optional[tuple[str, ...]]
    seeds: Optional[tuple[int, ...]]
    smoke: bool
    items: tuple[WorkItem, ...]
    fingerprints: tuple[str, ...]
    cells: tuple[GridCell, ...] = field(default=(), compare=False, repr=False)

    def digest(self) -> str:
        """A stable 16-hex-char digest of :meth:`to_json`, stamped into
        the results store so two stores tell whether they ran the same
        grid."""
        canonical = json.dumps(self.to_json(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def to_json(self) -> dict:
        """The ``manifest.json`` payload (schema-stamped, no
        timestamps, so equal knobs give byte-equal manifests)."""
        return {
            "schema": MANIFEST_SCHEMA,
            "name": self.name,
            "scenarios": list(self.scenarios),
            "sweeps": list(self.sweeps),
            "stacks": list(self.stacks) if self.stacks is not None else None,
            "seeds": list(self.seeds) if self.seeds is not None else None,
            "smoke": self.smoke,
            "items": [
                {**item.to_json(), "fingerprint": fingerprint}
                for item, fingerprint in zip(self.items, self.fingerprints)
            ],
        }


def build_manifest(
    name: str,
    scenarios: Sequence[str] = (),
    sweeps: Sequence[str] = (),
    stacks: Optional[Sequence[str]] = None,
    seeds: Optional[Iterable[int]] = None,
    smoke: bool = False,
) -> CampaignManifest:
    """Expand campaign knobs into a validated manifest: one item per
    (cell, seed) of one :func:`~repro.scenarios.grid.expand_grid` call,
    in its order, which is also the execution order.

    No entry at all, or a duplicate item id (the same scenario listed
    twice), raises :class:`CampaignError`; an unknown stack raises the
    registry's :class:`KeyError`.  Deterministic.
    """
    if not scenarios and not sweeps:
        raise CampaignError("a campaign needs at least one scenario or sweep")
    if stacks is not None:
        stacks = tuple(stacks)
    if seeds is not None:
        seeds = tuple(seeds)
    cells = expand_grid(scenarios, sweeps, stacks, seeds, smoke)
    if seeds is not None:
        seeds = tuple(map(int, seeds))  # integers: expand_grid checked them
    items: dict[str, WorkItem] = {}
    fingerprints: list[str] = []
    for cell in cells:
        fingerprint = spec_fingerprint(cell.spec)
        for seed in cell.seeds:
            item = WorkItem(
                scenario=cell.scenario.name, stack=cell.stack, seed=seed,
                sweep=cell.sweep.name if cell.sweep is not None else None,
                sweep_value=cell.value,
            )
            if item.item_id in items:
                raise CampaignError(
                    f"duplicate work item {item.item_id!r}: the same "
                    f"(scenario, stack, sweep-point, seed) cell was listed "
                    f"twice — de-duplicate the scenario/sweep/seed lists"
                )
            items[item.item_id] = item
            fingerprints.append(fingerprint)
    return CampaignManifest(
        name=name, scenarios=tuple(scenarios), sweeps=tuple(sweeps),
        stacks=stacks, seeds=seeds, smoke=smoke, items=tuple(items.values()),
        fingerprints=tuple(fingerprints), cells=tuple(cells),
    )


__all__ = [
    "MANIFEST_SCHEMA",
    "CampaignError",
    "CampaignManifest",
    "WorkItem",
    "build_manifest",
    "spec_fingerprint",
]
