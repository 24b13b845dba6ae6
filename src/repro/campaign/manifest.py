"""Campaign manifests: the frozen definition of a grid of work items.

A campaign is a (scenario, stack, sweep-point, seed) grid too big for a
one-shot CLI run.  The :class:`CampaignManifest` records the knobs the
grid was expanded from (scenario names, sweep names, stacks, seeds,
smoke flag) **and** the expanded :class:`WorkItem` list itself, frozen
at ``repro campaign new`` time, so a resume months later runs exactly
the grid that was queued — and can *detect* that it no longer can.

Every item derives its :class:`~repro.scenarios.spec.ScenarioSpec`
through :func:`repro.scenarios.grid.expand_grid` — the expansion live
``repro scenario run`` / ``sweep`` calls use (catalog lookup,
``smoke()`` shrinking, ``stack`` rebinding, sweep-axis derivation) —
and the manifest pins a :func:`spec_fingerprint` per item.  On load the specs
are re-derived and re-fingerprinted: if the catalog or a sweep
definition drifted since ``new``, the mismatch fails eagerly with the
offending item named, instead of silently merging incomparable results.

Determinism: expansion is a pure function of the manifest knobs and the
registered catalog/sweep/stack definitions — same inputs, same item
list, same item ids, same fingerprints, in the same order, on every
platform.  No randomness, no timestamps (so two campaign directories
created from the same knobs are byte-identical).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.scenarios.grid import expand_grid
from repro.scenarios.spec import ScenarioSpec

#: Manifest (and work-item) schema version, bumped on layout changes.
MANIFEST_SCHEMA = 1


class CampaignError(Exception):
    """A campaign-layer failure: bad manifest, corrupt or mismatched
    records, incomplete runs asked to merge — always raised eagerly
    with the offending item or file named."""


def spec_fingerprint(spec: ScenarioSpec) -> str:
    """A stable digest of one derived spec's full field contents.

    Canonical-JSON SHA-256 (sorted keys, nested dataclasses expanded)
    truncated to 16 hex chars.  Pinned into the manifest per item and
    into every completion record, so ``campaign resume`` and the store
    merge can detect that the catalog, a sweep or the policy defaults
    changed under a half-finished campaign.  Deterministic: pure
    function of the spec's value.
    """
    payload = dataclasses.asdict(spec)
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class WorkItem:
    """One durable unit of campaign work: a (scenario, stack, optional
    sweep-point, seed) cell of the grid.

    ``sweep``/``sweep_value`` are ``None`` for plain scenario items and
    name a registered sweep plus one of its axis values for sweep
    items.  The item id doubles as the completion-record filename, so
    it is filesystem-safe and unique within a campaign (validated at
    expansion).
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
        """The aggregation group: every seed of one grid cell.

        Items sharing a group differ only by seed; the results store
        aggregates their metrics into one mean ± CI estimate, and
        ``campaign diff`` compares runs group by group.
        """
        if self.sweep is None:
            return f"{self.scenario} [{self.stack}]"
        return f"{self.sweep}@{self.sweep_value:g} [{self.stack}]"

    def spec(self, smoke: bool = False) -> ScenarioSpec:
        """Re-derive the spec this item runs.

        Expands this item's own (scenario or sweep, stack) through
        :func:`repro.scenarios.grid.expand_grid` — the expansion that
        queued it and that live runs use — and picks the cell at this
        item's axis value; :class:`ValueError` when the sweep no longer
        has that point.  Deterministic: pure data derivation,
        revalidated end to end.
        """
        cells = expand_grid(
            scenarios=[self.scenario] if self.sweep is None else [],
            sweeps=[self.sweep] if self.sweep is not None else [],
            stacks=[self.stack],
            smoke=smoke,
        )
        for cell in cells:
            if cell.value == self.sweep_value:
                return cell.spec
        raise ValueError(
            f"sweep {self.sweep!r} has no axis point {self.sweep_value!r}"
        )

    def to_json(self) -> dict:
        """The JSON mapping stored in manifests and records."""
        payload = {
            "scenario": self.scenario,
            "stack": self.stack,
            "seed": self.seed,
        }
        if self.sweep is not None:
            payload["sweep"] = self.sweep
            payload["sweep_value"] = self.sweep_value
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "WorkItem":
        """Rebuild an item from :meth:`to_json` output (round-trip
        exact: ids and fingerprints match the originals)."""
        return cls(
            scenario=payload["scenario"],
            stack=payload["stack"],
            seed=int(payload["seed"]),
            sweep=payload.get("sweep"),
            sweep_value=payload.get("sweep_value"),
        )


@dataclass(frozen=True)
class CampaignManifest:
    """The frozen campaign definition: knobs plus the expanded grid.

    Built by :func:`build_manifest` (which expands and validates the
    grid) and serialized to ``manifest.json`` by the queue layer.  The
    ``fingerprints`` tuple is parallel to ``items``.
    """

    name: str
    scenarios: tuple[str, ...]
    sweeps: tuple[str, ...]
    stacks: Optional[tuple[str, ...]]
    seeds: Optional[tuple[int, ...]]
    smoke: bool
    items: tuple[WorkItem, ...]
    fingerprints: tuple[str, ...]

    def digest(self) -> str:
        """A stable digest of the whole manifest (16 hex chars).

        Stamped into every results store so ``campaign diff`` can say
        whether two runs executed the same frozen grid.
        Deterministic: canonical-JSON SHA-256 of :meth:`to_json`.
        """
        canonical = json.dumps(self.to_json(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def item_ids(self) -> list[str]:
        """Every item id, in expansion (= execution) order."""
        return [item.item_id for item in self.items]

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

    @classmethod
    def from_json(cls, payload: dict) -> "CampaignManifest":
        """Rebuild a manifest from :meth:`to_json` output.

        Shape-validates eagerly (schema version, item fields) and
        raises :class:`CampaignError` with the problem named.
        """
        if payload.get("schema") != MANIFEST_SCHEMA:
            raise CampaignError(
                f"manifest schema must be {MANIFEST_SCHEMA}, "
                f"got {payload.get('schema')!r}"
            )
        try:
            items = tuple(
                WorkItem.from_json(entry) for entry in payload["items"]
            )
            fingerprints = tuple(
                entry["fingerprint"] for entry in payload["items"]
            )
            return cls(
                name=payload["name"],
                scenarios=tuple(payload["scenarios"]),
                sweeps=tuple(payload["sweeps"]),
                stacks=(
                    tuple(payload["stacks"])
                    if payload["stacks"] is not None
                    else None
                ),
                seeds=(
                    tuple(int(s) for s in payload["seeds"])
                    if payload["seeds"] is not None
                    else None
                ),
                smoke=bool(payload["smoke"]),
                items=items,
                fingerprints=fingerprints,
            )
        except (KeyError, TypeError) as error:
            raise CampaignError(f"malformed manifest: {error!r}") from None

    def verify_derivable(self) -> None:
        """Re-derive every item's spec and match its fingerprint.

        The eager manifest/spec-mismatch gate: raises
        :class:`CampaignError` naming the first item whose current
        derivation (catalog entry, sweep definition, policy defaults)
        no longer produces the spec that was frozen at ``campaign
        new`` time.  Deterministic: pure re-derivation.
        """
        for item, pinned in zip(self.items, self.fingerprints):
            try:
                fresh = spec_fingerprint(item.spec(self.smoke))
            except (KeyError, ValueError) as error:
                raise CampaignError(
                    f"item {item.item_id!r} no longer derives: {error}"
                ) from error
            if fresh != pinned:
                raise CampaignError(
                    f"item {item.item_id!r}: spec fingerprint {fresh} does "
                    f"not match the manifest's {pinned} — the scenario "
                    f"catalog or sweep definition changed since 'campaign "
                    f"new'; create a fresh campaign instead of resuming"
                )


def build_manifest(
    name: str,
    scenarios: Sequence[str] = (),
    sweeps: Sequence[str] = (),
    stacks: Optional[Sequence[str]] = None,
    seeds: Optional[Iterable[int]] = None,
    smoke: bool = False,
) -> CampaignManifest:
    """Expand campaign knobs into a validated, frozen manifest.

    One item per (cell, seed) of
    :func:`repro.scenarios.grid.expand_grid`'s cells, in its expansion
    order (which is also execution order): scenario entries first —
    scenario-major, then stack, then seed — followed by sweep entries
    — sweep-major, then stack, then axis point, then seed.
    ``stacks=None`` keeps each spec's own default stack; explicit
    stacks are validated against the registry.  ``seeds=None`` uses
    each (smoke-shrunk) spec's or sweep's own defaults.  Duplicate
    item ids (e.g. the same scenario listed twice) raise
    :class:`CampaignError` eagerly.  Deterministic: a pure function of
    the knobs and registered definitions.
    """
    if not scenarios and not sweeps:
        raise CampaignError(
            "a campaign needs at least one scenario or sweep"
        )
    if stacks is not None:
        stacks = tuple(stacks)
    if seeds is not None:
        seeds = tuple(int(seed) for seed in seeds)
    cells = expand_grid(scenarios, sweeps, stacks, seeds, smoke)
    items: list[WorkItem] = []
    fingerprints: list[str] = []
    for cell in cells:
        fingerprint = spec_fingerprint(cell.spec)
        for seed in cell.seeds:
            items.append(WorkItem(
                scenario=cell.scenario.name,
                stack=cell.stack,
                seed=seed,
                sweep=cell.sweep.name if cell.sweep is not None else None,
                sweep_value=cell.value,
            ))
            fingerprints.append(fingerprint)

    seen: set[str] = set()
    for item in items:
        if item.item_id in seen:
            raise CampaignError(
                f"duplicate work item {item.item_id!r}: the same "
                f"(scenario, stack, sweep-point, seed) cell was queued "
                f"twice — de-duplicate the campaign's scenario/sweep/seed "
                f"lists"
            )
        seen.add(item.item_id)

    return CampaignManifest(
        name=name,
        scenarios=tuple(scenarios),
        sweeps=tuple(sweeps),
        stacks=stacks,
        seeds=seeds,
        smoke=smoke,
        items=tuple(items),
        fingerprints=tuple(fingerprints),
    )


__all__ = [
    "MANIFEST_SCHEMA",
    "CampaignError",
    "CampaignManifest",
    "WorkItem",
    "build_manifest",
    "spec_fingerprint",
]
