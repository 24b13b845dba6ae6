"""Campaigns: one grid run that writes its answer, and cross-run diffs.

A *campaign* is the paper's comparison made concrete — the 9 catalog
scenarios and their sweeps × 4 protocol stacks × seeds — run in one
pass and kept on disk for later runs to be compared against:
:mod:`~repro.campaign.manifest` defines the grid (work items with ids
and spec fingerprints), :mod:`~repro.campaign.store` runs it as one
execution-backend batch and writes ``manifest.json`` and
``results.json``, then reads and re-aggregates stores, and
:mod:`~repro.campaign.diff` compares two stores metric by metric with
confidence intervals.  CLI: ``repro campaign run | show | diff`` — see
``docs/CAMPAIGN.md``.

Determinism contract: a campaign's two files are **byte-identical** for
any execution backend and any ``--jobs N``.
"""

from repro.campaign.diff import (
    CampaignDiff, MetricChange, diff_stores, format_campaign_diff, metric_polarity,
)
from repro.campaign.manifest import (
    CampaignError, CampaignManifest, WorkItem, build_manifest, spec_fingerprint,
)
from repro.campaign.store import (
    load_store, merge_store, run_campaign, store_replications,
    store_stack_comparisons,
)

__all__ = [
    "CampaignDiff", "CampaignError", "CampaignManifest", "MetricChange",
    "WorkItem", "build_manifest", "diff_stores", "format_campaign_diff",
    "load_store", "merge_store", "metric_polarity", "run_campaign",
    "spec_fingerprint", "store_replications", "store_stack_comparisons",
]
