"""Cross-run regression diffs: compare two campaign results stores.

``repro campaign diff <runA> <runB>`` asks whether a change regressed
any metric beyond seed noise.  Both stores are re-aggregated per grid
cell (seeds -> mean ± Student-t CI via
:func:`repro.campaign.store.store_replications`), then every metric of
every shared cell is compared.  A difference is **significant** only
when the two confidence intervals are disjoint; it is a **regression**
when the metric moved in its known-bad direction
(:data:`LOWER_IS_BETTER` / :data:`HIGHER_IS_BETTER`), an
**improvement** the other way, and a direction-neutral **change** for
metrics with no known polarity.  Single-seed cells have zero-width
intervals, so any drift there is significant.

Determinism: the diff and its rendering are pure functions of the two
stores' contents — byte-identical output for byte-identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.stats import Estimate
from repro.metrics.tables import format_table

from repro.campaign.manifest import CampaignError
from repro.campaign.store import store_replications

#: Metrics where an increase is a regression (QoS penalties, losses,
#: latencies, drops, blocking).  Namespaced stack extras match on the
#: part after the last dot (``cip.handoff_latency`` -> see
#: :func:`metric_polarity`).
LOWER_IS_BETTER = frozenset({
    "loss_rate", "mean_delay", "max_delay", "jitter", "max_gap",
    "handoff_latency", "blocked_attaches", "dropped", "drops",
    "air_detach_drops", "air_busiest_downlink", "signalling_messages",
})

#: Metrics where a decrease is a regression (delivery and throughput).
HIGHER_IS_BETTER = frozenset({
    "delivered", "received", "throughput", "goodput", "delivery_ratio",
})

#: Verdicts of significant changes, in report order.
_SIGNIFICANT = ("regressed", "improved", "changed")


def metric_polarity(metric: str) -> int:
    """The known-bad direction of one metric name: ``+1`` when higher is
    worse, ``-1`` when lower is worse, ``0`` when unknown.  Namespaced
    names (``cip.handoff_latency``) are judged by their last component.
    Deterministic."""
    leaf = metric.rsplit(".", 1)[-1]
    if leaf in LOWER_IS_BETTER:
        return +1
    if leaf in HIGHER_IS_BETTER:
        return -1
    return 0


@dataclass(frozen=True)
class MetricChange:
    """One (group, metric) comparison between two stores."""

    group: str
    metric: str
    a: Estimate
    b: Estimate
    verdict: str  # 'ok' | 'regressed' | 'improved' | 'changed'

    @property
    def delta(self) -> float:
        """Mean difference, B minus A."""
        return self.b.mean - self.a.mean

    @property
    def relative(self) -> float:
        """Relative change (B-A)/|A|; ``nan`` when A's mean is 0."""
        if self.a.mean == 0:
            return float("nan")
        return self.delta / abs(self.a.mean)

    @property
    def significant(self) -> bool:
        """True when the verdict is anything but ``ok``."""
        return self.verdict != "ok"


@dataclass(frozen=True)
class CampaignDiff:
    """The full comparison of two campaign results stores."""

    label_a: str
    label_b: str
    confidence: float
    changes: list[MetricChange]
    only_in_a: list[str]
    only_in_b: list[str]

    def significant(self) -> list[MetricChange]:
        """The changes whose confidence intervals are disjoint."""
        return [change for change in self.changes if change.significant]

    def regressions(self) -> list[MetricChange]:
        """The significant changes in a metric's known-bad direction."""
        return [change for change in self.changes if change.verdict == "regressed"]


def _verdict(metric: str, a: Estimate, b: Estimate) -> str:
    """``ok`` unless the two intervals are disjoint; then the metric's
    polarity and the direction of the move decide."""
    if not (a.high < b.low or b.high < a.low):
        return "ok"
    polarity = metric_polarity(metric)
    if polarity == 0:
        return "changed"
    return "regressed" if (polarity > 0) == (b.mean > a.mean) else "improved"


def diff_stores(
    store_a: dict,
    store_b: dict,
    label_a: str = "A",
    label_b: str = "B",
    confidence: float = 0.95,
) -> CampaignDiff:
    """Compare two loaded stores per (grid cell, metric) with CIs.

    Cells match by group label; cells in only one store are listed, not
    compared, and so is a metric only one run emitted (e.g. gated
    ``policy.*`` keys): absence is a shape difference, not a
    regression.  A smoke store against a full-size one raises
    :class:`CampaignError`: every metric would differ by construction.
    Deterministic: pure function of the two stores.
    """
    smoke_a, smoke_b = bool(store_a.get("smoke")), bool(store_b.get("smoke"))
    if smoke_a != smoke_b:
        raise CampaignError(
            f"cannot diff {label_a} (smoke={smoke_a}) against {label_b} "
            f"(smoke={smoke_b}): a smoke store only compares with another "
            f"smoke store"
        )
    groups_a = store_replications(store_a, confidence)
    groups_b = store_replications(store_b, confidence)
    changes: list[MetricChange] = []
    for group, (_seeds, replication_a) in groups_a.items():
        if group not in groups_b:
            continue
        metrics_b = groups_b[group][1].metrics
        for metric, a in replication_a.metrics.items():
            if metric in metrics_b:
                b = metrics_b[metric]
                changes.append(
                    MetricChange(group, metric, a, b, _verdict(metric, a, b))
                )
    return CampaignDiff(
        label_a=label_a,
        label_b=label_b,
        confidence=confidence,
        changes=changes,
        only_in_a=[group for group in groups_a if group not in groups_b],
        only_in_b=[group for group in groups_b if group not in groups_a],
    )


def _change_table(
    diff: CampaignDiff, changes: list[MetricChange], verdicts: bool
) -> str:
    """Mean ± CI of both runs and the delta per change; ``verdicts``
    adds the relative-change and verdict columns."""
    ci = f"±ci{int(round(diff.confidence * 100))}"
    headers = ["group", "metric", diff.label_a, ci, diff.label_b, ci, "delta"]
    rows = [
        [
            change.group, change.metric, change.a.mean, change.a.half_width,
            change.b.mean, change.b.half_width, change.delta,
        ] + ([change.relative, change.verdict] if verdicts else [])
        for change in changes
    ]
    return format_table(
        headers + (["relative", "verdict"] if verdicts else []), rows
    )


def format_campaign_diff(diff: CampaignDiff, show_all: bool = False) -> str:
    """Render a :class:`CampaignDiff` as the CLI's regression report.

    Significant changes (regressed, improved, then direction-neutral)
    as one table, or an explicit "no regressions" line when there are
    none; ``show_all=True`` appends the non-significant rows.  Groups
    in only one store are listed last.  Deterministic: pure rendering.
    """
    level = int(round(diff.confidence * 100))
    lines = [
        f"campaign diff: {diff.label_a} vs {diff.label_b} "
        f"({len(diff.changes)} shared metric comparisons, {level}% CIs)"
    ]
    significant = sorted(
        diff.significant(),
        key=lambda change: (
            _SIGNIFICANT.index(change.verdict), change.group, change.metric
        ),
    )
    if not significant:
        lines.append(
            "no regressions: every shared metric's confidence intervals "
            "overlap"
        )
    else:
        counts = [
            sum(1 for change in significant if change.verdict == verdict)
            for verdict in _SIGNIFICANT
        ]
        lines.append(
            "{} regressed, {} improved, {} changed (direction-neutral)"
            .format(*counts)
        )
        lines.append(_change_table(diff, significant, verdicts=True))
    stable = [change for change in diff.changes if not change.significant]
    if show_all and stable:
        lines.append("")
        lines.append("within confidence intervals (no change claimed):")
        lines.append(_change_table(diff, stable, verdicts=False))
    if diff.only_in_a:
        lines.append(f"only in {diff.label_a}: {', '.join(diff.only_in_a)}")
    if diff.only_in_b:
        lines.append(f"only in {diff.label_b}: {', '.join(diff.only_in_b)}")
    return "\n".join(lines)


__all__ = [
    "HIGHER_IS_BETTER",
    "LOWER_IS_BETTER",
    "CampaignDiff",
    "MetricChange",
    "diff_stores",
    "format_campaign_diff",
    "metric_polarity",
]
