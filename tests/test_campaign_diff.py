"""Golden tests for cross-run regression diffs (`repro.campaign.diff`).

Two synthetic stores live in ``tests/data/``: run A (the baseline) and
run B, seeded with one regression per polarity class — ``loss_rate`` up
and ``delivered`` down (regressed), ``throughput`` up (improved),
``handoffs`` shifted (direction-neutral change) — plus one grid cell
present in only one run each.  The rendered diff is pinned
byte-for-byte in ``campaign_diff_regression.txt``; diffing A against
itself is pinned to the explicit "no regressions" report in
``campaign_diff_identical.txt``.

Beyond the goldens: polarity lookup (namespaced leaf matching), the
CI-disjoint significance rule (overlap is never flagged, zero-width
single-seed intervals always are), and ``--strict`` semantics via
``CampaignDiff.regressions``.
"""

import pathlib

import pytest

from repro.campaign import (
    CampaignError,
    diff_stores,
    format_campaign_diff,
    load_store,
)
from repro.campaign.diff import (
    HIGHER_IS_BETTER,
    LOWER_IS_BETTER,
    MetricChange,
    metric_polarity,
)
from repro.metrics.stats import Estimate

DATA = pathlib.Path(__file__).resolve().parent / "data"


def _stores():
    a = load_store(DATA / "campaign_store_a.json")
    b = load_store(DATA / "campaign_store_b.json")
    return a, b


# ----------------------------------------------------------------------
# Goldens
# ----------------------------------------------------------------------
def test_seeded_regression_matches_golden_diff_table():
    a, b = _stores()
    rendered = format_campaign_diff(
        diff_stores(a, b, label_a="runA", label_b="runB")
    ) + "\n"
    golden = (DATA / "campaign_diff_regression.txt").read_text()
    assert rendered == golden


def test_identical_runs_match_golden_no_regressions():
    a, _b = _stores()
    rendered = format_campaign_diff(
        diff_stores(a, a, label_a="runA", label_b="runA")
    ) + "\n"
    golden = (DATA / "campaign_diff_identical.txt").read_text()
    assert rendered == golden
    assert "no regressions" in rendered


def test_seeded_verdicts_are_exactly_as_designed():
    a, b = _stores()
    diff = diff_stores(a, b)
    verdicts = {
        change.metric: change.verdict for change in diff.significant()
    }
    assert verdicts == {
        "loss_rate": "regressed",
        "delivered": "regressed",
        "throughput": "improved",
        "handoffs": "changed",
    }
    assert sorted(change.metric for change in diff.regressions()) == [
        "delivered", "loss_rate",
    ]
    assert diff.only_in_a == ["campus-dense [multitier]"]
    assert diff.only_in_b == ["campus-dense [cellularip]"]
    # mean_delay is identical across runs: compared, but never flagged
    assert any(
        change.metric == "mean_delay" and change.verdict == "ok"
        for change in diff.changes
    )


def test_smoke_store_against_full_size_store_is_refused():
    a, _b = _stores()
    with pytest.raises(CampaignError, match="smoke"):
        diff_stores(a, {**a, "smoke": not a["smoke"]})


def test_show_all_appends_the_stable_rows():
    a, b = _stores()
    diff = diff_stores(a, b, label_a="runA", label_b="runB")
    rendered = format_campaign_diff(diff, show_all=True)
    assert "within confidence intervals" in rendered
    assert "mean_delay" in rendered


# ----------------------------------------------------------------------
# Significance rule + polarity
# ----------------------------------------------------------------------
def test_overlapping_intervals_are_never_significant():
    a, _b = _stores()
    diff = diff_stores(a, a)
    assert diff.significant() == []
    assert all(change.verdict == "ok" for change in diff.changes)


def test_metric_polarity_judges_the_namespaced_leaf():
    assert metric_polarity("loss_rate") == +1
    assert metric_polarity("cip.handoff_latency") == +1
    assert metric_polarity("delivered") == -1
    assert metric_polarity("mip.delivered") == -1
    assert metric_polarity("handoffs") == 0
    assert metric_polarity("cip.route_updates") == 0
    assert not (LOWER_IS_BETTER & HIGHER_IS_BETTER)


def test_metric_change_delta_and_relative():
    change = MetricChange(
        group="g", metric="loss_rate",
        a=Estimate(mean=0.2, half_width=0.01, n=3),
        b=Estimate(mean=0.3, half_width=0.01, n=3),
        verdict="regressed",
    )
    assert change.delta == 0.3 - 0.2
    assert abs(change.relative - 0.5) < 1e-12
    assert change.significant
    zero = MetricChange(
        group="g", metric="x",
        a=Estimate(mean=0.0, half_width=0.0, n=1),
        b=Estimate(mean=1.0, half_width=0.0, n=1),
        verdict="changed",
    )
    assert zero.relative != zero.relative  # nan when A's mean is 0
