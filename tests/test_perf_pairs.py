"""``tools/perf_pairs.py``'s claim rule on canned numbers (no timing
here: the pairs themselves are run by hand, see the tool's docstring)."""

import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def perf_pairs():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import perf_pairs as module
    finally:
        sys.path.pop(0)
    return module


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_quartiles_are_the_inclusive_ones(perf_pairs):
    assert perf_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert perf_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_clear_gain_is_a_gain_in_either_direction(perf_pairs):
    change = [value * 0.8 for value in PARENT]
    verdict = perf_pairs.judge(PARENT, change, "lower")
    assert (verdict["wins"], verdict["ties"], verdict["gain"]) == (10, 0, True)
    assert verdict["ratio"] == pytest.approx(0.8)
    assert verdict["parent"][1] == 1.0
    # The same numbers read as a throughput are a loss, not a gain.
    assert perf_pairs.judge(PARENT, change, "higher")["gain"] is False
    assert perf_pairs.judge(change, PARENT, "higher")["gain"] is True


def test_nine_of_ten_is_enough_and_eight_is_not(perf_pairs):
    change = [value * 0.8 for value in PARENT]
    change[3] = PARENT[3] * 1.1
    assert perf_pairs.judge(PARENT, change, "lower")["wins"] == 9
    assert perf_pairs.judge(PARENT, change, "lower")["gain"] is True
    change[4] = PARENT[4] * 1.1
    assert perf_pairs.judge(PARENT, change, "lower")["gain"] is False


def test_a_tie_wins_for_neither_side(perf_pairs):
    change = [value * 0.8 for value in PARENT]
    change[0], change[1] = PARENT[0], PARENT[1]
    verdict = perf_pairs.judge(PARENT, change, "lower")
    assert (verdict["wins"], verdict["ties"], verdict["gain"]) == (8, 2, False)


def test_medians_inside_the_parents_spread_are_no_gain(perf_pairs):
    # Ahead in every pair, but by less than the parent's own
    # interquartile range (0.035 here).
    change = [value - 0.01 for value in PARENT]
    verdict = perf_pairs.judge(PARENT, change, "lower")
    parent_q1, _median, parent_q3 = verdict["parent"]
    assert verdict["wins"] == 10
    assert parent_q3 - parent_q1 > 0.01
    assert verdict["gain"] is False
