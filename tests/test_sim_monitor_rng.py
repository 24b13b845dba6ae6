"""Tests for the named RNG streams."""

import pytest

from repro.sim import RandomStreams


# ----------------------------------------------------------------------
# RandomStreams extras
# ----------------------------------------------------------------------
def test_streams_choice_and_bernoulli():
    streams = RandomStreams(7)
    options = ["a", "b", "c"]
    picks = {streams.choice("pick", options) for _ in range(50)}
    assert picks <= set(options)
    assert len(picks) > 1


def test_streams_integers_bounds():
    streams = RandomStreams(3)
    values = [streams.integers("die", 1, 7) for _ in range(100)]
    assert all(1 <= v < 7 for v in values)


def test_streams_validation():
    streams = RandomStreams(0)
    with pytest.raises(ValueError):
        streams.exponential("x", 0.0)


def test_streams_exponential_rejects_nan_mean():
    with pytest.raises(ValueError, match="mean must be positive, got nan"):
        RandomStreams(0).exponential("x", float("nan"))
