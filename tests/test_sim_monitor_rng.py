"""Tests for the named RNG streams."""

import numpy as np
import pytest

from repro.sim import RandomStreams
from repro.sim.rng import BLOCK, standard_exponentials, standard_normals


# ----------------------------------------------------------------------
# RandomStreams extras
# ----------------------------------------------------------------------
def test_streams_validation():
    streams = RandomStreams(0)
    with pytest.raises(ValueError):
        streams.exponential("x", 0.0)


def test_streams_exponential_rejects_nan_mean():
    with pytest.raises(ValueError, match="mean must be positive, got nan"):
        RandomStreams(0).exponential("x", float("nan"))


# ----------------------------------------------------------------------
# Block readers and one-draw names
# ----------------------------------------------------------------------
def test_block_readers_equal_scalar_draws_on_a_twin_generator():
    """Across three block boundaries a reader gives the scalar draws bit
    for bit, and ``loc + scale * z`` / ``scale * e`` are numpy's own
    ``normal(loc, scale)`` / ``exponential(scale)``."""
    reads = 3 * BLOCK + 7
    for reader, scalar in (
        (standard_normals, "standard_normal"),
        (standard_exponentials, "standard_exponential"),
    ):
        blocked = reader(np.random.default_rng(11))
        twin = np.random.default_rng(11)
        assert [next(blocked) for _ in range(reads)] == [
            float(getattr(twin, scalar)()) for _ in range(reads)
        ]

    for loc, scale in ((0.0, 1.0), (0.0, 0.7), (2.5, 3.0), (-1.0, 1e-3)):
        normals = standard_normals(np.random.default_rng(5))
        twin = np.random.default_rng(5)
        for _ in range(reads):
            assert loc + scale * next(normals) == float(twin.normal(loc, scale))
    for scale in (1.0, 0.05, 1.35, 7.0):
        exponentials = standard_exponentials(np.random.default_rng(6))
        twin = np.random.default_rng(6)
        for _ in range(reads):
            assert scale * next(exponentials) == float(twin.exponential(scale))


def test_uniform_once_is_the_streams_first_draw_and_caches_nothing():
    streams = RandomStreams(9)
    once = streams.uniform_once("mn3.start.x", -40.0, 900.0)
    assert not streams._streams
    assert once == RandomStreams(9).stream("mn3.start.x").uniform(-40.0, 900.0)
    # Nothing was advanced: the stream's first draw is still the same.
    assert streams.stream("mn3.start.x").uniform(-40.0, 900.0) == once
    assert streams.uniform_once("mn3.start.y", -40.0, 900.0) != once
