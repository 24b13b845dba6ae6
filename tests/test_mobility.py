"""Tests for mobility models, including property-based bounds checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility import (
    GaussMarkov,
    Highway,
    ManhattanGrid,
    RandomDirection,
    RandomWaypoint,
    Stationary,
    TracePlayback,
    linear_crossing,
)
from repro.radio import Point, Rectangle

BOUNDS = Rectangle(0, 0, 1000, 1000)


def test_stationary_never_moves():
    model = Stationary(Point(5, 5), BOUNDS)
    for _ in range(10):
        assert model.advance(1.0) == Point(5, 5)
    assert model.speed == 0.0


def test_start_outside_bounds_rejected():
    with pytest.raises(ValueError):
        Stationary(Point(-1, 0), BOUNDS)


def test_random_waypoint_respects_speed_limit():
    rng = np.random.default_rng(1)
    model = RandomWaypoint(Point(500, 500), BOUNDS, rng, speed_range=(1.0, 3.0))
    previous = model.position
    for _ in range(200):
        current = model.advance(1.0)
        assert previous.distance_to(current) <= 3.0 + 1e-9
        previous = current


def test_random_waypoint_eventually_moves():
    rng = np.random.default_rng(2)
    model = RandomWaypoint(
        Point(500, 500), BOUNDS, rng, speed_range=(5.0, 5.0), pause_range=(0.0, 0.0)
    )
    start = model.position
    model.advance(30.0)
    assert model.position.distance_to(start) > 0


def test_random_waypoint_bad_ranges():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        RandomWaypoint(Point(0, 0), BOUNDS, rng, speed_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        RandomWaypoint(Point(0, 0), BOUNDS, rng, pause_range=(5.0, 1.0))


@pytest.mark.parametrize(
    "model, bad",
    [
        (model, {name: value})
        for model, names in (
            (Highway, ("speed",)),
            (GaussMarkov, ("mean_speed",)),
            (RandomDirection, ("speed", "redirect_mean_interval")),
            (ManhattanGrid, ("block_size", "speed")),
        )
        for name in names
        for value in (0.0, -1.0, math.nan)
    ]
    + [
        (RandomWaypoint, {name: bounds})
        for name, values in (
            ("speed_range", ((0.0, 1.0), (math.nan, 1.0), (1.0, math.nan), (2.0, 1.0))),
            ("pause_range", ((-1.0, 1.0), (math.nan, 1.0), (0.0, math.nan), (2.0, 1.0))),
        )
        for bounds in values
    ],
)
def test_mis_built_models_fail_at_construction(model, bad):
    """A nan speed used to make every position nan, so the mobile never
    heard a cell; each bad field is refused up front, by name."""
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be"):
        model(Point(500, 500), BOUNDS, rng, **bad)
    model(Point(500, 500), BOUNDS, rng)  # defaults pass


@pytest.mark.parametrize(
    "model, name, value",
    [
        (model, name, value)
        for model, name in ((Highway, "speed_jitter"),)
        for value in (-1.0, math.nan)
    ],
)
def test_negative_or_nan_spreads_fail_at_construction(model, name, value):
    """A nan ``speed_jitter`` silently switched the jitter off; it is
    refused by name.  Zero, no spread at all, stays valid."""
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"^{name} must be non-negative, got"):
        model(Point(500, 500), BOUNDS, rng, **{name: value})
    model(Point(500, 500), BOUNDS, rng, **{name: 0.0}).advance(0.5)


def test_gauss_markov_alpha_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        GaussMarkov(Point(0, 0), BOUNDS, rng, alpha=1.5)


def test_gauss_markov_speed_tracks_mean():
    rng = np.random.default_rng(3)
    model = GaussMarkov(Point(500, 500), BOUNDS, rng, mean_speed=10.0, alpha=0.5)
    speeds = []
    for _ in range(500):
        model.advance(1.0)
        speeds.append(model.speed)
    assert 5.0 < np.mean(speeds) < 15.0


def test_random_direction_constant_speed():
    rng = np.random.default_rng(4)
    model = RandomDirection(Point(500, 500), BOUNDS, rng, speed=12.0)
    previous = model.position
    for _ in range(100):
        current = model.advance(1.0)
        # Straight-line distance can be less after a bounce, never more.
        assert previous.distance_to(current) <= 12.0 + 1e-6
        previous = current
    assert model.speed == pytest.approx(12.0)


def test_highway_constant_velocity_and_wrap():
    model = Highway(Point(990, 500), BOUNDS, speed=25.0, wrap=True)
    model.advance(1.0)
    # 990 + 25 = 1015 -> wraps to 15.
    assert model.position.x == pytest.approx(15.0)
    assert model.position.y == 500.0


def test_highway_bounce_mode_reverses():
    model = Highway(Point(995, 500), BOUNDS, speed=10.0, wrap=False)
    model.advance(1.0)
    assert model.position.x == pytest.approx(995.0)
    assert model.direction == -1


def test_highway_stays_in_lane():
    model = Highway(Point(0, 300), BOUNDS, speed=30.0)
    for _ in range(100):
        assert model.advance(1.0).y == 300


def test_manhattan_stays_on_grid():
    rng = np.random.default_rng(5)
    model = ManhattanGrid(
        Point(500, 500), BOUNDS, rng, block_size=100.0, speed=10.0
    )
    for _ in range(300):
        position = model.advance(1.0)
        on_street = (
            abs(position.x % 100.0) < 1e-6
            or abs(position.x % 100.0 - 100.0) < 1e-6
            or abs(position.y % 100.0) < 1e-6
            or abs(position.y % 100.0 - 100.0) < 1e-6
        )
        assert on_street, position


def test_trace_playback_interpolates():
    trace = TracePlayback(
        [(0.0, Point(0, 0)), (10.0, Point(100, 0))], BOUNDS
    )
    assert trace.advance(5.0) == Point(50, 0)
    assert trace.speed == pytest.approx(10.0)
    assert trace.advance(5.0) == Point(100, 0)
    # Past the end: stays put.
    assert trace.advance(5.0) == Point(100, 0)


def test_trace_requires_sorted_times():
    with pytest.raises(ValueError):
        TracePlayback([(5.0, Point(0, 0)), (1.0, Point(1, 1))], BOUNDS)


def test_linear_crossing_factory():
    trace = linear_crossing(Point(0, 0), Point(0, 100), duration=4.0, bounds=BOUNDS)
    trace.advance(2.0)
    assert trace.position == Point(0, 50)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    steps=st.integers(1, 100),
    dt=st.floats(0.1, 5.0),
)
def test_all_models_never_leave_bounds(seed, steps, dt):
    rng = np.random.default_rng(seed)
    start = Point(500, 500)
    models = [
        RandomWaypoint(start, BOUNDS, rng),
        GaussMarkov(start, BOUNDS, rng),
        RandomDirection(start, BOUNDS, rng),
        Highway(start, BOUNDS, rng, speed=30.0),
        ManhattanGrid(start, BOUNDS, rng),
    ]
    for model in models:
        for _ in range(steps):
            position = model.advance(dt)
            assert BOUNDS.contains(position), (type(model).__name__, position)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_models_deterministic_given_seed(seed):
    def run(seed):
        rng = np.random.default_rng(seed)
        model = RandomWaypoint(Point(500, 500), BOUNDS, rng)
        return [model.advance(1.0) for _ in range(20)]

    assert run(seed) == run(seed)
