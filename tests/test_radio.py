"""Tests for geometry, cells, propagation and signal measurement."""

import math

import pytest

from repro.radio import (
    Cell,
    ChannelPlan,
    Point,
    PropagationModel,
    Rectangle,
    SharedChannel,
    SignalMeter,
    Tier,
    log_distance_path_loss_db,
)
from repro.sim import Simulator


# ----------------------------------------------------------------------
# Geometry
# ----------------------------------------------------------------------
def test_point_distance():
    assert Point(0, 0).distance_to(Point(3, 4)) == 5.0


def test_point_towards_does_not_overshoot():
    start = Point(0, 0)
    assert start.towards(Point(10, 0), 4.0) == Point(4.0, 0.0)
    assert start.towards(Point(2, 0), 100.0) == Point(2, 0)


def test_rectangle_contains_and_clamp():
    box = Rectangle(0, 0, 10, 10)
    assert box.contains(Point(5, 5))
    assert not box.contains(Point(11, 5))
    assert box.clamp(Point(-3, 15)) == Point(0, 10)


def test_rectangle_reflect():
    box = Rectangle(0, 0, 10, 10)
    reflected, flip_x, flip_y = box.reflect(Point(12, 5))
    assert reflected == Point(8, 5)
    assert flip_x and not flip_y


def test_rectangle_degenerate_rejected():
    with pytest.raises(ValueError):
        Rectangle(0, 0, 0, 10)


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
def test_cell_defaults_by_tier():
    micro = Cell("m1", Point(0, 0), Tier.MICRO)
    macro = Cell("M1", Point(0, 0), Tier.MACRO)
    assert macro.radius > micro.radius
    assert micro.bandwidth > macro.bandwidth


def test_cell_coverage():
    cell = Cell("c", Point(0, 0), Tier.MICRO, radius=100.0)
    assert cell.covers(Point(50, 0))
    assert not cell.covers(Point(150, 0))


# ----------------------------------------------------------------------
# Propagation
# ----------------------------------------------------------------------
def free_space_loss(distance):
    """Free space is the log-distance law at exponent 2 (its reference
    loss is the free-space loss at 1 m for a ~2 GHz carrier)."""
    return log_distance_path_loss_db(distance, exponent=2.0)


def test_free_space_loss_increases_with_distance():
    assert free_space_loss(200.0) > free_space_loss(100.0)


def test_free_space_loss_6db_per_doubling():
    delta = free_space_loss(200.0) - free_space_loss(100.0)
    assert delta == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)


def test_log_distance_exponent_controls_slope():
    urban = log_distance_path_loss_db(1000.0, exponent=3.5)
    free = log_distance_path_loss_db(1000.0, exponent=2.0)
    assert urban > free


def test_propagation_rx_power_monotonic():
    model = PropagationModel(exponent=3.5)
    near = model.received_power_dbm(30.0, 10.0)
    far = model.received_power_dbm(30.0, 1000.0)
    assert near > far


def test_invalid_distance_rejected():
    with pytest.raises(ValueError):
        log_distance_path_loss_db(0.0)
    with pytest.raises(ValueError):
        log_distance_path_loss_db(-5.0)


# ----------------------------------------------------------------------
# Signal meter
# ----------------------------------------------------------------------
def make_two_cell_meter():
    # 400 m spacing: with 30 dBm tx, 3.5 exponent and a -95 dBm floor the
    # audible radius is ~296 m, so the two cells overlap between x=104
    # and x=296 (midpoint at x=200).
    left = Cell("left", Point(0, 0), Tier.MICRO, radius=400.0, tx_power_dbm=30.0)
    right = Cell("right", Point(400, 0), Tier.MICRO, radius=400.0, tx_power_dbm=30.0)
    meter = SignalMeter(PropagationModel(exponent=3.5), [left, right])
    return left, right, meter


def test_survey_orders_by_strength():
    left, right, meter = make_two_cell_meter()
    survey = meter.survey(Point(150, 0))
    assert len(survey) == 2
    assert survey[0].cell is left
    assert survey[0].rss_dbm > survey[1].rss_dbm


def test_survey_excludes_cells_below_floor():
    left, _right, meter = make_two_cell_meter()
    survey = meter.survey(Point(10, 0))
    assert [m.cell for m in survey] == [left]


# ----------------------------------------------------------------------
# nan passes an ``x <= 0`` guard; every radio constructor refuses it
# ----------------------------------------------------------------------
def _shared_channel(**changes):
    knobs = dict(downlink_bps=8000.0, uplink_bps=4000.0, admission_factor=None)
    return SharedChannel(Simulator(), "air", **{**knobs, **changes})


def _cell(**changes):
    return Cell("nan", Point(0, 0), Tier.MICRO, **changes)


@pytest.mark.parametrize(
    "build, field",
    [
        (_shared_channel, "downlink_bps"),
        (_shared_channel, "uplink_bps"),
        (_shared_channel, "admission_factor"),
        (ChannelPlan, "macro_bandwidth"),
        (ChannelPlan, "micro_bandwidth"),
        (ChannelPlan, "pico_bandwidth"),
        (ChannelPlan, "admission_factor"),
        (PropagationModel, "exponent"),
        (_cell, "radius"),
        (_cell, "bandwidth"),
        (_cell, "channels"),
        (_cell, "channel_downlink"),
        (_cell, "channel_uplink"),
    ],
)
def test_radio_constructors_reject_nan(build, field):
    with pytest.raises(ValueError, match=field) as error:
        build(**{field: float("nan")})
    assert "nan" in str(error.value) and "\n" not in str(error.value)
