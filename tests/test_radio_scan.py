"""The measurement epoch: ``SignalMeter.scan`` against its oracle.

``scan`` inlines the public ``measure`` -> ``received_power_dbm`` ->
``log_distance_path_loss_db`` chain into one loop over per-cell rows,
and a covering scan walks only the rows its coverage index lists for
the position.  The chain is left untouched and is the reference here:
every value the scan returns must be bit-identical to it, in the same
order.  The last tests
pin the consumers: controllers of every stack sample through ``scan``
only, and map what it returns back to stations by position rather than
by cell name.
"""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.radio.propagation as propagation_module
import repro.radio.signal as signal_module
from repro.mobility import Stationary
from repro.multitier.architecture import (
    WORLD_BOUNDS,
    MobilityController,
    MultiTierWorld,
)
from repro.policy import DecisionTrace
from repro.radio import Cell, Point, PropagationModel, SignalMeter, Tier
from repro.scenarios import build_scenario, get_scenario


def legacy_survey(meter, position):
    """``SignalMeter.survey`` as it was before the scan: one public
    ``measure`` per cell, floor filter, stable strongest-first sort."""
    measurements = [meter.measure(cell, position) for cell in meter.cells]
    audible = [m for m in measurements if m.rss_dbm >= meter.min_usable_dbm]
    audible.sort(key=lambda m: m.rss_dbm, reverse=True)
    return audible


def indexed(meter, measurements):
    """``Measurement``s as the ``(rss_dbm, index)`` pairs ``scan`` returns
    (index by identity: co-located twin cells compare equal by value)."""
    ids = [id(cell) for cell in meter.cells]
    return [(m.rss_dbm, ids.index(id(m.cell))) for m in measurements]


coordinates = st.sampled_from(
    # 0.1 and 1234.567 are not dyadic, so centre -/+ radius rounds;
    # at 1e12 one ulp is 0.12 mm
    [-1e9, -900.0, -40.0, 0.0, 0.1, 0.5, 300.0, 1234.567, 1e12]
)
cell_specs = st.tuples(
    coordinates,
    coordinates,
    st.sampled_from(list(Tier)),
    # 0 = the tier's radius; 60 beside 2500 is a pico under a macro
    st.sampled_from([0.0, 35.0, 60.0, 400.0, 2500.0, 3000.0]),
    st.sampled_from([0.0, 10.0, 36.0, 65.0]),  # 0 = the tier's power
)


@st.composite
def layouts(draw):
    """0-20 cells (small pools, so co-located equal-power twins and a
    pico inside a macro are common) and one free position."""
    cells = [
        Cell(f"c{index}", Point(x, y), tier, radius=radius, tx_power_dbm=power)
        for index, (x, y, tier, radius, power) in enumerate(
            draw(st.lists(cell_specs, min_size=0, max_size=20))
        )
    ]
    if cells and draw(st.booleans()):
        cells[0].radius = 0.0  # a degenerate disc: only its centre is covered
    anchor = draw(st.sampled_from(cells)) if cells else None
    free = Point(draw(st.floats(-5000.0, 5000.0)), draw(st.floats(-5000.0, 5000.0)))
    return cells, anchor, free, draw(st.integers(0, 64)), draw(st.integers(0, 64))


def either_side(value):
    return [math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)]


def probe_positions(meter, anchor, free, column, row):
    """Where an index could go wrong: on, just inside and just outside
    the anchor's disc (axis points and a diagonal), its centre and the
    1 m clamp, the corners and outside of the bounding box, and a bucket
    boundary of the meter's own grid, each to the last float."""
    positions = [free]
    if anchor is None:
        return positions + [Point(0.0, 0.0), Point(1e12, -1e9)]
    center, radius = anchor.center, anchor.radius
    positions += [center, center.offset(0.3, 0.4)]
    for reach in either_side(radius) + [radius * 1.0000001]:
        positions.append(center.offset(reach * 0.6, reach * 0.8))
        for sign in (-1.0, 1.0):
            positions += [Point(x, center.y) for x in either_side(center.x + sign * reach)]
            positions += [Point(center.x, y) for y in either_side(center.y + sign * reach)]
    x_edges = either_side(meter._x0) + either_side(meter._x1)
    y_edges = either_side(meter._y0) + either_side(meter._y1)
    if meter._scale_x > 0.0 and meter._scale_y > 0.0:
        x_edges += either_side(meter._x0 + column / meter._scale_x)
        y_edges += either_side(meter._y0 + row / meter._scale_y)
    positions += [Point(x, center.y) for x in x_edges]
    positions += [Point(center.x, y) for y in y_edges]
    positions += [Point(x, y) for x, y in zip(x_edges, y_edges)]
    return positions


@settings(max_examples=150, deadline=None)
@given(layouts(), st.sampled_from([2.0, 3.5, 4.2]), st.sampled_from([-95.0, -60.0]))
def test_scan_equals_the_measure_chain(layout, exponent, floor):
    """The covering scan walks one bucket of the coverage index; the
    oracle measures every cell and filters with ``Cell.covers``."""
    cells, anchor, free, column, row = layout
    meter = SignalMeter(PropagationModel(exponent=exponent), cells, floor)
    for position in probe_positions(meter, anchor, free, column, row):
        oracle = legacy_survey(meter, position)
        assert meter.scan(position) == indexed(meter, oracle)
        assert meter.scan(position, covering=True) == indexed(
            meter, [m for m in oracle if m.cell.covers(position)]
        )
        assert indexed(meter, meter.survey(position)) == indexed(meter, oracle)


def test_covering_scan_visits_only_the_rows_in_reach(monkeypatch):
    """What the index is for: under the Fig 3.1 strip's eight cells a
    street-level sample computes two or three distances, not eight —
    and a position off the map none at all."""
    world = MultiTierWorld()
    cells = [station.cell for station in world.all_radio_stations()]
    meter = SignalMeter(PropagationModel(), cells)
    distances = []
    monkeypatch.setattr(
        signal_module, "hypot", lambda dx, dy: distances.append(1) or math.hypot(dx, dy)
    )

    def walked(position, covering=True):
        del distances[:]
        heard = meter.scan(position, covering=covering)
        return len(distances), heard

    street = [walked(Point(float(x), 10.0))[0] for x in range(-3100, 3101, 50)]
    assert max(street) <= 4 < len(cells)
    assert sum(street) / len(street) < 3.0
    off_the_map = Point(-4600.0, 800.0)  # 2,600 m from R1's 2,500 m disc
    assert walked(off_the_map) == (0, [])
    rows, heard = walked(off_the_map, covering=False)
    assert rows == len(cells) and heard  # audible, just not covering


# ----------------------------------------------------------------------
# The consumers
# ----------------------------------------------------------------------
def _short_run(stack):
    spec = get_scenario("campus-dense").replace(
        stack=stack, population=8, duration=6.0, traffic_mix={"idle": 1.0}
    )
    return build_scenario(spec, seed=1)


@pytest.mark.parametrize("stack", ["multitier", "cellularip"])
def test_sampling_runs_one_scan_and_none_of_the_per_cell_chain(stack, monkeypatch):
    """A controller's sample is one ``scan``: no ``Cell.covers``, no
    ``SignalMeter.measure``, no path-loss call, and ``Point.distance_to``
    only from the mobility models moving the mobile (some of them via
    ``Point.towards``)."""
    built = _short_run(stack)
    callers = {}

    def spy(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            caller = sys._getframe(1).f_code.co_filename
            callers.setdefault(name, set()).add(caller)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    scans = []
    scan = SignalMeter.scan
    monkeypatch.setattr(
        SignalMeter, "scan", lambda *args, **kw: scans.append(1) or scan(*args, **kw)
    )
    spy(Cell, "covers")
    spy(SignalMeter, "measure")
    spy(propagation_module, "log_distance_path_loss_db")
    spy(Point, "distance_to")
    metrics = built.execute()

    assert metrics["attached"] == 8
    assert len(scans) >= 8 * 6 / built.spec.sample_period  # one per sample
    assert set(callers) <= {"distance_to"}
    movers = ("/repro/mobility/", "/repro/radio/geometry.py")  # Point.towards
    assert all(
        any(mover in caller for mover in movers)
        for caller in callers.get("distance_to", ())
    )


def test_same_named_cells_map_to_their_own_stations():
    """Candidates map to stations by position in the station list, so
    two stations whose cells share a name stay two stations (a by-name
    table resolved both to the last one)."""
    world = MultiTierWorld()
    near = world.add_pico("B", "lobby", Point(-2700, 50))
    far = world.add_pico("F", "annex", Point(2700, 50))
    near.cell.name = far.cell.name = "cell-duplicate"
    mobile = world.add_mobile("mn")
    meter = SignalMeter(PropagationModel(), [near.cell, far.cell])
    controller = MobilityController(
        world.sim, mobile, Stationary(Point(-2700, 45), WORLD_BOUNDS), [near, far],
        meter, DecisionTrace(),
    )
    heard = controller.meter.scan(Point(-2700, 45), covering=True)
    assert [controller.stations[index] for _rss, index in heard] == [near]
    world.sim.run(until=2.0)
    assert mobile.serving_bs is near
