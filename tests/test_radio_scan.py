"""The measurement epoch: ``SignalMeter.scan`` against its oracle.

``scan`` inlines the public ``measure`` -> ``received_power_dbm`` ->
``log_distance_path_loss_db`` chain into one loop over per-cell rows.
The chain is left untouched and is the reference here: every value the
scan returns must be bit-identical to it, in the same order, with the
same shadowing draws.  The last tests pin the consumers: controllers
of every stack sample through ``scan`` only, and map what it returns
back to stations by position rather than by cell name.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.radio.propagation as propagation_module
from repro.mobility import Stationary
from repro.multitier.architecture import (
    WORLD_BOUNDS,
    MobilityController,
    MultiTierWorld,
)
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


coordinates = st.sampled_from([-900.0, -40.0, 0.0, 0.5, 300.0, 1234.5])
cell_specs = st.tuples(
    coordinates,
    coordinates,
    st.sampled_from(list(Tier)),
    st.sampled_from([0.0, 35.0, 400.0, 3000.0]),  # 0 = the tier's radius
    st.sampled_from([0.0, 10.0, 36.0, 65.0]),  # 0 = the tier's power
)


@st.composite
def layouts(draw):
    """1-20 cells (small pools, so co-located equal-power twins are
    common) and positions inside, exactly on the edge of, just outside
    and far from coverage."""
    cells = [
        Cell(f"c{index}", Point(x, y), tier, radius=radius, tx_power_dbm=power)
        for index, (x, y, tier, radius, power) in enumerate(
            draw(st.lists(cell_specs, min_size=1, max_size=20))
        )
    ]
    anchor = draw(st.sampled_from(cells))
    positions = [
        anchor.center,
        anchor.center.offset(anchor.radius, 0.0),
        anchor.center.offset(0.0, -anchor.radius),
        anchor.center.offset(anchor.radius * 1.0000001, 0.0),
        anchor.center.offset(0.3, 0.4),  # inside the 1 m clamp
        Point(draw(st.floats(-5000.0, 5000.0)), draw(st.floats(-5000.0, 5000.0))),
    ]
    return cells, positions


@settings(max_examples=150, deadline=None)
@given(layouts(), st.sampled_from([2.0, 3.5, 4.2]), st.sampled_from([-95.0, -60.0]))
def test_scan_equals_the_measure_chain(layout, exponent, floor):
    cells, positions = layout
    meter = SignalMeter(PropagationModel(exponent=exponent), cells, floor)
    for position in positions:
        oracle = legacy_survey(meter, position)
        assert meter.scan(position) == indexed(meter, oracle)
        assert meter.scan(position, covering=True) == indexed(
            meter, [m for m in oracle if m.cell.covers(position)]
        )
        assert indexed(meter, meter.survey(position)) == indexed(meter, oracle)


@settings(max_examples=50, deadline=None)
@given(layouts(), st.integers(0, 2**32 - 1), st.booleans())
def test_shadowed_scan_draws_once_per_cell_in_cell_order(layout, seed, covering):
    cells, positions = layout

    def shadowed_meter():
        rng = np.random.default_rng(seed)
        model = PropagationModel(shadowing_sigma_db=6.0, rng=rng)
        return SignalMeter(model, cells), rng

    meter, rng = shadowed_meter()
    oracle_meter, oracle_rng = shadowed_meter()
    for position in positions:
        oracle = legacy_survey(oracle_meter, position)
        if covering:
            oracle = [m for m in oracle if m.cell.covers(position)]
        assert meter.scan(position, covering=covering) == indexed(meter, oracle)
    # Both generators stand exactly len(cells) draws per call further on.
    fresh = np.random.default_rng(seed)
    for _ in range(len(cells) * len(positions)):
        fresh.normal(0.0, 6.0)
    assert rng.normal() == oracle_rng.normal() == fresh.normal()


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
    controller = MobilityController(
        world.sim, mobile, Stationary(Point(-2700, 45), WORLD_BOUNDS), [near, far]
    )
    candidates = controller._candidates(Point(-2700, 45))
    assert [c.station for c in candidates] == [near]
    world.sim.run(until=2.0)
    assert mobile.serving_bs is near
