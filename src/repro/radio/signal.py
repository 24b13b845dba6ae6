"""Signal measurement and handoff triggering.

The classic mobile-controlled handoff trigger: hand off when a
candidate cell's signal exceeds the serving cell's by a hysteresis
margin (optionally sustained for a time-to-trigger), or when the
serving signal falls below a drop threshold.  This implements the
"power of signal from BS" factor of the paper's §3.2 decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot, log10
from operator import itemgetter
from typing import Optional

from repro.radio.cells import Cell
from repro.radio.geometry import Point
from repro.radio.propagation import REFERENCE_LOSS_DB, PropagationModel

_RSS = itemgetter(0)


@dataclass
class Measurement:
    """One signal-strength sample for a cell."""

    cell: Cell
    rss_dbm: float

    def __repr__(self) -> str:
        return f"<Measurement {self.cell.name} {self.rss_dbm:.1f}dBm>"


class SignalMeter:
    """Measures RSS from every cell at a position and ranks candidates.

    One meter can serve every mobile of a world: ``cells`` (and each
    cell's centre, radius and power) are read once, at construction.
    """

    def __init__(
        self,
        propagation: PropagationModel,
        cells: list[Cell],
        min_usable_dbm: float = -95.0,
    ) -> None:
        self.propagation = propagation
        self.cells = list(cells)
        self.min_usable_dbm = min_usable_dbm
        self._rows = [
            (cell.center.x, cell.center.y, cell.radius, cell.tx_power_dbm)
            for cell in self.cells
        ]

    def measure(self, cell: Cell, position: Point) -> Measurement:
        """Received signal strength of ``cell`` at ``position`` (dBm)."""
        distance = max(cell.center.distance_to(position), 1.0)
        rss = self.propagation.received_power_dbm(cell.tx_power_dbm, distance)
        return Measurement(cell, rss)

    def scan(self, position: Point, covering: bool = False) -> list[tuple[float, int]]:
        """One measurement epoch: ``(rss_dbm, index into cells)`` per
        audible cell, strongest first, ties in cell order; ``covering``
        keeps only the cells whose disc holds ``position``.

        :meth:`measure`'s float operations in the same order, inlined.
        Coverage is tested on the raw distance before any path loss is
        computed; with shadowing on, every cell takes its draw, in cell
        order, whether or not it is then kept.
        """
        px, py = position.x, position.y
        propagation = self.propagation
        slope = 10.0 * propagation.exponent
        sigma = propagation.shadowing_sigma_db
        floor = self.min_usable_dbm
        heard = []
        for index, (cx, cy, radius, tx_power_dbm) in enumerate(self._rows):
            distance = hypot(cx - px, cy - py)
            shadow = float(propagation.rng.normal(0.0, sigma)) if sigma > 0 else 0.0
            if covering and distance > radius:
                continue
            clamped = distance if distance > 1.0 else 1.0
            rss = tx_power_dbm - (REFERENCE_LOSS_DB + slope * log10(clamped) + shadow)
            if rss >= floor:
                heard.append((rss, index))
        heard.sort(key=_RSS, reverse=True)
        return heard

    def survey(self, position: Point) -> list[Measurement]:
        """All cells audible above the usable floor, strongest first."""
        cells = self.cells
        return [Measurement(cells[index], rss) for rss, index in self.scan(position)]


@dataclass
class HandoffTrigger:
    """Decision emitted by the :class:`HandoffDetector`."""

    target: Cell
    reason: str
    serving_rss_dbm: float
    target_rss_dbm: float


class HandoffDetector:
    """Stateful hysteresis + time-to-trigger handoff detector.

    ``check`` is called on each measurement epoch with the MN's current
    position; it returns a :class:`HandoffTrigger` when a handoff is
    warranted, else None.
    """

    def __init__(
        self,
        meter: SignalMeter,
        hysteresis_db: float = 4.0,
        drop_threshold_dbm: float = -90.0,
        time_to_trigger: float = 0.0,
    ) -> None:
        if hysteresis_db < 0:
            raise ValueError("hysteresis must be non-negative")
        self.meter = meter
        self.hysteresis_db = hysteresis_db
        self.drop_threshold_dbm = drop_threshold_dbm
        self.time_to_trigger = time_to_trigger
        self._candidate: Optional[Cell] = None
        self._candidate_since: Optional[float] = None

    def reset(self) -> None:
        """Forget the hysteresis candidate (after a handoff executes)."""
        self._candidate = None
        self._candidate_since = None

    def check(
        self, serving: Optional[Cell], position: Point, now: float
    ) -> Optional[HandoffTrigger]:
        """Evaluate the survey at ``position``; a trigger or ``None``.

        Applies initial attachment, the emergency drop threshold, and
        hysteresis + time-to-trigger against the serving cell.
        """
        survey = self.meter.survey(position)
        if not survey:
            return None
        best = survey[0]

        if serving is None:
            # Initial attachment: take the strongest audible cell.
            return HandoffTrigger(best.cell, "initial", float("-inf"), best.rss_dbm)

        serving_rss = self.meter.measure(serving, position).rss_dbm

        # Emergency: serving signal lost; go to the best alternative now.
        if serving_rss < self.drop_threshold_dbm and best.cell is not serving:
            self.reset()
            return HandoffTrigger(best.cell, "signal-lost", serving_rss, best.rss_dbm)

        if best.cell is serving:
            self.reset()
            return None

        if best.rss_dbm < serving_rss + self.hysteresis_db:
            self.reset()
            return None

        # Candidate beats serving by the hysteresis margin.
        if self._candidate is not best.cell:
            self._candidate = best.cell
            self._candidate_since = now
        if now - self._candidate_since >= self.time_to_trigger:
            self.reset()
            return HandoffTrigger(
                best.cell, "hysteresis", serving_rss, best.rss_dbm
            )
        return None
