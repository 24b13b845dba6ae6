"""Signal measurement: the "power of signal from BS" factor of the
paper's §3.2 decision.

:class:`SignalMeter` turns a position into the received signal strength
of the cells around it; the stacks' mobility controllers apply the
hysteresis rule to what :meth:`SignalMeter.scan` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot, inf, log10
from operator import itemgetter

from repro.radio.cells import Cell
from repro.radio.geometry import Point
from repro.radio.propagation import REFERENCE_LOSS_DB, PropagationModel

_RSS = itemgetter(0)

#: Buckets per axis of the coverage index.  At 64 the Fig 3.1 strip
#: (13 km x 5 km, 400 m micro cells) walks ~2 rows for the ~1.4 cells
#: that cover a mobile; the index is 65 x 65 pointers to shared tuples.
_GRID = 64
#: One column and one row more than ``_GRID``: the far edge of the
#: bounding box (and a product rounded up to it) lands on index ``_GRID``.
_STRIDE = _GRID + 1


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
        self._rows = tuple(
            (index, cell.center.x, cell.center.y, cell.radius, cell.tx_power_dbm)
            for index, cell in enumerate(self.cells)
        )
        self._build_coverage_index()

    def _build_coverage_index(self) -> None:
        """A uniform grid over the discs' bounding box: each bucket
        holds, in cell order, the rows whose bounding square (padded
        past float rounding) overlaps it, so every cell whose disc holds
        a position is in that position's bucket.

        Positions and square edges go through the same monotone
        ``int((t - origin) * scale)``, which is what makes the bucket a
        superset of the covering cells at any coordinate magnitude.
        """
        spans = [
            (index, x, y, radius + (abs(x) + abs(y) + radius) * 1e-9)
            for index, x, y, radius, _ in self._rows
        ]
        self._x0 = x0 = min((x - reach for _, x, _, reach in spans), default=inf)
        self._y0 = y0 = min((y - reach for _, _, y, reach in spans), default=inf)
        self._x1 = x1 = max((x + reach for _, x, _, reach in spans), default=-inf)
        self._y1 = y1 = max((y + reach for _, _, y, reach in spans), default=-inf)
        self._scale_x = scale_x = _GRID / (x1 - x0) if x1 > x0 else 0.0
        self._scale_y = scale_y = _GRID / (y1 - y0) if y1 > y0 else 0.0
        buckets: list[list] = [[] for _ in range(_STRIDE * _STRIDE)]
        for index, x, y, reach in spans:
            columns = range(
                int((x - reach - x0) * scale_x), int((x + reach - x0) * scale_x) + 1
            )
            for row in range(
                int((y - reach - y0) * scale_y), int((y + reach - y0) * scale_y) + 1
            ):
                for column in columns:
                    buckets[row * _STRIDE + column].append(self._rows[index])
        shared: dict[tuple, tuple] = {}
        self._buckets = [
            shared.setdefault(bucket, bucket) for bucket in map(tuple, buckets)
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
        computed.  A ``covering`` scan visits only the rows of the
        position's coverage-index bucket.
        """
        px, py = position.x, position.y
        slope = 10.0 * self.propagation.exponent
        floor = self.min_usable_dbm
        rows = self._rows
        if covering:
            x0, y0 = self._x0, self._y0
            if not (x0 <= px <= self._x1 and y0 <= py <= self._y1):
                return []
            rows = self._buckets[
                int((py - y0) * self._scale_y) * _STRIDE
                + int((px - x0) * self._scale_x)
            ]
        heard = []
        for index, cx, cy, radius, tx_power_dbm in rows:
            distance = hypot(cx - px, cy - py)
            if covering and distance > radius:
                continue
            clamped = distance if distance > 1.0 else 1.0
            rss = tx_power_dbm - (REFERENCE_LOSS_DB + slope * log10(clamped))
            if rss >= floor:
                heard.append((rss, index))
        heard.sort(key=_RSS, reverse=True)
        return heard

    def survey(self, position: Point) -> list[Measurement]:
        """All cells audible above the usable floor, strongest first."""
        cells = self.cells
        return [Measurement(cells[index], rss) for rss, index in self.scan(position)]
