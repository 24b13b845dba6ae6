"""The live half of the hybrid layer: feeding claims into channels.

A :class:`FluidDriver` is a simulation process that periodically
re-evaluates the analytic per-cell background load
(:func:`repro.fluid.model.cell_background_state`) and pushes it into
each cell's :class:`~repro.radio.channel.SharedChannel` via
:meth:`~repro.radio.channel.SharedChannel.set_background`.  The
discrete foreground cohort then contends for the *residual* budget —
its airtimes stretch and its admission headroom shrinks exactly as if
the background mobiles were simulated, at O(cells) cost per refresh
instead of O(population) events.

Determinism: the driver consumes no random streams and schedules one
process with a fixed period, so a hybrid run is as byte-reproducible
as a legacy one — and a driver with ``population=0`` is never built
at all, keeping fluid-off runs byte-identical to pre-fluid builds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.fluid.config import FluidBackground
from repro.fluid.model import CellBackgroundState, cell_background_state
from repro.radio.channel import DOWNLINK, UPLINK

if TYPE_CHECKING:  # pragma: no cover
    from repro.radio.cells import Cell
    from repro.radio.channel import SharedChannel
    from repro.radio.geometry import Rectangle
    from repro.sim.kernel import Simulator


def fluid_channel_pairs(stations: Iterable) -> list[tuple["Cell", "SharedChannel"]]:
    """Extract ``(cell, shared_channel)`` pairs from station-likes.

    Accepts any iterable of objects carrying ``.cell`` and
    ``.shared_channel`` (every stack's base-station/agent types do);
    stations without a channel (legacy radio links) are skipped.
    """
    return [
        (station.cell, station.shared_channel)
        for station in stations
        if getattr(station, "shared_channel", None) is not None
    ]


class FluidDriver:
    """Applies a :class:`FluidBackground` to a set of cell channels.

    Parameters
    ----------
    sim:
        The run's simulator; the driver schedules its refresh process
        here (``fluid-driver``).
    config:
        The background block (must have ``population > 0`` — builders
        skip construction entirely for empty backgrounds).
    pairs:
        ``(cell, channel)`` for every contended cell in the world
        (see :func:`fluid_channel_pairs`).
    rect:
        The rectangle the background density is uniform over — the
        scenario's roam area.
    """

    def __init__(
        self,
        sim: "Simulator",
        config: FluidBackground,
        pairs: list[tuple["Cell", "SharedChannel"]],
        rect: "Rectangle",
    ) -> None:
        if not config.enabled:
            raise ValueError("FluidDriver requires a positive background population")
        if not pairs:
            raise ValueError(
                "FluidDriver needs at least one (cell, channel) pair; "
                "hybrid scenarios require shared channels"
            )
        self.sim = sim
        self.config = config
        self.pairs = pairs
        self.rect = rect
        #: Static background (no drift) is evaluated once and re-used.
        self._static_states: Optional[list[CellBackgroundState]] = None
        # Run summary accumulators (reported via metrics()).
        self.updates = 0
        self.peak_cell_load = 0.0
        self._blocking_weight = 0.0
        self._blocking_sum = 0.0
        self._crossing_sum = 0.0
        sim.process(self._run(), name="fluid-driver")

    # ------------------------------------------------------------------
    def _states(self, now: float) -> list[CellBackgroundState]:
        drifting = self.config.drift != (0.0, 0.0)
        if not drifting and self._static_states is not None:
            return self._static_states
        offset = (self.config.drift[0] * now, self.config.drift[1] * now)
        states = [
            cell_background_state(cell, self.config, self.rect, offset)
            for cell, _channel in self.pairs
        ]
        if not drifting:
            self._static_states = states
        return states

    def refresh(self) -> None:
        """Evaluate the model at ``sim.now`` and push claims."""
        states = self._states(self.sim.now)
        for (_cell, channel), state in zip(self.pairs, states):
            cap = self.config.max_cell_load
            down = channel.set_background(
                DOWNLINK, state.downlink_bps, max_fraction=cap
            )
            channel.set_background(UPLINK, state.uplink_bps, max_fraction=cap)
            load = down / channel.rates[DOWNLINK]
            if load > self.peak_cell_load:
                self.peak_cell_load = load
            self._blocking_sum += state.blocking * state.occupants
            self._blocking_weight += state.occupants
            self._crossing_sum += state.crossing_rate
        self.updates += 1

    def _run(self):
        while True:
            self.refresh()
            yield self.config.update_period

    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """The gated ``fluid.*`` metric family for hybrid runs.

        Plain floats, never NaN — the same table contract every other
        metric family honors.  Only hybrid runs carry these keys, so
        fluid-off tables keep their legacy shape.
        """
        updates = max(self.updates, 1)
        return {
            "fluid.background_population": float(self.config.population),
            "fluid.updates": float(self.updates),
            "fluid.peak_cell_load": self.peak_cell_load,
            "fluid.mean_blocking": (
                self._blocking_sum / self._blocking_weight
                if self._blocking_weight > 0
                else 0.0
            ),
            "fluid.handoff_rate": self._crossing_sum / updates,
        }


def install_fluid_background(
    sim: "Simulator",
    spec,
    pairs: list[tuple["Cell", "SharedChannel"]],
    rect: "Rectangle",
) -> Optional[FluidDriver]:
    """Build and start the scenario's fluid driver, if any.

    The one call every stack makes (through
    :func:`repro.stacks.population.wire_population`) after assembling
    its contended cells: returns ``None`` (and touches nothing) unless
    the spec declares a non-empty ``fluid`` block, so legacy builds
    stay byte-identical.
    """
    config = getattr(spec, "fluid", None)
    if config is None or not config.enabled:
        return None
    return FluidDriver(sim, config, pairs, rect)


__all__ = ["FluidDriver", "fluid_channel_pairs", "install_fluid_background"]
