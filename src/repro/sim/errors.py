"""Exception types used by the discrete-event simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all kernel-level errors."""


class StopSimulation(SimulationError):
    """Raised internally to stop :meth:`Simulator.run` at a target event."""

    def __init__(self, value: object = None) -> None:
        super().__init__(value)
        self.value = value


class Interrupt(SimulationError):
    """Raised inside a process that has been interrupted.

    The interrupting party supplies an arbitrary ``cause`` that the
    interrupted process can inspect::

        try:
            yield 10.0  # sleep
        except Interrupt as interrupt:
            handle(interrupt.cause)
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> object:
        """Whatever object the interrupter passed to ``Process.interrupt``."""
        return self.args[0]
