"""The exception an interrupted process receives."""

from __future__ import annotations


class Interrupt(Exception):
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
