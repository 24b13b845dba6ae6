"""The discrete-event simulator core.

:class:`Simulator` owns the virtual clock and the event queue.  It is the
only stateful singleton in a simulation; every entity (link, base
station, protocol engine) holds a reference to it and schedules work
through it.

Example
-------
>>> sim = Simulator()
>>> def pinger(sim, log):
...     while sim.now < 3:
...         yield 1.0  # sleep one second
...         log.append(sim.now)
>>> log = []
>>> _ = sim.process(pinger(sim, log))
>>> sim.run()
>>> log
[1.0, 2.0, 3.0]
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Iterable, Optional

from repro.sim.events import (
    NORMAL,
    AnyOf,
    Event,
    Process,
    ProcessGenerator,
    Timeout,
)


class Simulator:
    """A minimal discrete-event simulation kernel.

    Every heap entry is ``(when, priority, eid, target, args)``.  With
    ``args is None`` the target is an :class:`Event` whose callbacks the
    loop runs; otherwise the loop calls ``target(*args)`` — the
    fire-and-forget form :meth:`call_later` pushes, and a process's
    start, the wake-up of its sleep and its interrupt, which allocate
    nothing but the entry itself.
    """

    def __init__(self) -> None:
        #: Current simulation time, from 0.0.  A plain attribute (every
        #: hop reads it); only the dispatch loop writes it.
        self.now = 0.0
        self._queue: list[tuple[float, int, int, object, Optional[tuple]]] = []
        self._eid = count()
        #: True while :meth:`run`'s dispatch loop is on the stack.
        self._running = False
        #: Total events dispatched by :meth:`run` so far.
        self.events_processed = 0

    # ------------------------------------------------------------------
    # Clock and scheduling
    # ------------------------------------------------------------------
    def call_later(self, delay: float, fn, *args) -> None:
        """Run ``fn(*args)`` after ``delay`` time units (no return event).

        The fire-and-forget path: queue ordering is that of a
        :meth:`timeout` created at the same point (one event-id per
        call, NORMAL priority), but the heap entry carries the callable
        itself, so no event object is made.  A process that waits
        ``delay`` yields it instead (``yield delay``).
        """
        if not delay >= 0:  # also rejects nan, which would sort first
            raise ValueError(f"negative delay {delay}")
        heappush(self._queue, (self.now + delay, NORMAL, next(self._eid), fn, args))

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that triggers ``delay`` units in the future.

        For a deadline composed with :meth:`any_of`; a process that only
        sleeps yields the delay itself and allocates no event.
        """
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when any of ``events`` has triggered."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation.

        With ``until=None`` run until the event queue is exhausted;
        with a number, process every event scheduled at ``t <= until``
        (an inclusive stop time), then set ``now`` to it.  An exception
        a dispatched callback or process raises leaves ``run`` at once.

        ``run`` is not re-entrant: calling it from inside a dispatched
        callback or process raises :class:`RuntimeError`.  A nested loop
        would drain events past the outer loop's ``until`` bound and
        then rewind the clock when the outer call returned — silently
        corrupting event order.  Drivers that interleave several
        bounded advances call ``run`` serially from the top level
        instead.
        """
        if self._running:
            raise RuntimeError(
                "Simulator.run() is not re-entrant; it was called from "
                "inside an event dispatched by an outer run()"
            )
        stop_at: Optional[float] = None
        if until is not None:
            stop_at = float(until)
            if not stop_at >= self.now:  # also rejects nan, which stops nothing
                raise ValueError(
                    f"until ({stop_at}) must not be before now ({self.now})"
                )

        # The dispatch loop is written inline with everything hot bound
        # to locals — this function dominates every benchmark, so the
        # per-event overhead (method dispatch, try/except, attribute
        # loads) is paid here, once, instead of per event.
        queue = self._queue
        pop = heappop
        processed = 0
        self._running = True
        try:
            while queue:
                if stop_at is not None and queue[0][0] > stop_at:
                    break
                self.now, _priority, _eid, target, args = pop(queue)
                processed += 1
                if args is not None:
                    target(*args)  # a bare callable
                    continue
                callbacks, target.callbacks = target.callbacks, None
                for callback in callbacks:
                    callback(target)
        finally:
            self._running = False
            self.events_processed += processed
        if stop_at is not None:
            self.now = stop_at


__all__ = ["Simulator"]
