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
...         yield sim.timeout(1.0)
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
from typing import Iterable, Optional, Union

from repro.sim.errors import SimulationError, StopSimulation
from repro.sim.events import (
    NORMAL,
    URGENT,
    AnyOf,
    Event,
    Process,
    ProcessGenerator,
    Timeout,
)

Until = Union[None, float, int, Event]


class Simulator:
    """A minimal but complete discrete-event simulation kernel.

    Every heap entry is ``(when, priority, eid, target, args)``.  With
    ``args is None`` the target is an :class:`Event` whose callbacks the
    loop runs; otherwise the loop calls ``target(*args)`` — the
    fire-and-forget form :meth:`call_later` pushes, which allocates
    nothing but the entry itself.
    """

    def __init__(self, start: float = 0.0) -> None:
        #: Current simulation time.  A plain attribute (every hop reads
        #: it); only the dispatch loop writes it.
        self.now = float(start)
        self._queue: list[tuple[float, int, int, object, Optional[tuple]]] = []
        self._eid = count()
        self._active_process: Optional[Process] = None
        #: True while :meth:`run`'s dispatch loop is on the stack.
        self._running = False
        #: Total events dispatched by :meth:`run` so far.
        self.events_processed = 0

    # ------------------------------------------------------------------
    # Clock and scheduling
    # ------------------------------------------------------------------
    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    def _enqueue(self, event: Event, delay: float, priority: int = NORMAL) -> None:
        """Place a triggered event on the queue ``delay`` units from now."""
        heappush(
            self._queue, (self.now + delay, priority, next(self._eid), event, None)
        )

    def call_later(self, delay: float, fn, *args) -> None:
        """Run ``fn(*args)`` after ``delay`` time units (no return event).

        The fire-and-forget path: queue ordering is that of a
        :meth:`timeout` created at the same point (one event-id per
        call, NORMAL priority), but the heap entry carries the callable
        itself, so no event object is made.  A caller that needs an
        event to wait on uses :meth:`timeout` in a process instead.
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
        """Create an event that triggers ``delay`` units in the future."""
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
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: Until = None) -> object:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue is exhausted;
        * a number — inclusive stop time: process every event scheduled
          at ``t <= until`` (including events at exactly ``until``),
          then set ``now`` to it;
        * an :class:`Event` — run until that event has been processed and
          return its value (raises :class:`SimulationError` if the queue
          empties first).

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
            if isinstance(until, Event):
                if until.callbacks is None:
                    # Already processed.
                    return until._value
                until.callbacks.append(self._stop_on_event)
            else:
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
                self.now, _priority, _eid, event, args = pop(queue)
                processed += 1
                if args is not None:
                    event(*args)  # a call_later entry: a bare callable
                    continue
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    # Nobody handled a failed event: surface it loudly.
                    raise event._value
        except StopSimulation as stop:
            return stop.value
        finally:
            self._running = False
            self.events_processed += processed
        if isinstance(until, Event):
            raise SimulationError(
                "event queue ran empty before the target event triggered"
            )
        if stop_at is not None:
            self.now = stop_at
        return None

    @staticmethod
    def _stop_on_event(event: Event) -> None:
        if not event._ok:
            event._defused = True
            raise event._value
        raise StopSimulation(event._value)


__all__ = ["Simulator", "Until", "NORMAL", "URGENT"]
