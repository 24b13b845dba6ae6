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
    AllOf,
    AnyOf,
    Event,
    Process,
    ProcessGenerator,
    Timeout,
)

Until = Union[None, float, int, Event]


class _Callback(Event):
    """A pooled fire-and-forget callback entry (kernel-internal).

    :meth:`Simulator.call_later` uses these instead of a full
    :class:`Timeout` + closure: the dispatch loop special-cases them
    (call ``fn(*args)``, recycle the object into the simulator's free
    list) so the hottest scheduling pattern in the code base — a link
    delivering a packet, a channel finishing a serialization — pays no
    event allocation once the pool is warm.  Never exposed to callers;
    anything that needs to *wait* on scheduled work yields a
    :meth:`Simulator.timeout` from a process instead.
    """

    __slots__ = ("fn", "args")


class Simulator:
    """A minimal but complete discrete-event simulation kernel."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = count()
        self._active_process: Optional[Process] = None
        #: Recycled :class:`_Callback` instances (object pooling).
        self._callback_pool: list[_Callback] = []
        #: True while :meth:`run`'s dispatch loop is on the stack.
        self._running = False
        #: Total events dispatched by :meth:`run` so far.
        self.events_processed = 0

    # ------------------------------------------------------------------
    # Clock and scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    def _enqueue(self, event: Event, delay: float, priority: int = NORMAL) -> None:
        """Place a triggered event on the queue ``delay`` units from now."""
        heappush(self._queue, (self._now + delay, priority, next(self._eid), event))

    def call_later(self, delay: float, fn, *args) -> None:
        """Run ``fn(*args)`` after ``delay`` time units (no return event).

        The fire-and-forget path: queue ordering is that of a
        :meth:`timeout` created at the same point (one event-id per
        call, NORMAL priority), but the queue entry is a pooled
        :class:`_Callback` the dispatch loop recycles, so hot paths
        allocate nothing once warm.  A caller that needs an event to
        wait on uses :meth:`timeout` in a process instead.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        pool = self._callback_pool
        if pool:
            event = pool.pop()
        else:
            event = _Callback.__new__(_Callback)
            event.sim = self
            event.callbacks = None
            event._value = None
            event._ok = True
            event._defused = False
        event.fn = fn
        event.args = args
        heappush(self._queue, (self._now + delay, NORMAL, next(self._eid), event))

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

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all of ``events`` have triggered."""
        return AllOf(self, events)

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
                if stop_at < self._now:
                    raise ValueError(
                        f"until ({stop_at}) must not be before now ({self._now})"
                    )

        # The dispatch loop is written inline with everything hot bound
        # to locals — this function dominates every benchmark, so the
        # per-event overhead (method dispatch, try/except, attribute
        # loads) is paid here, once, instead of per event.
        queue = self._queue
        pool = self._callback_pool
        pop = heappop
        processed = 0
        self._running = True
        try:
            while queue:
                if stop_at is not None and queue[0][0] > stop_at:
                    break
                when, _priority, _eid, event = pop(queue)
                self._now = when
                processed += 1
                if event.__class__ is _Callback:
                    fn, args = event.fn, event.args
                    event.fn = event.args = None
                    pool.append(event)
                    fn(*args)
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
            self._now = stop_at
        return None

    @staticmethod
    def _stop_on_event(event: Event) -> None:
        if not event._ok:
            event._defused = True
            raise event._value
        raise StopSimulation(event._value)


__all__ = ["Simulator", "Until", "NORMAL", "URGENT"]
