"""Events and the processes that wait on them.

A :class:`Process` drives a generator through the simulation.  It waits
in one of three ways, the only three the program makes:

* it sleeps by yielding seconds (``yield 2.0``): the kernel queues one
  wake-up entry and builds no event;
* it waits for an :class:`Event` (``yield sim.event()``), which some
  other party triggers with :meth:`Event.succeed`;
* it waits for an event with a deadline, ``yield sim.any_of([event,
  sim.timeout(delay)])``: the :class:`AnyOf` fires with whichever of the
  two is processed first.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Callable, Generator, Iterable, Optional, Union

from repro.sim.errors import Interrupt

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.kernel import Simulator

#: Scheduling priorities.  Lower value runs first at equal times.
URGENT = 0
NORMAL = 1

#: Sentinel stored in ``Event._value`` while the event is untriggered.
_PENDING = object()

EventCallback = Callable[["Event"], None]
ProcessGenerator = Generator["Event", object, object]


class Event:
    """A one-shot simulation event.

    An event starts *pending*; it becomes *triggered* once a value is
    attached and it is placed on the simulator's queue; it becomes
    *processed* once the simulator has popped it and run its callbacks.
    Processes waiting on the event are resumed at that point.
    """

    __slots__ = ("sim", "callbacks", "_value")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callables invoked (in order) when the event is processed.
        self.callbacks: Optional[list[EventCallback]] = []
        self._value: object = _PENDING

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.callbacks is None
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    @property
    def triggered(self) -> bool:
        """True once a value has been attached to this event."""
        return self._value is not _PENDING

    @property
    def value(self) -> object:
        """The value the event was triggered with."""
        if self._value is _PENDING:
            raise AttributeError("event is not yet triggered")
        return self._value

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event with ``value`` at the current time."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = value
        sim = self.sim
        heappush(sim._queue, (sim.now, NORMAL, next(sim._eid), self, None))
        return self


class Timeout(Event):
    """An event that triggers itself ``delay`` time units in the future."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: object = None) -> None:
        if not delay >= 0:  # also rejects nan, which would sort first
            raise ValueError(f"negative delay {delay}")
        # Event.__init__ inlined: every deadline composed with ``any_of``
        # allocates one.  A process that only sleeps yields the seconds
        # instead and allocates no Timeout.
        self.sim = sim
        self.callbacks = []
        self.delay = delay
        self._value = value
        heappush(sim._queue, (sim.now + delay, NORMAL, next(sim._eid), self, None))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class AnyOf(Event):
    """An event over several events that fires with the first.

    Its value is the tuple of the events processed by then, in the
    order given: a process that waits on ``sim.any_of([reply,
    sim.timeout(delay)])`` learns which came first by membership.
    """

    __slots__ = ("_events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = tuple(events)

        if not self._events:
            raise ValueError("any_of needs at least one event; none would never fire")
        for event in self._events:
            if event.sim is not sim:
                raise ValueError("all events must belong to the same simulator")

        # Check already-processed events now, so an AnyOf over past
        # events triggers without waiting.
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self._value is _PENDING:
            # Only events whose callbacks have run are in the past; a
            # Timeout is "triggered" at creation but not yet occurred.
            self.succeed(tuple(e for e in self._events if e.callbacks is None))


class _Woken:
    """What a process is resumed with when it starts or its sleep ends:
    a value of ``None``, as a ``Timeout`` without a value."""

    __slots__ = ()
    _value = None


_WOKEN = _Woken()


def _start(process: "Process") -> None:
    """Run ``process`` to its first wait."""
    process._resume(_WOKEN)


def _wake(process: "Process", token: int) -> None:
    """End ``process``'s sleep ``token``, unless an interrupt ended it
    first (the process then waits on something else, or nothing)."""
    if process._target is token:
        process._resume(_WOKEN)


def _interrupt(process: "Process", cause: object) -> None:
    """Throw ``Interrupt(cause)`` into ``process``, detached from what it
    waits on.  A process that has ended meanwhile ignores it."""
    target = process._target
    if target is None:
        return
    # Clearing a sleep's token leaves its queued wake-up a no-op.
    process._target = None
    if type(target) is not int and target.callbacks is not None:
        try:
            target.callbacks.remove(process._resume)
        except ValueError:
            pass
    process._resume(None, Interrupt(cause))


class Process:
    """Wraps a generator and drives it through the simulation.

    The kernel starts the process with one URGENT entry at the instant
    it is made, ``(now, URGENT, eid, _start, (process,))``.  A process
    sleeps by yielding a number of seconds (a ``float`` or an ``int``,
    not a ``bool``): the kernel queues one ``call_later``-shaped
    wake-up, ``(now + delay, NORMAL, token, _wake, (process, token))``,
    drawing its event id where ``sim.timeout(delay)`` would have, so
    event order is that of the ``Timeout`` form.  ``_target`` then holds
    the token, an interrupt clears it, and the wake-up finds it gone.
    :meth:`interrupt` queues ``(now, URGENT, eid, _interrupt, (process,
    cause))``.

    Ending queues nothing: nothing waits on a process.  A generator that
    raises, or yields what is not a wait, makes :meth:`Simulator.run`
    raise at that instant.
    """

    __slots__ = ("sim", "_generator", "_target", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self.sim = sim
        #: The generator, or None once the process has ended.
        self._generator: Optional[ProcessGenerator] = generator
        #: The event the process waits on, its sleep's token, or None.
        self._target: Union[Event, int, None] = None
        self.name = name or getattr(generator, "__name__", "process")
        heappush(sim._queue, (sim.now, URGENT, next(sim._eid), _start, (self,)))

    def __repr__(self) -> str:
        return f"<Process {self.name!r} at {id(self):#x}>"

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return self._generator is not None

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process as soon as possible."""
        if self._generator is None:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self._generator.gi_running:
            raise RuntimeError("a process is not allowed to interrupt itself")
        sim = self.sim
        entry = (sim.now, URGENT, next(sim._eid), _interrupt, (self, cause))
        heappush(sim._queue, entry)

    def _end(self) -> None:
        """Mark the process ended: a queued wake-up or interrupt of it
        finds nothing to do."""
        self._generator = self._target = None

    def _resume(
        self, event: Optional[Event], error: Optional[Interrupt] = None
    ) -> None:
        """Advance the generator with ``event``'s value, or throw
        ``error`` into it."""
        sim = self.sim
        generator = self._generator
        while True:
            try:
                if error is None:
                    target = generator.send(event._value)
                else:
                    target = generator.throw(error)
            except StopIteration:
                self._end()
                return
            except BaseException:
                self._end()
                raise

            kind = type(target)
            if kind is float or kind is int:
                # A sleep (a bool or a numpy scalar is not one, and fails
                # below): one wake-up entry instead of a Timeout.
                if not target >= 0:  # also rejects nan, which would sort first
                    self._end()
                    raise ValueError(f"negative delay {target}")
                token = next(sim._eid)
                self._target = token
                heappush(
                    sim._queue, (sim.now + target, NORMAL, token, _wake, (self, token))
                )
                return
            if not isinstance(target, Event):
                self._end()
                raise RuntimeError(
                    f"process {self.name!r} yielded a non-event: {target!r}"
                )
            if target.sim is not sim:
                self._end()
                raise RuntimeError("yielded an event from a different simulator")

            if target.callbacks is None:
                # Already processed: resume immediately with its value.
                event, error = target, None
                continue
            target.callbacks.append(self._resume)
            self._target = target
            return
