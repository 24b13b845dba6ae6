"""Core event and process machinery for the simulation kernel.

The design follows the classic generator-based discrete-event pattern:
an :class:`Event` is a one-shot occurrence with a value; a
:class:`Process` wraps a generator that ``yield``\\ s events and is
resumed when the yielded event is processed.  An :class:`AnyOf`
condition waits on several events at once and fires with the first.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Callable, Generator, Iterable, Optional

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

    An event starts *pending*; it becomes *triggered* once a value (or an
    exception) is attached and it is placed on the simulator's queue; it
    becomes *processed* once the simulator has popped it and run its
    callbacks.  Processes waiting on the event are resumed at that point.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callables invoked (in order) when the event is processed.
        self.callbacks: Optional[list[EventCallback]] = []
        self._value: object = _PENDING
        self._ok: bool = True
        self._defused: bool = False

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
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
    def processed(self) -> bool:
        """True once callbacks have run (the event is in the past)."""
        return self.callbacks is None

    @property
    def value(self) -> object:
        """The event's value (or exception instance for failed events)."""
        if self._value is _PENDING:
            raise AttributeError("event is not yet triggered")
        return self._value

    def succeed(self, value: object = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value`` at the current time."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim._enqueue(self, delay=0.0, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on this event will have ``exception`` thrown
        into it.  If nothing is waiting, the simulator re-raises the
        exception to keep errors from passing silently.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.sim._enqueue(self, delay=0.0, priority=priority)
        return self


class Timeout(Event):
    """An event that triggers itself ``delay`` time units in the future."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: object = None) -> None:
        if not delay >= 0:  # also rejects nan, which would sort first
            raise ValueError(f"negative delay {delay}")
        # Event.__init__ and Simulator._enqueue inlined: Timeout is the
        # highest-churn event type (every process tick allocates one),
        # so it pays no double-initialization or call overhead.
        self.sim = sim
        self.callbacks = []
        self.delay = delay
        self._ok = True
        self._value = value
        self._defused = False
        heappush(sim._queue, (sim.now + delay, NORMAL, next(sim._eid), self, None))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process") -> None:
        # Flattened like Timeout.__init__ (one heap entry per process
        # start; high-churn in scenario builders spawning thousands).
        self.sim = sim
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._defused = False
        heappush(sim._queue, (sim.now, URGENT, next(sim._eid), self, None))


class _Interruption(Event):
    """Internal event that delivers an :class:`Interrupt` to a process."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: object) -> None:
        super().__init__(process.sim)
        if process.processed:
            raise RuntimeError(f"{process!r} has terminated and cannot be interrupted")
        if process is process.sim.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")
        self.process = process
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.callbacks.append(self._deliver)
        process.sim._enqueue(self, delay=0.0, priority=URGENT)

    def _deliver(self, event: "Event") -> None:
        process = self.process
        if process.processed or process._target is None:
            # Terminated (or never started waiting) in the meantime: the
            # interrupt is moot and silently dropped.
            return
        # Detach the process from whatever it was waiting on, then resume
        # it with the Interrupt exception.
        if process._target.callbacks is not None:
            try:
                process._target.callbacks.remove(process._resume)
            except ValueError:
                pass
        process._resume(self)


class Process(Event):
    """Wraps a generator and drives it through the simulation.

    The process itself is an event: it triggers with the generator's
    return value when the generator finishes (or fails with the escaping
    exception).  This allows processes to wait for each other simply by
    yielding the other process.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(sim, self)

    def __repr__(self) -> str:
        return f"<Process {self.name!r} at {id(self):#x}>"

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return self._value is _PENDING

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process as soon as possible."""
        _Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        sim = self.sim
        sim._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # The exception is being handed to a process; mark it
                    # defused so the kernel does not crash on it as well.
                    event._defused = True
                    exc = event._value
                    if not isinstance(exc, BaseException):  # pragma: no cover
                        raise TypeError(f"{exc!r} is not an exception")
                    next_event = self._generator.throw(exc)
            except StopIteration as stop:
                self._target = None
                sim._active_process = None
                self.succeed(stop.value)
                return
            except BaseException as error:
                self._target = None
                sim._active_process = None
                self.fail(error)
                return

            if not isinstance(next_event, Event):
                self._target = None
                sim._active_process = None
                message = f"process {self.name!r} yielded a non-event: {next_event!r}"
                self.fail(RuntimeError(message))
                return
            if next_event.sim is not sim:
                self._target = None
                sim._active_process = None
                self.fail(RuntimeError("yielded an event from a different simulator"))
                return

            if next_event.callbacks is None:
                # Already processed: resume immediately with its outcome.
                event = next_event
                continue
            next_event.callbacks.append(self._resume)
            self._target = next_event
            sim._active_process = None
            return


class Condition(Event):
    """An event over several sub-events that fires with the first.

    Its value is the tuple of sub-events processed by then, in the
    order given.  A failing sub-event fails the condition instead;
    once it has fired, later failures are defused.  :class:`AnyOf` is
    the one kind the kernel builds.
    """

    __slots__ = ("_events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = tuple(events)

        for event in self._events:
            if event.sim is not sim:
                raise ValueError("all events must belong to the same simulator")

        # Check already-processed events now, so a condition over past
        # events triggers without waiting.
        if not self._events:
            self.succeed(())
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            # Only events whose callbacks have run are in the past; a
            # Timeout is "triggered" at creation but not yet occurred.
            self.succeed(
                tuple(e for e in self._events if e.callbacks is None and e._ok)
            )


class AnyOf(Condition):
    """Condition that triggers once *any* of ``events`` has triggered."""

    __slots__ = ()
