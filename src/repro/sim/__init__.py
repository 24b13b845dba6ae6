"""Discrete-event simulation kernel.

Public surface — the names the rest of ``repro`` imports::

    from repro.sim import Interrupt, RandomStreams, Simulator

    sim = Simulator()
    sim.process(my_generator(sim))
    sim.run(until=100.0)

A process (``sim.process()``) waits in one of three ways: it sleeps by
yielding seconds (``yield 2.0``), it waits for an event
(``yield sim.event()``), or it waits for an event with a deadline
(``yield sim.any_of([event, sim.timeout(delay)])``).  Their classes
live in :mod:`repro.sim.events`; :class:`Interrupt`, what
``Process.interrupt`` throws into a process, in :mod:`repro.sim.errors`.
"""

from repro.sim.errors import Interrupt
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams

__all__ = ["Interrupt", "RandomStreams", "Simulator"]
