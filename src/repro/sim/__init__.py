"""Discrete-event simulation kernel.

Public surface — the names the rest of ``repro`` imports::

    from repro.sim import Interrupt, RandomStreams, Simulator

    sim = Simulator()
    sim.process(my_generator(sim))
    sim.run(until=100.0)

Events, timeouts, processes and conditions are created through the
:class:`Simulator` factories (``sim.event()``, ``sim.timeout()``,
``sim.process()``, ``sim.any_of()``); their classes
live in :mod:`repro.sim.events` and the remaining error types in
:mod:`repro.sim.errors`.  A process sleeps by yielding seconds
(``yield 2.0``); a ``sim.timeout()`` is for a deadline composed with
``sim.any_of()``.
"""

from repro.sim.errors import Interrupt
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams

__all__ = ["Interrupt", "RandomStreams", "Simulator"]
