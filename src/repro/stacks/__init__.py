"""Pluggable protocol-stack backends for the scenario engine.

The paper's central claim is comparative — multi-tier mobility
management beats flat Mobile IP and Cellular IP for multimedia traffic
— so every catalog scenario can run under any registered *stack
adapter*: an object that builds a world from a
``(ScenarioSpec, seed)`` pair, attaches mobility control, wires the
shared traffic plan and collects a common metric dict (see
:mod:`repro.stacks.base` for the contract — every adapter returns a
:class:`~repro.stacks.base.BuiltRun` — and ``docs/STACKS.md`` for the
guide).

Shipped stacks (named by :mod:`repro.stacks.registry`, in this order):

* ``multitier`` — the paper's architecture (the default; byte-identical
  to the pre-stacks builder);
* ``cellularip`` — flat Cellular IP with semisoft handoff;
* ``cellularip-hard`` — the same world with hard (break-then-make)
  handoff;
* ``mobileip`` — flat Mobile IP, one FA per cell, full home
  registration per move.

All four instantiate the *same* seeded population and traffic plan
(:mod:`repro.stacks.population`), which is what makes
``repro scenario run <name> --stack all`` an apples-to-apples,
Table-1-style protocol comparison at catalog scale.

Importing this package loads the contract, the registry and the
default stack.  The flat baselines' names (``CellularIPStack``,
``BuiltMIPScenario``, ...) resolve on first access, and
:func:`~repro.stacks.registry.get_stack` imports an adapter the first
time it is asked for, so a run loads the stack it runs and no other.

Determinism: adapters draw all randomness from the run seed through
named streams; one ``(stack, spec, seed)`` triple returns
byte-identical metrics on any execution backend.
"""

from repro._lazy import lazy_exports
from repro.stacks.base import (
    COMMON_METRICS,
    BuiltRun,
    StackAdapter,
    air_metrics,
)
from repro.stacks.registry import (
    DEFAULT_STACK,
    get_stack,
    is_registered,
    iter_stacks,
    register_stack,
    stack_names,
)
from repro.stacks.multitier import BuiltScenario, MultiTierStack

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.stacks.cellularip": (
        "BuiltCIPScenario",
        "CellularIPHardStack",
        "CellularIPStack",
    ),
    "repro.stacks.mobileip": (
        "BuiltMIPScenario",
        "MobileIPStack",
    ),
})

__all__ = [
    "COMMON_METRICS",
    "DEFAULT_STACK",
    "BuiltCIPScenario",
    "BuiltMIPScenario",
    "BuiltRun",
    "BuiltScenario",
    "CellularIPHardStack",
    "CellularIPStack",
    "MobileIPStack",
    "MultiTierStack",
    "StackAdapter",
    "air_metrics",
    "get_stack",
    "is_registered",
    "iter_stacks",
    "register_stack",
    "stack_names",
]
