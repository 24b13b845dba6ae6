"""The protocol-stack registry.

Maps ``ScenarioSpec.stack`` values to :class:`~repro.stacks.base.
StackAdapter` instances.  The four shipped stacks are one table of
names and defining modules (:data:`SHIPPED_STACKS`): every name is
valid from the start, and an adapter's module is imported on the first
:func:`get_stack` of its name, so a run pays the import of the stack it
runs and no other.  A fifth stack is one :func:`register_stack` call
(see ``docs/STACKS.md``).  Lookup failures always list the registered
names, so an unknown ``--stack`` fails eagerly and helpfully.

Determinism: the registry holds the shipped names in table order, then
registered ones in registration order, and is iterated in that order —
pure bookkeeping, no randomness.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.stacks.base import StackAdapter

#: The stack every spec runs under unless it says otherwise — the
#: paper's architecture, and the byte-identity-pinned legacy path.
DEFAULT_STACK = "multitier"

#: The shipped stacks, in registration order: registry name ->
#: (defining module, adapter class).
SHIPPED_STACKS: dict[str, tuple[str, str]] = {
    "multitier": ("repro.stacks.multitier", "MultiTierStack"),
    "cellularip": ("repro.stacks.cellularip", "CellularIPStack"),
    "cellularip-hard": ("repro.stacks.cellularip", "CellularIPHardStack"),
    "mobileip": ("repro.stacks.mobileip", "MobileIPStack"),
}

#: ``None`` stands for a shipped adapter nothing has asked for yet.
_REGISTRY: dict[str, Optional["StackAdapter"]] = dict.fromkeys(SHIPPED_STACKS)


def register_stack(adapter: "StackAdapter") -> "StackAdapter":
    """Add ``adapter`` to the registry under ``adapter.name``.

    Raises :class:`ValueError` on a duplicate name so two stacks can
    never silently shadow each other.  Returns the registered adapter
    for chaining.
    """
    if not adapter.name:
        raise ValueError("stack adapter must set a non-empty name")
    if adapter.name in _REGISTRY:
        raise ValueError(f"stack {adapter.name!r} is already registered")
    _REGISTRY[adapter.name] = adapter
    return adapter


def get_stack(name: str) -> "StackAdapter":
    """Look up a registered stack adapter by name.

    The first lookup of a shipped name imports its module and
    instantiates its adapter.  Raises :class:`KeyError` listing the
    registered names — the eager unknown-``--stack`` failure mode.
    """
    try:
        adapter = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown stack {name!r}; registered: {', '.join(_REGISTRY)}"
        ) from None
    if adapter is None:
        module, adapter_class = SHIPPED_STACKS[name]
        adapter = _REGISTRY[name] = getattr(import_module(module), adapter_class)()
    return adapter


def is_registered(name: str) -> bool:
    """True when ``name`` is a registered stack."""
    return name in _REGISTRY


def stack_names() -> list[str]:
    """The registered stack names, in registration order."""
    return list(_REGISTRY)


def iter_stacks() -> list["StackAdapter"]:
    """The registered adapters, in registration order (imports every
    shipped adapter not loaded yet)."""
    return [get_stack(name) for name in _REGISTRY]


__all__ = [
    "DEFAULT_STACK",
    "SHIPPED_STACKS",
    "get_stack",
    "is_registered",
    "iter_stacks",
    "register_stack",
    "stack_names",
]
