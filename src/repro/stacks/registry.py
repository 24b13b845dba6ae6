"""The protocol-stack registry.

Maps ``ScenarioSpec.stack`` values to :class:`~repro.stacks.base.
StackAdapter` instances.  The four shipped stacks register themselves
when :mod:`repro.stacks` is imported; a fifth stack is one
:func:`register_stack` call (see ``docs/STACKS.md``).  Lookup failures
always list the registered names, so an unknown ``--stack`` fails
eagerly and helpfully.

Determinism: the registry is populated in import order and iterated in
registration order — pure bookkeeping, no randomness.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.stacks.base import StackAdapter

#: The stack every spec runs under unless it says otherwise — the
#: paper's architecture, and the byte-identity-pinned legacy path.
DEFAULT_STACK = "multitier"

_REGISTRY: dict[str, "StackAdapter"] = {}


def register_stack(adapter: "StackAdapter", replace: bool = False) -> "StackAdapter":
    """Add ``adapter`` to the registry under ``adapter.name``.

    ``replace=False`` (the default) raises :class:`ValueError` on a
    duplicate name so two stacks can never silently shadow each other.
    Returns the registered adapter for chaining.
    """
    if not adapter.name:
        raise ValueError("stack adapter must set a non-empty name")
    if not replace and adapter.name in _REGISTRY:
        raise ValueError(f"stack {adapter.name!r} is already registered")
    _REGISTRY[adapter.name] = adapter
    return adapter


def get_stack(name: str) -> "StackAdapter":
    """Look up a registered stack adapter by name.

    Raises :class:`KeyError` listing the registered names — the eager
    unknown-``--stack`` failure mode.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown stack {name!r}; registered: {', '.join(_REGISTRY)}"
        ) from None


def is_registered(name: str) -> bool:
    """True when ``name`` is a registered stack."""
    return name in _REGISTRY


def stack_names() -> list[str]:
    """The registered stack names, in registration order."""
    return list(_REGISTRY)


def iter_stacks() -> list["StackAdapter"]:
    """The registered adapters, in registration order."""
    return list(_REGISTRY.values())


__all__ = [
    "DEFAULT_STACK",
    "get_stack",
    "is_registered",
    "iter_stacks",
    "register_stack",
    "stack_names",
]
