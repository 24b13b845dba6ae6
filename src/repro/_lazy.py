"""Package re-exports that import their module on first use (PEP 562).

A package whose ``__init__`` re-exports every submodule makes every
importer pay for all of them.  With :func:`lazy_exports` the package
keeps its public names (``__all__``, ``from package import name``,
``import *``, ``dir()``) and a submodule is imported when one of its
names is first asked for.

Who gains is a fresh interpreter that builds one world through the
library — ``build_scenario(spec, seed).execute()`` or
``run_scenario_spec``: a perf repetition, a ``tools/census.py`` child,
an example, a notebook.  The ``repro scenario`` and ``repro campaign``
verbs use the multi-run layer and load it whole (they skip only the
stack adapters their grid does not name), ``--jobs`` workers are forked
from a parent that has, and a campaign's items run inside the campaign's
process — see "Process lifecycle" in ``docs/ARCHITECTURE.md`` for the
numbers.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    package_globals: dict[str, Any], exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of a package
    with lazy re-exports.

    ``exports`` maps a module to the names the package re-exports from
    it.  ``__getattr__`` imports the module on the first access of one
    of those names and stores the value in ``package_globals``, so each
    name costs one call; any other name raises the usual
    :class:`AttributeError`.  ``__dir__`` lists the lazy names with the
    loaded ones, resolved or not.
    """
    package = package_globals["__name__"]
    module_of = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        try:
            module = module_of[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = package_globals[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted(package_globals.keys() | module_of.keys())

    return __getattr__, __dir__
