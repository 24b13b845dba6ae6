"""Docs-debt guard: the public API must stay documented.

Walks ``__all__`` of the scenario subsystem, the execution engine, the
campaign runner, the policy engine, the hybrid fluid layer, and the
radio and mobility packages (their public APIs are the package
``__init__`` exports plus the shared-channel module) and asserts every
exported callable/class (and every public method defined on an
exported class) carries a real docstring, and that each module states
its determinism contract.  A `pydocstyle`-equivalent check without the
dependency: new exports can't land undocumented.
"""

import inspect

import pytest

import repro.campaign
import repro.campaign.diff
import repro.campaign.manifest
import repro.campaign.store
import repro.experiments.exec
import repro.fluid
import repro.fluid.config
import repro.fluid.driver
import repro.fluid.model
import repro.mobility
import repro.policy
import repro.policy.config
import repro.policy.decider
import repro.policy.trace
import repro.policy.types
import repro.radio
import repro.radio.channel
import repro.scenarios.builder
import repro.scenarios.catalog
import repro.scenarios.compare
import repro.scenarios.grid
import repro.scenarios.spec
import repro.scenarios.sweep
import repro.stacks
import repro.stacks.base
import repro.stacks.cellularip
import repro.stacks.flat
import repro.stacks.mobileip
import repro.stacks.multitier
import repro.stacks.population
import repro.stacks.registry

MODULES = [
    repro.scenarios.spec,
    repro.scenarios.builder,
    repro.scenarios.catalog,
    repro.scenarios.compare,
    repro.scenarios.grid,
    repro.scenarios.sweep,
    repro.experiments.exec,
    repro.fluid,
    repro.fluid.config,
    repro.fluid.driver,
    repro.fluid.model,
    repro.campaign,
    repro.campaign.manifest,
    repro.campaign.store,
    repro.campaign.diff,
    repro.policy,
    repro.policy.config,
    repro.policy.decider,
    repro.policy.trace,
    repro.policy.types,
    repro.radio,
    repro.radio.channel,
    repro.mobility,
    repro.stacks,
    repro.stacks.base,
    repro.stacks.registry,
    repro.stacks.population,
    repro.stacks.flat,
    repro.stacks.multitier,
    repro.stacks.cellularip,
    repro.stacks.mobileip,
]

MIN_DOCSTRING = 20  # characters; rules out placeholder one-worders


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_docstring_states_determinism(module):
    assert module.__doc__, f"{module.__name__} has no module docstring"
    assert "determin" in module.__doc__.lower(), (
        f"{module.__name__} docstring must state its determinism contract"
    )


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_exports_are_documented(module):
    assert module.__all__, f"{module.__name__} must declare __all__"
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            # Data and type-alias exports (MOBILITY_MODELS, Job, ...)
            # are documented with #: comments instead.
            continue
        doc = inspect.getdoc(obj) or ""
        if len(doc) < MIN_DOCSTRING:
            undocumented.append(name)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") or not inspect.isfunction(member):
                    continue
                method_doc = inspect.getdoc(member) or ""
                if len(method_doc) < MIN_DOCSTRING:
                    undocumented.append(f"{name}.{attr}")
    assert not undocumented, (
        f"{module.__name__} exports lacking docstrings "
        f"(>= {MIN_DOCSTRING} chars): {', '.join(undocumented)}"
    )
