"""The explainable, config-driven tier-selection policy engine.

This package is the §3.2 decision layer of the reproduction, rebuilt
so that every decision is *explainable*:

* :mod:`repro.policy.config` — :class:`PolicyConfig`, the validated
  knob block (mode, thresholds, admission factor) embedded in
  :class:`~repro.scenarios.spec.ScenarioSpec` and sweepable like any
  other spec field;
* :mod:`repro.policy.decider` — :class:`TierDecider`, which orders
  handoff candidates from the three §3.2 factors and returns
  machine-readable reasons;
* :mod:`repro.policy.types` — the decision values
  (:class:`TierDecision`, :class:`HandoffFactors`,
  :class:`Candidate`, :class:`NextAction`);
* :mod:`repro.policy.trace` — :class:`DecisionTrace`, the per-run
  ring-buffer log whose counters become the ``policy.*`` scenario
  metrics, which books every refused move by move and reason
  (:data:`REFUSAL_CAUSES`), and whose tail renders under
  ``--trace-decisions``.

The default config reproduces the historical hard-coded policy
byte-identically.

Determinism: everything here is pure data or pure functions of it —
no randomness, no wall-clock — so decisions and traces from a
deterministic simulation are byte-identical across processes and
execution backends.
"""

from repro.policy.config import (
    CONTENTION_DEMAND_THRESHOLD,
    LEGACY_DEMAND_THRESHOLD,
    POLICY_MODES,
    PRESETS,
    PolicyConfig,
)
from repro.policy.decider import TierDecider
from repro.policy.trace import (
    POLICY_METRIC_KEYS,
    REFUSAL_CAUSES,
    TRACE_RING_SIZE,
    DecisionRecord,
    DecisionTrace,
)
from repro.policy.types import (
    Candidate,
    HandoffFactors,
    NextAction,
    TierDecision,
)

__all__ = [
    "CONTENTION_DEMAND_THRESHOLD",
    "LEGACY_DEMAND_THRESHOLD",
    "POLICY_METRIC_KEYS",
    "POLICY_MODES",
    "PRESETS",
    "REFUSAL_CAUSES",
    "TRACE_RING_SIZE",
    "Candidate",
    "DecisionRecord",
    "DecisionTrace",
    "HandoffFactors",
    "NextAction",
    "PolicyConfig",
    "TierDecider",
    "TierDecision",
]
