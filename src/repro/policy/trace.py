"""The decision-trace log: every policy decision, recorded and counted.

One :class:`DecisionTrace` lives on each built run, whatever its
stack.  The mobility controllers append a :class:`DecisionRecord` for
every :class:`~repro.policy.types.TierDecision` they act on and a
``"fallback"`` record (its ``action`` a
:class:`~repro.policy.types.NextAction`) for every rejected or
timed-out attempt.  Two views come out of it:

* **metrics** — :meth:`DecisionTrace.metric_counts` aggregates the
  records into the fixed ``policy.*`` key set
  (:data:`POLICY_METRIC_KEYS`), which the run merges into scenario
  metrics whenever its stack decides with the spec's policy block (the
  multi-tier stack) and that block is non-default, making policy A/B
  sweeps analyzable in comparison tables;
* **narrative** — :meth:`DecisionTrace.render` prints the reason
  counters plus the tail of the ring buffer, which is what
  ``repro scenario run --trace-decisions`` shows.

The ring buffer is bounded (:data:`TRACE_RING_SIZE` most recent
records) so long runs keep constant memory; the counters are exact
over the whole run.

Determinism: records are appended in simulation event order by a
deterministic simulation, so the counters — and the rendered tail —
are byte-identical for one ``(spec, seed)`` on any execution backend.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

#: Capacity of the per-run ring buffer of recent decision records.
TRACE_RING_SIZE = 512

#: The fixed ``policy.*`` metric key set.  Fixed so that every
#: non-default-policy run emits exactly these keys (zero-filled),
#: keeping comparison tables rectangular across sweep points.
POLICY_METRIC_KEYS: tuple[str, ...] = (
    "policy.decisions",
    "policy.out_of_coverage",
    "policy.airtime_relief",
    "policy.better_tier",
    "policy.signal_hysteresis",
    "policy.retry_same_tier",
    "policy.escalate_tier",
    "policy.admission_reject",
    "policy.handoff_reject",
    "policy.handoff_timeout",
)

#: Reason tokens on ``kind="decision"`` records that have their own
#: metric key (why the controller acted at all).
_DECISION_REASON_KEYS = {
    "out-of-coverage": "policy.out_of_coverage",
    "airtime-relief": "policy.airtime_relief",
    "better-tier": "policy.better_tier",
    "signal-hysteresis": "policy.signal_hysteresis",
}

#: Reason tokens on ``kind="fallback"`` records that have their own
#: metric key (why the attempt failed).
_FALLBACK_REASON_KEYS = {
    "air-budget-exceeded": "policy.admission_reject",
    "channel-pool-full": "policy.handoff_reject",
    "handoff-timeout": "policy.handoff_timeout",
}

#: Fallback actions (``NextAction.value``) that have their own metric
#: key (what the mobile did next).
_ACTION_KEYS = {
    "retry_same_tier": "policy.retry_same_tier",
    "escalate_tier": "policy.escalate_tier",
}


@dataclass(slots=True)
class DecisionRecord:
    """One traced policy event.

    ``kind`` is ``"decision"`` (a :class:`TierDecision` the controller
    acted on) or ``"fallback"`` (the follow-up to one failed attempt);
    ``action`` is empty for decisions and the
    :class:`~repro.policy.types.NextAction` value for fallbacks;
    ``reasons`` is the machine-readable token list (never empty);
    ``target`` names the station asked (or the next station for
    fallbacks, empty when stopping).
    """

    time: float
    mobile: str
    kind: str
    action: str
    reasons: tuple[str, ...]
    target: str = ""


class DecisionTrace:
    """Bounded ring of decision records plus exact reason counters."""

    def __init__(self, ring_size: int = TRACE_RING_SIZE) -> None:
        self.records: deque[DecisionRecord] = deque(maxlen=int(ring_size))
        self.counts: Counter[str] = Counter()

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    def record(
        self,
        time: float,
        mobile: str,
        kind: str,
        reasons: list[str],
        action: str = "",
        target: str = "",
    ) -> None:
        """Append one record and bump the matching ``policy.*`` counters.

        ``kind="decision"`` bumps ``policy.decisions`` plus a key per
        recognized cause token; ``kind="fallback"`` bumps the key of
        its ``action`` plus a key per recognized failure token.
        Unrecognized tokens still land in the record (and the render)
        — they just have no dedicated metric key.
        """
        self.records.append(DecisionRecord(
            float(time), str(mobile), str(kind), str(action), tuple(reasons),
            str(target),
        ))
        if kind == "decision":
            self.counts["policy.decisions"] += 1
            reason_keys = _DECISION_REASON_KEYS
        else:
            key = _ACTION_KEYS.get(action)
            if key is not None:
                self.counts[key] += 1
            reason_keys = _FALLBACK_REASON_KEYS
        for reason in reasons:
            key = reason_keys.get(reason)
            if key is not None:
                self.counts[key] += 1

    # ------------------------------------------------------------------
    def metric_counts(self) -> dict[str, float]:
        """The fixed ``policy.*`` metric dict (all keys, zero-filled)."""
        return {
            key: float(self.counts.get(key, 0)) for key in POLICY_METRIC_KEYS
        }

    def render(self, title: str = "decision trace", limit: int = 20) -> str:
        """Human-readable summary: counters, then the last records.

        ``limit`` caps the number of tail records shown (the ring
        itself holds up to its capacity).
        """
        lines = [f"{title}:"]
        for key in POLICY_METRIC_KEYS:
            lines.append(f"  {key:<28}{self.counts.get(key, 0)}")
        tail = list(self.records)[-int(limit):]
        shown = len(tail)
        lines.append(
            f"  last {shown} of {len(self.records)} buffered records "
            f"(ring size {self.records.maxlen}):"
        )
        for record in tail:
            action = f" -> {record.action}" if record.action else ""
            target = f" target={record.target}" if record.target else ""
            lines.append(
                f"    t={record.time:9.3f}  {record.mobile:<6} "
                f"{record.kind}{action}{target} "
                f"[{', '.join(record.reasons)}]"
            )
        return "\n".join(lines)


__all__ = [
    "POLICY_METRIC_KEYS",
    "TRACE_RING_SIZE",
    "DecisionRecord",
    "DecisionTrace",
]
