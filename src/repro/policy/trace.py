"""The decision-trace log: every policy decision, recorded and counted.

One :class:`DecisionTrace` lives on each built run, whatever its
stack.  The mobility controllers append a :class:`DecisionRecord` for
every :class:`~repro.policy.types.TierDecision` they act on and one
for every refused or timed-out move, its ``kind`` the move
(``"attach"`` or ``"handoff"``), its one reason a token of
:data:`REFUSAL_CAUSES` and its ``action`` a
:class:`~repro.policy.types.NextAction`.  Three views come out of it:

* **metrics** — :meth:`DecisionTrace.metric_counts` aggregates the
  records into the fixed ``policy.*`` key set
  (:data:`POLICY_METRIC_KEYS`), which the run merges into scenario
  metrics whenever its stack decides with the spec's policy block (the
  multi-tier stack) and that block is non-default, making policy A/B
  sweeps analyzable in comparison tables;
* **refusals** — :attr:`DecisionTrace.refusals` counts the refused
  moves by ``(move, reason)``, the run's one book of why mobiles were
  turned away (``blocked_attaches`` and E9's ``rejections`` read it);
* **narrative** — :meth:`DecisionTrace.render` prints the reason
  counters plus the tail of the ring buffer, which is what
  ``repro scenario run --trace-decisions`` shows.

The ring buffer is bounded (:data:`TRACE_RING_SIZE` most recent
records) so long runs keep constant memory; the counters are exact
over the whole run.  The ring keeps each record's fields as a tuple;
:attr:`DecisionTrace.records` builds the :class:`DecisionRecord`
values only when read, so a run nobody reads builds none.

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

#: Why a move was refused: a station's resources (the guarded channel
#: pool, the shared channel's demand budget) or, for a handoff, no
#: answer within ``repro.multitier.domain.HANDOFF_TIMEOUT``.
REFUSAL_CAUSES: tuple[str, ...] = (
    "channel-pool-full",
    "air-budget-exceeded",
    "handoff-timeout",
)

#: Metric keys summing refused moves, each over its ``(move, reason)``
#: pairs.
_REFUSAL_KEYS = {
    "policy.admission_reject": (
        ("attach", "air-budget-exceeded"), ("handoff", "air-budget-exceeded"),
    ),
    "policy.handoff_reject": (("handoff", "channel-pool-full"),),
    "policy.handoff_timeout": (("handoff", "handoff-timeout"),),
}

#: Refusal actions (``NextAction.value``) that have their own metric
#: key (what the mobile did next).
_ACTION_KEYS = {
    "retry_same_tier": "policy.retry_same_tier",
    "escalate_tier": "policy.escalate_tier",
}


@dataclass(slots=True)
class DecisionRecord:
    """One traced policy event.

    ``kind`` is ``"decision"`` (a :class:`TierDecision` the controller
    acted on) or the move that was refused (``"attach"`` or
    ``"handoff"``); ``action`` is empty for decisions and the
    :class:`~repro.policy.types.NextAction` value for refusals;
    ``reasons`` is the machine-readable token list (never empty);
    ``target`` names the station asked (or the next station for
    refusals, empty when stopping).
    """

    time: float
    mobile: str
    kind: str
    action: str
    reasons: tuple[str, ...]
    target: str = ""


class DecisionTrace:
    """Bounded ring of decision records plus exact counters."""

    def __init__(self, ring_size: int = TRACE_RING_SIZE) -> None:
        #: The recent records' fields, in :class:`DecisionRecord` order.
        self._ring: deque[tuple] = deque(maxlen=int(ring_size))
        #: ``policy.*`` key -> decisions and refusal actions, whole run.
        self.counts: Counter[str] = Counter()
        #: ``(move, reason)`` -> refused moves, whole run.
        self.refusals: Counter[tuple[str, str]] = Counter()

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def records(self) -> list[DecisionRecord]:
        """The buffered records, oldest first, built when read."""
        return [DecisionRecord(*fields) for fields in self._ring]

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
        """Append one record and count it.

        ``kind="decision"`` bumps ``policy.decisions`` plus a key per
        recognized cause token (an unrecognized one lands in the record
        and the render only); any other ``kind`` is a refused move,
        counted in :attr:`refusals` once per reason and under the key
        of its ``action``.  The fields are stored as given: a float
        ``time`` and strings (``reasons`` becomes a tuple).
        """
        self._ring.append((time, mobile, kind, action, tuple(reasons), target))
        if kind == "decision":
            self.counts["policy.decisions"] += 1
            for reason in reasons:
                key = _DECISION_REASON_KEYS.get(reason)
                if key is not None:
                    self.counts[key] += 1
        else:
            key = _ACTION_KEYS.get(action)
            if key is not None:
                self.counts[key] += 1
            for reason in reasons:
                self.refusals[kind, reason] += 1

    # ------------------------------------------------------------------
    def metric_counts(self) -> dict[str, float]:
        """The fixed ``policy.*`` metric dict (all keys, zero-filled)."""
        counts = self.counts.copy()
        for key, pairs in _REFUSAL_KEYS.items():
            counts[key] = sum(self.refusals[pair] for pair in pairs)
        return {key: float(counts[key]) for key in POLICY_METRIC_KEYS}

    def render(self, title: str = "decision trace", limit: int = 20) -> str:
        """Human-readable summary: counters, refusals by move and
        reason (most first), then the last records.

        ``limit`` caps the number of tail records shown (the ring
        itself holds up to its capacity).
        """
        lines = [f"{title}:"]
        for key, value in self.metric_counts().items():
            lines.append(f"  {key:<28}{value:.0f}")
        lines.append(f"  {sum(self.refusals.values())} moves refused:")
        for (move, reason), count in sorted(
            self.refusals.items(), key=lambda item: (-item[1], item[0])
        ):
            lines.append(f"    {count:9d}  {move:<8}{reason}")
        ring = self._ring
        tail = list(ring)[-int(limit):]
        lines.append(
            f"  last {len(tail)} of {len(ring)} buffered records "
            f"(ring size {ring.maxlen}):"
        )
        for time, mobile, kind, action, reasons, target in tail:
            action = f" -> {action}" if action else ""
            target = f" target={target}" if target else ""
            lines.append(
                f"    t={time:9.3f}  {mobile:<6} "
                f"{kind}{action}{target} "
                f"[{', '.join(reasons)}]"
            )
        return "\n".join(lines)


__all__ = [
    "POLICY_METRIC_KEYS",
    "REFUSAL_CAUSES",
    "TRACE_RING_SIZE",
    "DecisionRecord",
    "DecisionTrace",
]
