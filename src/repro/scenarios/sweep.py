"""Scenario sweeps: a named axis over a :class:`ScenarioSpec` field.

The paper's evaluation is a family of curves — handoff cost, packet
loss and multimedia QoS as functions of population, mobility and cell
layout — and related micro-mobility studies (Helmy et al.'s M&M work,
Mirzamany & Friderikos's QoE-centric LMM evaluation) report the same
shape: metrics swept across load and mobility axes, not single
operating points.  A :class:`ScenarioSweep` turns one registered
scenario into such a curve: it names a spec field (``population``,
``hotspot_fraction``, ``wired_bandwidth``, a policy knob via
``policy.<key>``), the axis values, the seeds replicated at each point
and the metrics to extract.

:func:`repro.scenarios.grid.expand_grid` derives one immutable,
re-validated :class:`ScenarioSpec` per axis point
(:meth:`ScenarioSweep.derive`, ``dataclasses.replace`` under the hood),
:func:`~repro.scenarios.grid.run_grid` dispatches the **entire (sweep,
stack, point, seed) grid through a single
:meth:`ExecutionBackend.run <repro.experiments.exec.ExecutionBackend.run>`
call**, so ``--jobs N`` overlaps sweeps, points and seeds alike, and
:func:`~repro.scenarios.grid.sweep_curves` regroups it into curves.

Determinism: derived specs are pure data, every run derives all
randomness from its seed, and results are aggregated in job order —
a sweep's table and figure are byte-identical between serial and
``--jobs N`` execution and across repeats (enforced per registered
sweep by ``tests/test_scenario_sweeps.py`` and the CI sweep-smoke
steps).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from repro.experiments.runner import ExperimentResult
from repro.metrics.tables import format_table
from repro.scenarios.catalog import get_scenario
from repro.scenarios.spec import ScenarioSpec

#: Axis prefix selecting a numeric field inside ``ScenarioSpec.policy``
#: (rebound via ``dataclasses.replace`` on the policy block, preserving
#: its other knobs) — e.g. ``policy.speed_threshold``.
POLICY_PREFIX = "policy."

#: ``PolicyConfig`` fields a ``policy.<field>`` axis may target (the
#: numeric knobs; ``mode`` is not a number).
_POLICY_KEYS = {"speed_threshold", "demand_threshold", "admission_factor"}

#: Spec fields that cannot be swept: identity/documentation fields, the
#: seed list (the sweep controls seeds itself), the policy block as a
#: whole (sweep one knob via ``policy.<field>``) and the non-scalar
#: fields (mixes, roam rectangle) a numeric axis cannot rebind.
_UNSWEEPABLE = {
    "name",
    "description",
    "notes",
    "seeds",
    "policy",
    "mobility_mix",
    "traffic_mix",
    "roam",
}

_SPEC_FIELDS = {field.name for field in dataclasses.fields(ScenarioSpec)}

#: Fields whose declared type is ``int`` — axis values for these must
#: be integral.  Decided from the dataclass annotation, not the runtime
#: value, so e.g. ``duration=300`` (an int handed to a float field)
#: still accepts fractional axis values.
_INT_FIELDS = {
    field.name
    for field in dataclasses.fields(ScenarioSpec)
    if field.type in ("int", int)
}


def _is_monotone(values: tuple) -> bool:
    pairs = list(zip(values, values[1:]))
    return all(a < b for a, b in pairs) or all(a > b for a, b in pairs)


@dataclass(frozen=True)
class ScenarioSweep:
    """A registrable axis over one field of a catalog scenario.

    Parameters
    ----------
    name:
        Registry key, by convention ``<scenario>/<axis>`` (e.g.
        ``city-rush-hour/population``).
    scenario:
        Name of the base :class:`ScenarioSpec` in the catalog (or, when
        expanded with ``expand_grid``'s ``base=``, any spec).
    field:
        The axis: a :class:`ScenarioSpec` field name (e.g.
        ``wired_bandwidth``), or ``policy.<key>`` to vary one knob of
        the policy block.
    values:
        Numeric axis values; at least two, strictly monotone (so the
        resulting curve reads left to right without reordering).
    metrics:
        Metric names extracted from each run's metric dict into the
        figure's series (see :meth:`repro.stacks.base.BuiltRun.harvest`
        for the available names).
    seeds:
        Seeds replicated at *every* axis point; ``None`` uses the base
        spec's own default seed list.
    description / notes:
        One-liner for ``repro scenario list`` / free text for the
        result table.

    Construction validates shape only; :func:`register_sweep`
    additionally derives every per-point spec against the registered
    base scenario so a bad axis fails at import, not mid-run.
    Instances are immutable — deriving a variant (see :meth:`smoke`)
    never mutates the registered object.
    """

    name: str
    scenario: str
    field: str
    values: tuple
    metrics: tuple[str, ...] = ("loss_rate", "mean_delay", "handoffs")
    seeds: Optional[tuple[int, ...]] = None
    description: str = ""
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("sweep name must not be empty")
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        if self.seeds is not None:
            object.__setattr__(
                self, "seeds", tuple(int(seed) for seed in self.seeds)
            )
            if not self.seeds:
                raise ValueError(f"{self.name}: seeds must not be empty")
        if not self.metrics:
            raise ValueError(f"{self.name}: metrics must not be empty")
        if len(self.values) < 2:
            raise ValueError(
                f"{self.name}: a sweep needs at least 2 axis values, "
                f"got {len(self.values)}"
            )
        if not all(isinstance(v, (int, float)) for v in self.values):
            raise ValueError(f"{self.name}: axis values must be numeric")
        if not _is_monotone(self.values):
            raise ValueError(
                f"{self.name}: axis values must be strictly monotone, "
                f"got {self.values}"
            )
        if self.field.startswith(POLICY_PREFIX):
            key = self.field[len(POLICY_PREFIX):]
            if not key:
                raise ValueError(
                    f"{self.name}: empty policy key in field {self.field!r}"
                )
            if key not in _POLICY_KEYS:
                raise ValueError(
                    f"{self.name}: unknown policy key {key!r}; "
                    f"known: {', '.join(sorted(_POLICY_KEYS))}"
                )
        elif self.field in _UNSWEEPABLE:
            raise ValueError(
                f"{self.name}: field {self.field!r} cannot be swept"
            )
        elif self.field not in _SPEC_FIELDS:
            raise ValueError(
                f"{self.name}: unknown ScenarioSpec field {self.field!r}; "
                f"sweepable: {', '.join(sorted(_SPEC_FIELDS - _UNSWEEPABLE))}, "
                f"or {POLICY_PREFIX}<key>"
            )

    # ------------------------------------------------------------------
    def axis_label(self) -> str:
        """The x-axis label used in tables and figures.

        Returns the bare key for ``policy.<key>`` axes and the spec
        field name otherwise.
        """
        if self.field.startswith(POLICY_PREFIX):
            return self.field[len(POLICY_PREFIX):]
        return self.field

    def derive(self, base: ScenarioSpec, value) -> ScenarioSpec:
        """The spec at one axis point: ``base`` with ``field=value``.

        Immutable rebinding via :meth:`ScenarioSpec.replace`
        (``dataclasses.replace`` under the hood), so the derived spec
        passes the full ``__post_init__`` validation again; a value
        that produces an invalid spec raises :class:`ValueError` with
        the sweep name and offending value attached.  Integer fields
        (``population``, ``pico_cells``, ...) accept integral floats.
        ``policy.<key>`` axes rebind one knob of the base policy block,
        preserving the rest.
        """
        policy_key = None
        if self.field.startswith(POLICY_PREFIX):
            policy_key = self.field[len(POLICY_PREFIX):]
            integral = False  # every sweepable policy knob is a float
        else:
            integral = self.field in _INT_FIELDS
        if integral:
            if float(value) != int(value):
                raise ValueError(
                    f"{self.name}: field {self.field!r} is integral, "
                    f"got {value!r}"
                )
            value = int(value)
        try:
            if policy_key is not None:
                changes = {
                    "policy": dataclasses.replace(
                        base.policy, **{policy_key: float(value)}
                    )
                }
            else:
                changes = {self.field: value}
            return base.replace(**changes)
        except ValueError as error:
            raise ValueError(
                f"{self.name}: {self.axis_label()}={value!r} derives an "
                f"invalid spec: {error}"
            ) from error

    def derived_specs(self) -> list[ScenarioSpec]:
        """One validated spec per axis value of the catalog's
        :attr:`scenario`, in axis order.

        Deterministic: pure data transformation, no randomness.
        """
        base = get_scenario(self.scenario)
        return [self.derive(base, value) for value in self.values]

    def point_seeds(self, base: Optional[ScenarioSpec] = None) -> list[int]:
        """The seed list replicated at every axis point.

        :attr:`seeds` when set, else the base spec's default seeds.
        """
        if self.seeds is not None:
            return list(self.seeds)
        if base is None:
            base = get_scenario(self.scenario)
        return list(base.seeds)

    def smoke(self, base: Optional[ScenarioSpec] = None) -> "ScenarioSweep":
        """A shrunken variant for CI smoke runs and determinism tests.

        Keeps the first two axis points and a single seed; a smoke run
        additionally shrinks the base spec with
        :meth:`ScenarioSpec.smoke`.  ``base`` resolves the default
        seed list when the sweep has none (``None`` looks
        :attr:`scenario` up in the catalog).  Same code path, same
        guarantees, a few seconds of wall clock.
        """
        seeds = self.point_seeds(base)[:1]
        return dataclasses.replace(
            self, values=self.values[:2], seeds=tuple(seeds)
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_SWEEPS: dict[str, ScenarioSweep] = {}


def register_sweep(sweep: ScenarioSweep) -> ScenarioSweep:
    """Add ``sweep`` to the registry under ``sweep.name``.

    Eagerly resolves the base scenario and derives every per-point spec
    so an unknown scenario, unknown field or invalid axis value fails
    here (at import for shipped sweeps) rather than mid-run.  Returns
    the registered sweep for chaining.
    """
    if sweep.name in _SWEEPS:
        raise ValueError(f"sweep {sweep.name!r} is already registered")
    sweep.derived_specs()  # validates scenario + every axis point
    _SWEEPS[sweep.name] = sweep
    return sweep


def get_sweep(name: str) -> ScenarioSweep:
    """Look up a registered sweep by name; :class:`KeyError` if absent."""
    try:
        return _SWEEPS[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep {name!r}; available: {', '.join(_SWEEPS)}"
        ) from None


def sweep_names() -> list[str]:
    """The registered sweep names, in registration order."""
    return list(_SWEEPS)


def iter_sweeps() -> list[ScenarioSweep]:
    """The registered sweeps, in registration order."""
    return list(_SWEEPS.values())


def _resolve(sweep: Union[str, ScenarioSweep]) -> ScenarioSweep:
    if isinstance(sweep, ScenarioSweep):
        return sweep
    return get_sweep(sweep)


# ----------------------------------------------------------------------
# Rendering (used by the CLI and by output-equality tests)
# ----------------------------------------------------------------------
def format_sweep_result(
    sweep: Union[str, ScenarioSweep],
    result: ExperimentResult,
    seeds: Optional[Iterable[int]] = None,
) -> str:
    """Render a sweep result as a per-point table with CI half-widths.

    Each metric contributes two columns: its per-point mean and the
    half-width from :func:`repro.metrics.stats.mean_confidence` (0
    when a point ran a single seed).  The CI column label is derived
    from ``result.confidence`` — the level the intervals were actually
    computed at — so label and data cannot disagree.  Deterministic:
    pure rendering of the result data.
    """
    resolved = _resolve(sweep)
    level = f"ci{int(round(result.confidence * 100))}"
    headers = [result.x_label]
    for metric in resolved.metrics:
        headers += [metric, f"{metric}_{level}"]
    rows = []
    for x, replication in zip(result.x_values, result.replications):
        row: list[object] = [x]
        for metric in resolved.metrics:
            estimate = replication.metrics.get(metric)
            if estimate is None:
                row += [float("nan"), float("nan")]
            else:
                row += [estimate.mean, estimate.half_width]
        rows.append(row)
    title = result.title
    if seeds is not None:
        seed_list = [str(seed) for seed in seeds]
        title += (
            f" ({len(seed_list)} seed{'s' if len(seed_list) != 1 else ''}"
            f"/point: {', '.join(seed_list)})"
        )
    return format_table(headers, rows, title=title)


def describe_sweep(sweep: Union[str, ScenarioSweep]) -> str:
    """A full, human-readable description of one sweep."""
    resolved = _resolve(sweep)
    lines = [
        f"{resolved.name}: {resolved.description or '(no description)'}",
        "",
        f"  base scenario    {resolved.scenario}",
        f"  axis             {resolved.field}",
        f"  values           {', '.join(repr(v) for v in resolved.values)}",
        f"  seeds per point  "
        + (
            ", ".join(str(seed) for seed in resolved.seeds)
            if resolved.seeds is not None
            else f"(scenario default: "
            f"{', '.join(str(s) for s in get_scenario(resolved.scenario).seeds)})"
        ),
        f"  metrics          {', '.join(resolved.metrics)}",
    ]
    if resolved.notes:
        lines.extend(["", f"  {resolved.notes}"])
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Shipped sweeps: the paper's figure axes over the catalog
# ----------------------------------------------------------------------
#: Population, load, hotspot and layout axes — one registered sweep per
#: paper-style curve, each producing a CI table and a figure via
#: ``repro scenario sweep <name>``.

register_sweep(ScenarioSweep(
    name="city-rush-hour/population",
    scenario="city-rush-hour",
    field="population",
    values=(6, 12, 18, 24),
    metrics=("handoffs", "loss_rate", "mean_delay", "blocked_attaches"),
    description="handoff load and voice QoS vs commuter population",
    notes="The paper's load axis: more commuters mean more concurrent "
    "handoffs; loss and delay should stay flat until channels block.",
))

register_sweep(ScenarioSweep(
    name="campus-dense/backhaul",
    scenario="campus-dense",
    field="wired_bandwidth",
    values=(1.5e6, 2.5e6, 5e6, 10e6),
    metrics=("mean_delay", "jitter", "loss_rate"),
    description="multimedia QoS vs per-domain backhaul bandwidth",
    notes="Relaxing the choked rsmc1-R3-R1-A chain from 1.5 to 10 "
    "Mbit/s should collapse queueing delay and jitter toward the "
    "uncongested floor.",
))

register_sweep(ScenarioSweep(
    name="flash-crowd/hotspot-fraction",
    scenario="flash-crowd",
    field="hotspot_fraction",
    values=(0.0, 0.25, 0.5),
    metrics=("flows", "loss_rate", "mean_delay", "max_gap"),
    description="downlink QoS vs fraction of hotspot correspondents",
    notes="Each hotspot mobile draws extra simultaneous flows; the axis "
    "scales offered load without touching population or mobility.",
))

register_sweep(ScenarioSweep(
    name="campus-dense/pico-channel-bandwidth",
    scenario="campus-dense",
    field="pico_channel_bandwidth",
    values=(96e3, 384e3, 2e6, 11e6),
    metrics=("loss_rate", "mean_delay", "air_busiest_downlink", "handoffs"),
    description="air-interface axis: shared pico-channel budget under "
    "per-cell contention",
    notes="Every point enables contention (setting the axis field "
    "turns channels on; macro and micro run at TIER_DEFAULTS budgets, "
    "and the pico overlay deploys at population concentration "
    "points), so the air interface — not the 2.5 Mbit/s wired "
    "backhaul — is the binding constraint: air_busiest_downlink "
    "tracks the utilization of the most loaded cell, and widening "
    "the in-building pico budget from sub-voice-grade 96 kbit/s to "
    "WLAN-class 11 Mbit/s drains the pico queueing that shows up in "
    "loss_rate and mean_delay.",
))

register_sweep(ScenarioSweep(
    name="city-rush-hour/speed-threshold",
    scenario="city-rush-hour",
    field="policy.speed_threshold",
    values=(5.0, 10.0, 25.0, 40.0),
    metrics=("handoffs", "policy.decisions", "policy.better_tier",
             "policy.signal_hysteresis"),
    description="policy axis: macro/micro speed threshold of the "
    "three-factor tier decider",
    notes="Lowering the threshold below commuter speeds parks fast "
    "mobiles on the macro umbrella (fewer, larger cells to cross); "
    "raising it keeps them on micros and multiplies handoffs.  Every "
    "point is a non-default policy, so the per-reason policy.* "
    "decision counters are emitted alongside the handoff totals.",
))

register_sweep(ScenarioSweep(
    name="sparse-rural/population",
    scenario="sparse-rural",
    field="population",
    values=(2, 5, 10, 16),
    metrics=("handoffs", "loss_rate", "mean_delay"),
    description="macro-tier capacity vs spread-out population",
    notes="Everyone rides the macro umbrella (the roam band clears all "
    "micro cells), so this is the pure location-management load axis.",
))

register_sweep(ScenarioSweep(
    name="downtown-multimedia/pico-cells",
    scenario="downtown-multimedia",
    field="pico_cells",
    values=(0, 2, 4, 6),
    metrics=("handoffs", "handoff_latency", "mean_delay", "jitter"),
    description="cell-layout axis: in-building picos under the micro tier",
    notes="Densifying the bottom tier adds handoff opportunities; the "
    "three-factor policy should keep latency flat while VBR delay "
    "benefits from shorter radio legs.",
))


__all__ = [
    "POLICY_PREFIX",
    "ScenarioSweep",
    "describe_sweep",
    "format_sweep_result",
    "get_sweep",
    "iter_sweeps",
    "register_sweep",
    "sweep_names",
]
