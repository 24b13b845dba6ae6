"""The repo benchmark: end-to-end and per-layer host-cost measurement.

Everything here measures the simulator from *outside*, through the
public API only (``repro.scenarios.get_scenario``,
``ScenarioSpec.replace``, ``build_scenario(spec, seed).execute()``,
``compare_scenario_stacks``).  See ``perf/README.md`` for the metric
definitions, the workloads and how to compare two commits.
"""
