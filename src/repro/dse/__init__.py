"""Batch design-space exploration over the full synthesis flow.

``repro.dse`` turns the per-figure experiment scripts into a batch
exploration engine:

* :mod:`repro.dse.pipeline` — ``evaluate(scenario, settings)`` chains the
  explicit stages decompose -> synthesize -> route -> simulate -> score
  and returns every metric (and every failure) as one record;
* :mod:`repro.dse.scenarios` — named scenario suites over the AES case
  study, published embedded benchmarks, TGFF/Pajek generators and
  degree-sequence random graphs;
* :mod:`repro.dse.cache` — the layered on-disk caches: content-hash-keyed
  JSONL cell results plus a stage-artifact store that shares one
  serialized decomposition across every cell of a simulator-axis sweep;
* :mod:`repro.dse.runner` — grid expansion + process-pool fan-out of
  decomposition-sharing cell groups (re-runs only execute new cells, and
  the search runs once per decomposition sub-key);
* :mod:`repro.dse.search` — multi-fidelity guided search: Pareto-aware
  successive halving over a fidelity ladder (truncated budgets + short
  simulation windows at low rungs), reproducing the exhaustive grid's
  front with far fewer full-fidelity evaluations;
* :mod:`repro.dse.analysis` — Pareto fronts over energy/latency/
  throughput, mesh-baseline normalization, stage-reuse summaries and
  flagging of budget-truncated (machine-speed-dependent) cells;
* ``python -m repro.dse`` — the ``run`` / ``report`` / ``list-scenarios``
  command line (worked example in ``docs/dse.md``).

Quickstart::

    from repro.dse import SUITES, run_sweep, pareto_report, ResultCache

    spec = SUITES.get("smoke")
    result = run_sweep(spec.build(), base=spec.base_settings,
                       axes=spec.default_axes, cache=ResultCache("results.jsonl"))
    print(pareto_report(result.records))
"""

from repro.dse.analysis import (
    DEFAULT_MAXIMIZE,
    DEFAULT_MINIMIZE,
    custom_dominates_mesh,
    dominates,
    mesh_baseline_for,
    normalize_to_mesh,
    pareto_front,
    pareto_report,
    stage_reuse_summary,
    truncated_cells,
)
from repro.dse.cache import (
    PIPELINE_VERSION,
    ResultCache,
    StageArtifactStore,
    StageContext,
    cache_key,
    decomposition_stage_key,
    synthesis_stage_key,
)
from repro.dse.pipeline import (
    LIBRARIES,
    STRATEGIES,
    TRAFFIC_MODES,
    ArchitectureMetrics,
    EvaluationSettings,
    Scenario,
    TrafficProgram,
    baseline_route_stage,
    build_baseline_fabric,
    decompose_stage,
    evaluate,
    route_stage,
    score_stage,
    simulate_aes_traffic,
    simulate_stage,
    synthesize_stage,
)
from repro.dse.records import (
    ALL_STATUSES,
    STAGE_COMPUTED,
    STAGE_PROVENANCES,
    STAGE_REUSED_MEMORY,
    STAGE_REUSED_STORE,
    STATUS_DECOMPOSITION_FAILED,
    STATUS_OK,
    STATUS_ROUTING_FAILED,
    STATUS_SIMULATION_FAILED,
    STATUS_SYNTHESIS_FAILED,
    EvaluationRecord,
)
from repro.dse.runner import (
    SweepCell,
    SweepResult,
    axis_label,
    expand_grid,
    plan_sweep,
    run_cells,
    run_sweep,
)
from repro.dse.search import (
    RungSpec,
    SearchConfig,
    SearchResult,
    default_ladder,
    margin_dominated,
    run_search,
)
from repro.dse.scenarios import (
    FILE_SUITE_PREFIX,
    SUITES,
    SuiteSpec,
    aes_scenario,
    build_suite,
    describe_suites,
    embedded_scenario,
    erdos_renyi_scenario,
    file_scenario,
    file_suite,
    planted_scenario,
    register_suite,
    resolve_suite,
    scale_free_scenario,
    scenario_rows,
    tgff_scenario,
)

__all__ = [
    "evaluate",
    "decompose_stage",
    "synthesize_stage",
    "route_stage",
    "simulate_stage",
    "score_stage",
    "EvaluationRecord",
    "EvaluationSettings",
    "Scenario",
    "ArchitectureMetrics",
    "simulate_aes_traffic",
    "build_baseline_fabric",
    "baseline_route_stage",
    "STATUS_OK",
    "STATUS_DECOMPOSITION_FAILED",
    "STATUS_SYNTHESIS_FAILED",
    "STATUS_ROUTING_FAILED",
    "STATUS_SIMULATION_FAILED",
    "ALL_STATUSES",
    "STAGE_COMPUTED",
    "STAGE_REUSED_MEMORY",
    "STAGE_REUSED_STORE",
    "STAGE_PROVENANCES",
    "ResultCache",
    "StageArtifactStore",
    "StageContext",
    "cache_key",
    "decomposition_stage_key",
    "synthesis_stage_key",
    "PIPELINE_VERSION",
    "stage_reuse_summary",
    "truncated_cells",
    "run_sweep",
    "run_cells",
    "plan_sweep",
    "expand_grid",
    "axis_label",
    "SweepCell",
    "SweepResult",
    "run_search",
    "SearchConfig",
    "SearchResult",
    "RungSpec",
    "default_ladder",
    "margin_dominated",
    "SuiteSpec",
    "register_suite",
    "resolve_suite",
    "build_suite",
    "describe_suites",
    "SUITES",
    "FILE_SUITE_PREFIX",
    "file_scenario",
    "file_suite",
    "LIBRARIES",
    "STRATEGIES",
    "TRAFFIC_MODES",
    "TrafficProgram",
    "scenario_rows",
    "aes_scenario",
    "embedded_scenario",
    "tgff_scenario",
    "planted_scenario",
    "erdos_renyi_scenario",
    "scale_free_scenario",
    "pareto_front",
    "pareto_report",
    "dominates",
    "custom_dominates_mesh",
    "normalize_to_mesh",
    "mesh_baseline_for",
    "DEFAULT_MINIMIZE",
    "DEFAULT_MAXIMIZE",
]
