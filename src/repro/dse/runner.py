"""Batch runner: grid expansion, process-pool fan-out and cache reuse.

A *grid* is a base :class:`EvaluationSettings` plus named axes (field ->
list of values); its cartesian product crossed with a scenario list
yields the sweep cells.  The runner resolves every cell against the
on-disk :class:`~repro.dse.cache.ResultCache` first, groups the misses
by decomposition sub-key, and fans *groups* — not raw cells — across
the process pool (module-level worker function so payloads pickle
cleanly, as in the Figure-4 :mod:`~repro.experiments.runtime_sweep`
machinery).  Group-granular fan-out is what keeps the stage cache
effective under parallelism: all cells sharing a decomposition land in
one worker, whose :class:`~repro.dse.cache.StageContext` runs the
search exactly once per group.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.dse.cache import (
    ResultCache,
    StageArtifactStore,
    StageContext,
    cache_key,
    decomposition_stage_key,
)
from repro.dse.pipeline import (
    EvaluationSettings,
    Scenario,
    axis_label,
    evaluate_cells,
)
from repro.dse.records import STAGE_COMPUTED, EvaluationRecord
from repro.exceptions import ConfigurationError
from repro.obs import ObsSession, get_session, use_session

__all__ = [
    "CellPayload",
    "SweepCell",
    "SweepResult",
    "axis_label",
    "expand_grid",
    "plan_sweep",
    "run_cells",
    "run_sweep",
]


def expand_grid(
    base: EvaluationSettings | None = None,
    axes: Mapping[str, Sequence[object]] | None = None,
) -> list[tuple[dict[str, object], EvaluationSettings]]:
    """Cartesian product of the axes over the base settings.

    Returns ``(axis_values, settings)`` pairs; with no axes the base
    settings are the single cell.  Axis names must be settings fields.
    """
    base = base or EvaluationSettings()
    axes = dict(axes or {})
    for name, values in axes.items():
        if not values:
            raise ConfigurationError(f"axis {name!r} has no values")
    if not axes:
        return [({}, base)]
    names = list(axes)
    cells = []
    for combination in itertools.product(*(axes[name] for name in names)):
        axis_values = dict(zip(names, combination))
        cells.append((axis_values, base.merged(axis_values)))
    return cells


@dataclass(frozen=True)
class SweepCell:
    """One (scenario, configuration) evaluation unit of a sweep."""

    scenario: Scenario
    settings: EvaluationSettings
    axes: dict[str, object]
    key: str
    stage_group: str = ""
    """Decomposition sub-key for custom-architecture cells; cells sharing it
    reuse one decomposition search and are scheduled into one worker.  Mesh
    cells (no decomposition) each form their own single-cell group."""

    @property
    def label(self) -> str:
        """Compact human-readable axis label of this cell."""
        return axis_label(self.axes)


def _stage_group(scenario: Scenario, settings: EvaluationSettings, key: str) -> str:
    effective = scenario.effective_settings(settings)
    if effective.architecture == "custom":
        return decomposition_stage_key(scenario, settings)
    return f"cell:{key}"


def plan_sweep(
    scenarios: Sequence[Scenario],
    base: EvaluationSettings | None = None,
    axes: Mapping[str, Sequence[object]] | None = None,
) -> list[SweepCell]:
    """All cells of scenarios x grid, each with its content-hash key."""
    if not scenarios:
        raise ConfigurationError("a sweep needs at least one scenario")
    cells: list[SweepCell] = []
    for scenario in scenarios:
        for axis_values, settings in expand_grid(base, axes):
            key = cache_key(scenario, settings)
            cells.append(
                SweepCell(
                    scenario=scenario,
                    settings=settings,
                    axes=axis_values,
                    key=key,
                    stage_group=_stage_group(scenario, settings, key),
                )
            )
    return cells


@dataclass
class SweepResult:
    """Records of one sweep plus cache bookkeeping.

    ``cache_hits``/``cache_misses`` count *cells* against the on-disk cache;
    ``num_evaluations`` counts the fresh pipeline runs actually executed,
    which can be lower than ``cache_misses`` when per-scenario pins or
    canonicalization collapse several cells onto one content key.  The
    ``decomposition_*``/``synthesis_*`` counters track *stage* reuse among
    the fresh evaluations: a simulator-axis sweep over N values should show
    one search and N-1 reuses per scenario.
    """

    records: list[EvaluationRecord] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    num_evaluations: int = 0
    decomposition_searches: int = 0
    """Fresh decomposition searches actually run."""
    decomposition_reuses: int = 0
    """Evaluated cells whose decompose stage was served from the stage cache
    (in-memory memo or on-disk artifact store)."""
    synthesis_builds: int = 0
    """Fresh synthesize/route stage executions."""
    synthesis_reuses: int = 0
    """Evaluated cells whose synthesized topology + routing were reused."""

    @property
    def num_cells(self) -> int:
        """Number of planned cells (cached and evaluated alike)."""
        return len(self.records)

    @property
    def cache_hit_fraction(self) -> float:
        """Fraction of cells answered by the on-disk result cache."""
        if self.num_cells == 0:
            return 0.0
        return self.cache_hits / self.num_cells

    def succeeded(self) -> list[EvaluationRecord]:
        """The records whose full pipeline completed."""
        return [record for record in self.records if record.succeeded]

    def failed(self) -> list[EvaluationRecord]:
        """The records that failed at some pipeline stage."""
        return [record for record in self.records if not record.succeeded]

    def count_stage_reuse(self, records: Sequence[EvaluationRecord]) -> None:
        """Accumulate the stage counters from freshly evaluated records."""
        for record in records:
            decompose = record.stage_reuse.get("decompose")
            if decompose == STAGE_COMPUTED:
                self.decomposition_searches += 1
            elif decompose is not None:
                self.decomposition_reuses += 1
            synthesize = record.stage_reuse.get("synthesize")
            if synthesize == STAGE_COMPUTED:
                self.synthesis_builds += 1
            elif synthesize is not None:
                self.synthesis_reuses += 1

    def describe(self) -> str:
        """Multi-line human-readable summary of cache and stage reuse."""
        shared = self.cache_misses - self.num_evaluations
        sharing = f" ({shared} duplicate cells shared an evaluation)" if shared else ""
        lines = [
            f"{self.num_cells} cells: {self.cache_hits} cached, "
            f"{self.num_evaluations} evaluated "
            f"({100.0 * self.cache_hit_fraction:.0f}% cache hits){sharing}; "
            f"{len(self.failed())} failures"
        ]
        if self.decomposition_searches or self.decomposition_reuses:
            lines.append(
                f"stage reuse: {self.decomposition_searches} decomposition "
                f"search(es) shared by {self.decomposition_reuses} further cell(s); "
                f"{self.synthesis_builds} topology build(s), "
                f"{self.synthesis_reuses} reused"
            )
        return "\n".join(lines)


#: the picklable per-cell payload shipped to worker processes
CellPayload = tuple[Scenario, EvaluationSettings, dict[str, object], str]


#: spans + metric events one traced worker ships back to the coordinator
GroupEvents = dict[str, list[dict[str, object]]]


def _evaluate_group(
    payload: tuple[list[CellPayload], str | None, bool],
) -> tuple[list[EvaluationRecord], GroupEvents]:
    """Evaluate one stage group (module-level so it pickles into workers).

    All cells of the group share a decomposition sub-key, so evaluating them
    in one process under one :class:`StageContext` runs the search once; the
    optional artifact directory extends the reuse across groups and runs.

    Returns ``(records, events)``: when the sweep is traced, ``events``
    carries the worker's serialized span and metric event dicts (plain
    JSON-able payloads, so they pickle back across the pool boundary); the
    coordinator re-parents the spans under its own sweep span via
    :meth:`~repro.obs.Tracer.adopt` and merges the metric events into the
    session registry via :meth:`~repro.obs.MetricsRegistry.ingest`.
    """
    cell_payloads, artifact_directory, traced = payload
    store = StageArtifactStore(artifact_directory) if artifact_directory else None
    context = StageContext(store)
    if not traced:
        return evaluate_cells(cell_payloads, context), {"spans": [], "metrics": []}
    session = ObsSession.enabled()
    with use_session(session):
        with session.tracer.span("dse.group", cells=len(cell_payloads)):
            records = evaluate_cells(cell_payloads, context)
    assert session.metrics is not None  # ObsSession.enabled() always builds one
    return records, {
        "spans": session.tracer.export_events(),
        "metrics": session.metrics.snapshot_events(),
    }


def run_sweep(
    scenarios: Sequence[Scenario],
    base: EvaluationSettings | None = None,
    axes: Mapping[str, Sequence[object]] | None = None,
    cache: ResultCache | None = None,
    parallel: bool = False,
    max_workers: int | None = None,
    artifacts: StageArtifactStore | str | Path | None = None,
) -> SweepResult:
    """Evaluate every (scenario, grid cell), reusing cached results.

    Records come back in plan order (scenario-major, then grid order)
    regardless of caching or parallelism, so serial and parallel sweeps are
    interchangeable.  ``artifacts`` optionally persists decomposition-stage
    artifacts on disk so stage reuse extends across runs (and across worker
    processes); without it, reuse is in-memory within this run only.
    """
    return run_cells(
        plan_sweep(scenarios, base, axes),
        cache=cache,
        parallel=parallel,
        max_workers=max_workers,
        artifacts=artifacts,
    )


def run_cells(
    cells: Sequence[SweepCell],
    *,
    cache: ResultCache | None = None,
    parallel: bool = False,
    max_workers: int | None = None,
    artifacts: StageArtifactStore | str | Path | None = None,
) -> SweepResult:
    """Evaluate an explicit list of planned cells, reusing cached results.

    The engine under both :func:`run_sweep` (which plans the full grid) and
    the guided searcher (which plans rung-variant subsets of a grid): cache
    resolution, duplicate-key sharing, stage-group fan-out and plan-order
    record labeling all behave identically for any caller-supplied cell list.
    """
    if artifacts is not None and not isinstance(artifacts, StageArtifactStore):
        artifacts = StageArtifactStore(artifacts)
    session = get_session()
    with session.tracer.span("dse.sweep") as sweep_span:
        result = _run_cells_traced(
            cells, cache, parallel, max_workers, artifacts, sweep_span
        )
        if session.tracer.enabled:
            sweep_span.annotate(
                cells=result.num_cells,
                cache_hits=result.cache_hits,
                evaluated=result.num_evaluations,
            )
    return result


def _run_cells_traced(
    cells: Sequence[SweepCell],
    cache: ResultCache | None,
    parallel: bool,
    max_workers: int | None,
    artifacts: StageArtifactStore | None,
    sweep_span,
) -> SweepResult:
    """The body of :func:`run_cells`, running inside its sweep span."""
    session = get_session()
    result = SweepResult()
    fresh: list[SweepCell] = []
    slots: dict[str, EvaluationRecord | None] = {}
    for cell in cells:
        if cell.key in slots:
            if slots[cell.key] is None:
                result.cache_misses += 1  # shares the pending evaluation
            else:
                result.cache_hits += 1
            continue  # duplicate cell (per-scenario pins collapsed an axis)
        slots[cell.key] = cache.get(cell.key) if cache is not None else None
        if slots[cell.key] is None:
            result.cache_misses += 1
            fresh.append(cell)
        else:
            result.cache_hits += 1
    result.num_evaluations = len(fresh)

    groups: dict[str, list[SweepCell]] = {}
    for cell in fresh:
        groups.setdefault(cell.stage_group, []).append(cell)
    artifact_directory = str(artifacts.directory) if artifacts is not None else None
    payloads = [
        (
            [(cell.scenario, cell.settings, cell.axes, cell.key) for cell in group],
            artifact_directory,
            session.active,
        )
        for group in groups.values()
    ]
    if parallel and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            outcomes = list(pool.map(_evaluate_group, payloads))
        evaluated_groups = [records for records, _ in outcomes]
        # reattach each worker's span tree under this sweep's span and fold
        # the worker metric snapshots into the coordinator's registry
        for _, events in outcomes:
            session.tracer.adopt(events["spans"], parent_id=sweep_span.span_id)
            if session.metrics is not None:
                session.metrics.ingest(events["metrics"])
    else:
        # serial: one context shared across all groups maximizes reuse; the
        # coordinator's own session stays active, so spans and metrics land
        # directly without any adoption step.  Groups are flattened into one
        # evaluate_cells call (group-major order preserved) so batch-engine
        # cells may share simulator batches across stage groups, too.
        context = StageContext(artifacts)
        flattened = [
            payload for cell_payloads, _, _ in payloads for payload in cell_payloads
        ]
        evaluated_groups = [evaluate_cells(flattened, context)]

    evaluated = [record for group in evaluated_groups for record in group]
    result.count_stage_reuse(evaluated)
    for record in evaluated:
        slots[record.cache_key] = record
        if cache is not None:
            cache.store(record)

    for cell in cells:
        shared = slots[cell.key]
        assert shared is not None  # every miss was evaluated above
        # each cell gets its own view of the (possibly shared) measurement:
        # the content key identifies the work, but the labels/axes — and the
        # scenario name, which is deliberately not part of the content hash —
        # belong to this plan's cell
        result.records.append(
            replace(
                shared,
                scenario=cell.scenario.name,
                config_label=cell.label,
                axes=dict(cell.axes),
            )
        )
    return result
