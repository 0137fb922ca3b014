"""Multi-fidelity guided search: Pareto-aware successive halving.

Exhaustive grids evaluate every cell at full fidelity; this module races
them instead.  A *fidelity ladder* is an ordered list of
:class:`RungSpec` configs: low rungs evaluate every design point under
truncated decomposition budgets (``max_nodes_expanded`` scaled by
``budget_fraction`` — a deterministic counter budget, so rung results
reproduce bit-identically on any machine; explicit wall-clock caps can
be added per rung via ``overrides``), a short simulation window
(:meth:`~repro.dse.pipeline.Scenario.with_simulation_cap`) and the
cheap ``batch`` engine; the top rung is exactly today's grid settings.
Every cell is seeded at the lowest rung, and only cells on — or within a
dominance *margin* of — the incumbent per-scenario Pareto front are
promoted to the next rung.

Fidelity and caching
    A rung variant is an ordinary ``(scenario, settings)`` cell, so it
    flows through the unchanged :func:`~repro.dse.runner.run_cells`
    machinery: content-hash cache keys, stage-granular reuse and the
    ``--parallel`` group fan-out all apply.  Because the decomposition
    budgets live *inside* the decomposition stage dict, a truncated
    rung's artifacts key separately and can never satisfy a full-budget
    sub-key — while a rung that only cheapens the *simulator* (engine,
    window) shares the full decomposition sub-key, so its promotion pays
    only the incremental simulation cost.

Determinism
    Promotion order is fully deterministic: front members first, then
    margin survivors, each ordered by a seeded ``sha256`` tie-break over
    the cell's content key.  Identical promotion sequences and final
    fronts are guaranteed across repeated runs and between serial and
    parallel execution (the pipeline itself is deterministic and
    :func:`~repro.dse.runner.run_cells` returns records in plan order).

Exactness
    If every cell of the true full-fidelity front survives to the top
    rung, the reported front *equals* the exhaustive grid's front — a
    finite strict partial order needs only its own front members to
    dominate everything else.  The margin is the insurance that makes
    survival likely; ``scripts/bench_search.py`` asserts the parity (and
    the >=5x top-rung saving) empirically on the embedded suite.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.dse.analysis import (
    DEFAULT_MAXIMIZE,
    DEFAULT_MINIMIZE,
    _objective_values,
    dominates,
    pareto_front,
)
from repro.dse.cache import ResultCache, StageArtifactStore, cache_key
from repro.dse.pipeline import EvaluationSettings, Scenario
from repro.dse.records import EvaluationRecord
from repro.dse.runner import (
    SweepCell,
    SweepResult,
    _stage_group,
    plan_sweep,
    run_cells,
)
from repro.exceptions import ConfigurationError
from repro.obs import get_session

__all__ = [
    "RungSpec",
    "SearchConfig",
    "SearchResult",
    "default_ladder",
    "margin_dominated",
    "run_search",
]


@dataclass(frozen=True)
class RungSpec:
    """One rung of the fidelity ladder.

    A rung turns a planned full-fidelity cell into its cheaper variant:
    ``overrides`` are merged into the cell's settings (any
    :class:`~repro.dse.pipeline.EvaluationSettings` field — engine,
    explicit ``decomposition_timeout_seconds`` wall caps, ...),
    ``simulation_cap`` clamps the scenario's traffic window, and
    ``budget_fraction`` scales the cell's ``max_nodes_expanded``
    decomposition budget (chosen over a wall-clock scale because a node
    budget truncates deterministically — the rung's metrics, and hence
    the promotion decisions, reproduce on any machine).  Per-scenario
    settings pins still win over rung overrides, exactly as they win
    over grid axes.
    """

    name: str
    overrides: Mapping[str, object] = field(default_factory=dict)
    simulation_cap: int | None = None
    budget_fraction: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a rung needs a name")
        if self.budget_fraction is not None and not 0.0 < self.budget_fraction <= 1.0:
            raise ConfigurationError(
                f"rung {self.name!r}: budget_fraction must be in (0, 1], "
                f"got {self.budget_fraction!r}"
            )
        if self.simulation_cap is not None and self.simulation_cap < 1:
            raise ConfigurationError(
                f"rung {self.name!r}: simulation_cap must be at least 1"
            )

    @property
    def full_fidelity(self) -> bool:
        """True when this rung evaluates cells exactly as the grid would."""
        return (
            not self.overrides
            and self.simulation_cap is None
            and self.budget_fraction is None
        )

    def apply(self, cell: SweepCell) -> SweepCell:
        """This rung's fidelity variant of a planned full-fidelity cell.

        The variant is a first-class cell with its own content key and
        stage group; when the rung is not binding for this particular cell
        (identical effective content) the original cell is returned, since
        the evaluation would be bit-identical anyway.
        """
        scenario = cell.scenario
        if self.simulation_cap is not None:
            scenario = scenario.with_simulation_cap(self.simulation_cap)
        merged = dict(self.overrides)
        if (
            self.budget_fraction is not None
            and "max_nodes_expanded" not in merged
            and cell.settings.max_nodes_expanded is not None
        ):
            merged["max_nodes_expanded"] = max(
                1, int(cell.settings.max_nodes_expanded * self.budget_fraction)
            )
        settings = cell.settings.merged(merged) if merged else cell.settings
        if scenario is cell.scenario and not merged:
            return cell
        key = cache_key(scenario, settings)
        return SweepCell(
            scenario=scenario,
            settings=settings,
            axes=dict(cell.axes),
            key=key,
            stage_group=_stage_group(scenario, settings, key),
        )


def default_ladder(use_batch_engine: bool | None = None) -> tuple[RungSpec, ...]:
    """The stock three-rung ladder: screen -> confirm -> full.

    ``screen`` truncates the decomposition node budget to 1/20 (20 nodes
    at the default 400-node budget — the exact residual bounds of
    :mod:`repro.core.bounds` reach the same incumbents in ~3x fewer nodes
    than the pre-bound ladder's 1/6 screen did) and clamps the simulation
    window to one iteration; ``confirm`` runs the full
    decomposition (sharing its stage sub-key with the top rung, so the
    final promotion pays only the real simulator run) under the cheap
    simulator; ``full`` is the untouched grid settings.  Both cheap rungs
    use the vectorized ``batch`` engine when numpy is importable (pass
    ``use_batch_engine=False`` to force the scalar event engine, e.g. for
    fabric families the batch engine does not support).
    """
    if use_batch_engine is None:
        try:
            import numpy  # noqa: F401

            use_batch_engine = True
        except ImportError:  # pragma: no cover - numpy ships in CI
            use_batch_engine = False
    engine: dict[str, object] = {"engine": "batch"} if use_batch_engine else {}
    return (
        RungSpec("screen", overrides=dict(engine), budget_fraction=0.05, simulation_cap=1),
        RungSpec("confirm", overrides=dict(engine)),
        RungSpec("full"),
    )


@dataclass(frozen=True)
class SearchConfig:
    """Ladder + racing policy of one guided search."""

    ladder: tuple[RungSpec, ...] = field(default_factory=default_ladder)
    margin: float = 0.10
    """Dominance slack for promotion: a cell is pruned only when some
    front member classically dominates it *and* is better by the factor
    ``1 + margin`` in every objective.  ``0.0`` degenerates to promoting
    exactly the incumbent front; larger values promote more conservatively
    (insurance against low-rung metrics misleading the racer)."""
    seed: int = 0
    """Seeds the promotion tie-break hash; part of the provenance."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "ladder", tuple(self.ladder))
        if not self.ladder:
            raise ConfigurationError("the fidelity ladder needs at least one rung")
        names = [rung.name for rung in self.ladder]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"rung names must be unique, got {names!r}")
        if not self.ladder[-1].full_fidelity:
            raise ConfigurationError(
                f"the top rung ({self.ladder[-1].name!r}) must be full fidelity "
                "(no overrides, no simulation cap, no budget fraction) — "
                "otherwise the search never reproduces the grid's measurements"
            )
        if self.margin < 0.0:
            raise ConfigurationError(f"margin must be >= 0, got {self.margin!r}")


def _beats_by_margin(
    incumbent: EvaluationRecord,
    challenger: EvaluationRecord,
    minimize: Sequence[str],
    maximize: Sequence[str],
    margin: float,
) -> bool:
    """Is the incumbent better by the factor ``1 + margin`` everywhere?

    For non-positive metric values the multiplicative margin is
    meaningless; those objectives fall back to the plain better-or-equal
    test (never *blocking* a prune that classic dominance already allows).
    """
    for key in minimize:
        ours = incumbent.metric(key)
        theirs = challenger.metric(key)
        if ours is None or theirs is None:
            return False
        if ours <= 0.0 or theirs <= 0.0:
            if ours > theirs:
                return False
        elif ours * (1.0 + margin) > theirs:
            return False
    for key in maximize:
        ours = incumbent.metric(key)
        theirs = challenger.metric(key)
        if ours is None or theirs is None:
            return False
        if ours <= 0.0 or theirs <= 0.0:
            if ours < theirs:
                return False
        elif ours < theirs * (1.0 + margin):
            return False
    return True


def margin_dominated(
    challenger: EvaluationRecord,
    front: Sequence[EvaluationRecord],
    minimize: Sequence[str] = DEFAULT_MINIMIZE,
    maximize: Sequence[str] = DEFAULT_MAXIMIZE,
    margin: float = 0.0,
) -> bool:
    """True when a front member dominates ``challenger`` beyond the margin.

    Checking front members only is sufficient: whatever dominates the
    challenger is itself dominated by (or on) the front, and dominance
    beyond a margin is inherited along the dominance order.  With
    ``margin=0`` this is exactly "not on the front".
    """
    for incumbent in front:
        if incumbent is challenger:
            continue
        if not dominates(incumbent, challenger, minimize, maximize):
            continue
        if margin <= 0.0:
            return True
        if _beats_by_margin(incumbent, challenger, minimize, maximize, margin):
            return True
    return False


def _tiebreak(seed: int, rung_index: int, key: str) -> str:
    """Seeded, platform-independent promotion tie-break rank."""
    return hashlib.sha256(f"{seed}:{rung_index}:{key}".encode()).hexdigest()


#: rung overrides that cannot change a *successful, untruncated* result:
#: the engines are differentially tested bit-identical, and a completed
#: branch-and-bound search under a smaller budget proves the budget never
#: bound — the decomposition equals the full-budget one
_EXACT_WHEN_UNTRUNCATED = frozenset(
    {"engine", "max_nodes_expanded", "decomposition_timeout_seconds"}
)


def _effective_margin(
    record: EvaluationRecord, rung: RungSpec, cell: SweepCell, margin: float
) -> float:
    """The dominance slack this cell actually needs at this rung.

    The margin insures against low-fidelity measurement error — but most
    low-rung evaluations are provably *exact*: if the rung only swapped
    the (bit-identical) engine and tightened decomposition budgets that
    turned out not to bind (``truncated`` is False, so the search
    completed and found the same optimum any larger budget would), and
    the simulation-window cap did not bind either, then the rung metrics
    equal the full-fidelity metrics and classic dominance is already
    sound.  Only genuinely approximate evaluations (truncated search,
    clamped window, or rung overrides beyond the provably-exact set) keep
    the configured slack.
    """
    if margin <= 0.0:
        return 0.0
    if not _EXACT_WHEN_UNTRUNCATED.issuperset(rung.overrides):
        return margin
    if record.truncated_search:
        return margin
    if (
        rung.simulation_cap is not None
        and cell.scenario.with_simulation_cap(rung.simulation_cap)
        is not cell.scenario
    ):
        return margin
    return 0.0


def _store_annotated(
    cache: ResultCache | None, records: Sequence[EvaluationRecord]
) -> None:
    """Overwrite the cached copies with their search-provenance view."""
    if cache is None:
        return
    for record in records:
        cache.store(record)


@dataclass
class SearchResult:
    """Everything one guided search produced, plus the racing bookkeeping.

    ``records`` holds one record per planned cell — the view from the
    *highest* rung the cell reached, every one carrying ``record.search``
    provenance (rung, promotion chain, prune point).  The headline
    counters are in distinct design points (content keys of the
    full-fidelity grid), matching the exhaustive sweep's
    ``num_evaluations`` accounting.
    """

    config: SearchConfig
    records: list[EvaluationRecord] = field(default_factory=list)
    promotions: list[dict[str, object]] = field(default_factory=list)
    """Ordered promotion log: one entry per promoted design point per rung
    boundary, in deterministic promotion-rank order."""
    sweeps: list[SweepResult] = field(default_factory=list)
    """Per-rung sweep bookkeeping (cache hits, stage reuse)."""
    rung_counts: list[tuple[str, int]] = field(default_factory=list)
    """Distinct design points evaluated at each rung, ladder order."""
    promoted: dict[str, int] = field(default_factory=dict)
    """Design points promoted *out of* each non-top rung."""
    pruned: dict[str, int] = field(default_factory=dict)
    """Design points dropped at each non-top rung."""
    grid_cells: int = 0
    """Distinct design points the exhaustive grid would evaluate."""
    cells_seeded: int = 0
    top_rung_evaluations: int = 0

    @property
    def top_rung_saved(self) -> int:
        """Full-fidelity evaluations the ladder avoided vs the grid."""
        return self.grid_cells - self.top_rung_evaluations

    @property
    def saving_factor(self) -> float:
        """Exhaustive-grid top-rung evaluations per guided one."""
        if self.top_rung_evaluations <= 0:
            return float("inf") if self.grid_cells else 1.0
        return self.grid_cells / self.top_rung_evaluations

    def full_fidelity_records(self) -> list[EvaluationRecord]:
        """The records measured at the top rung (grid-exact settings)."""
        return [
            record
            for record in self.records
            if bool(record.search.get("full_fidelity"))
        ]

    def front_records(self) -> list[EvaluationRecord]:
        """Per-scenario Pareto fronts over the full-fidelity records only."""
        finished = self.full_fidelity_records()
        front: list[EvaluationRecord] = []
        seen: dict[str, None] = {}
        for record in finished:
            seen.setdefault(record.scenario, None)
        for scenario in seen:
            scoped = [record for record in finished if record.scenario == scenario]
            front.extend(pareto_front(scoped))
        return front

    def failed(self) -> list[EvaluationRecord]:
        """Records that failed at some pipeline stage (any rung)."""
        return [record for record in self.records if not record.succeeded]

    def describe(self) -> str:
        """Multi-line human-readable racing summary."""
        ladder = " -> ".join(rung.name for rung in self.config.ladder)
        path = " -> ".join(str(count) for _, count in self.rung_counts)
        lines = [
            f"guided search: ladder {ladder} "
            f"(margin {self.config.margin:g}, seed {self.config.seed})",
            f"design points per rung: {path} of {self.grid_cells} grid cells; "
            f"top-rung evaluations: {self.top_rung_evaluations} "
            f"({self.saving_factor:.1f}x fewer than the exhaustive grid, "
            f"{self.top_rung_saved} full-fidelity evaluation(s) saved)",
        ]
        cache_hits = sum(sweep.cache_hits for sweep in self.sweeps)
        evaluated = sum(sweep.num_evaluations for sweep in self.sweeps)
        lines.append(
            f"pipeline runs: {evaluated} across all rungs "
            f"({cache_hits} cell(s) served by the result cache); "
            f"{len(self.failed())} failure(s)"
        )
        return "\n".join(lines)


def _select_survivors(
    alive: Sequence[int],
    records: Sequence[EvaluationRecord],
    cells: Sequence[SweepCell],
    config: SearchConfig,
    rung_index: int,
    rung: RungSpec,
) -> tuple[list[int], list[int], list[int]]:
    """Split the alive cells into promoted and pruned, deterministically.

    Returns ``(survivors, pruned, promotion_order)`` as indices into
    ``cells``: survivors sorted by plan position (the next rung's stable
    evaluation order), the promotion order sorted by rank — front members
    first, then margin survivors, tie-broken by the seeded hash.
    """
    by_scenario: dict[str, list[int]] = {}
    for position, index in enumerate(alive):
        by_scenario.setdefault(cells[index].scenario.name, []).append(position)
    pruned: list[int] = []
    promotion_order: list[int] = []
    for positions in by_scenario.values():
        scoped = [records[position] for position in positions]
        front = pareto_front(scoped)
        front_ids = {id(record) for record in front}
        ranked: list[tuple[int, str, int]] = []
        for position in positions:
            record = records[position]
            if id(record) in front_ids:
                rank = 0
            elif (
                not record.succeeded
                or _objective_values(record, DEFAULT_MINIMIZE, DEFAULT_MAXIMIZE) is None
            ):
                pruned.append(alive[position])
                continue
            elif margin_dominated(
                record,
                front,
                margin=_effective_margin(record, rung, cells[alive[position]], config.margin),
            ):
                pruned.append(alive[position])
                continue
            else:
                rank = 1
            ranked.append(
                (rank, _tiebreak(config.seed, rung_index, cells[alive[position]].key), position)
            )
        ranked.sort()
        promotion_order.extend(alive[position] for *_, position in ranked)
    return sorted(promotion_order), pruned, promotion_order


def run_search(
    scenarios: Sequence[Scenario],
    base: EvaluationSettings | None = None,
    axes: Mapping[str, Sequence[object]] | None = None,
    config: SearchConfig | None = None,
    cache: ResultCache | None = None,
    parallel: bool = False,
    max_workers: int | None = None,
    artifacts: StageArtifactStore | str | Path | None = None,
) -> SearchResult:
    """Race the grid up the fidelity ladder instead of sweeping it.

    Takes the same grid description as :func:`~repro.dse.runner.run_sweep`
    (scenarios x base settings x axes) plus a :class:`SearchConfig`, and
    shares its whole execution substrate — result cache, stage-artifact
    store and the ``parallel`` process-pool fan-out apply to every rung.
    Records land in the cache under their rung-variant content keys, so a
    follow-up ``report`` sees the full provenance and a re-run is ~all
    cache hits.
    """
    config = config or SearchConfig()
    cells = plan_sweep(scenarios, base, axes)
    grid_cells = len({cell.key for cell in cells})
    top_index = len(config.ladder) - 1
    session = get_session()
    result = SearchResult(config=config, grid_cells=grid_cells)

    latest: list[EvaluationRecord | None] = [None] * len(cells)
    previous_rung: list[str | None] = [None] * len(cells)
    alive = list(range(len(cells)))

    with session.tracer.span(
        "search.sweep",
        rungs=len(config.ladder),
        grid_cells=grid_cells,
        margin=config.margin,
        seed=config.seed,
    ) as sweep_span:
        for rung_index, rung in enumerate(config.ladder):
            rung_cells = [rung.apply(cells[index]) for index in alive]
            points = len({cells[index].key for index in alive})
            result.rung_counts.append((rung.name, points))
            with session.tracer.span(
                "search.rung", rung=rung.name, index=rung_index, cells=points
            ) as rung_span:
                sweep = run_cells(
                    rung_cells,
                    cache=cache,
                    parallel=parallel,
                    max_workers=max_workers,
                    artifacts=artifacts,
                )
                result.sweeps.append(sweep)
                full_fidelity = rung_index == top_index
                for index, record in zip(alive, sweep.records):
                    provenance: dict[str, object] = {
                        "rung": rung.name,
                        "rung_index": rung_index,
                        "full_fidelity": full_fidelity or rung.full_fidelity,
                        "seed": config.seed,
                    }
                    if previous_rung[index] is not None:
                        provenance["promoted_from"] = previous_rung[index]
                    record.search = provenance
                    latest[index] = record
                    previous_rung[index] = rung.name
                if rung_index == 0:
                    result.cells_seeded = points
                    if session.metrics is not None:
                        session.metrics.counter("search.cells_seeded").add(points)
                if full_fidelity:
                    result.top_rung_evaluations = points
                    if session.tracer.enabled:
                        rung_span.annotate(evaluated=sweep.num_evaluations)
                    _store_annotated(cache, sweep.records)
                    break
                survivors, dropped, promotion_order = _select_survivors(
                    alive, sweep.records, cells, config, rung_index, rung
                )
                for index in dropped:
                    record = latest[index]
                    assert record is not None
                    record.search["pruned_at"] = rung.name
                # re-store with the search provenance attached: run_cells
                # cached the bare measurement, but `report` must see the
                # rung / prune / promotion trail on the cached record too
                _store_annotated(cache, sweep.records)
                next_rung = config.ladder[rung_index + 1]
                promoted_keys: dict[str, None] = {}
                for index in promotion_order:
                    if cells[index].key in promoted_keys:
                        continue  # duplicate planned cell: one design point
                    promoted_keys[cells[index].key] = None
                    result.promotions.append(
                        {
                            "from": rung.name,
                            "to": next_rung.name,
                            "scenario": cells[index].scenario.name,
                            "label": cells[index].label,
                            "cell": cells[index].key,
                        }
                    )
                promoted_points = len(promoted_keys)
                pruned_points = points - promoted_points
                result.promoted[rung.name] = promoted_points
                result.pruned[rung.name] = pruned_points
                if session.tracer.enabled:
                    rung_span.annotate(
                        evaluated=sweep.num_evaluations,
                        promoted=promoted_points,
                        pruned=pruned_points,
                    )
                if session.metrics is not None:
                    session.metrics.counter(
                        "search.cells_promoted", rung=rung.name
                    ).add(promoted_points)
                    session.metrics.counter(
                        "search.cells_pruned", rung=rung.name
                    ).add(pruned_points)
                alive = survivors
        if session.metrics is not None:
            session.metrics.counter("search.top_rung_evals_saved").add(
                result.top_rung_saved
            )
        if session.tracer.enabled:
            sweep_span.annotate(
                cells_seeded=result.cells_seeded,
                top_rung_evaluations=result.top_rung_evaluations,
                top_rung_saved=result.top_rung_saved,
                promotions=len(result.promotions),
            )

    for record in latest:
        assert record is not None  # every planned cell was evaluated at rung 0
        result.records.append(record)
    return result
