"""Layered on-disk caches for DSE sweeps: cell results + stage artifacts.

Two cooperating stores live here (see ``docs/dse.md`` for the formats):

**Cell results** (:class:`ResultCache`) — a sweep cell is identified by
the SHA-256 of its canonical JSON content: the scenario *fingerprint*
(workload structure, volumes, positions, traffic mode and generator
parameters — including the explicit seeds) plus the effective
:class:`~repro.dse.pipeline.EvaluationSettings`.  Labels and suite names
are deliberately not part of the key, so renaming a suite never
invalidates results, while changing a volume, a seed or any knob always
does.  Results append to one JSONL file, one record per line, which
makes the store crash-safe (a truncated trailing line is skipped on
load) and merge-friendly (files from several machines can simply be
concatenated).  Re-running a sweep only evaluates cells whose key is
absent.

**Stage artifacts** (:class:`StageArtifactStore` + :class:`StageContext`)
— the pipeline's stages are separable, and the expensive one (the
decomposition search) only reads the workload graph plus the
decomposition knobs.  Its output is therefore cached under a *stage
sub-key* (:func:`decomposition_stage_key`) derived from the cell key by
nulling out every simulator- and synthesis-stage field, so all cells of
a simulator-axis sweep share one serialized decomposition.  A synthesis
sub-key (:func:`synthesis_stage_key`) layers the synthesis fields back
on top and memoizes the synthesized topology + routing table in memory.

One caveat on merging result files: a cell whose decomposition search
exhausted its wall-clock budget (``search_statistics["truncated"]`` is
true in the record, :attr:`EvaluationRecord.truncated_search`) carries a
machine-speed-dependent result — a slower host may have cached a worse
decomposition under the same content key.  Within one cache file this is
consistent ("newest wins"); when merging files from heterogeneous
machines, treat truncated cells as approximate or re-run them with a
larger ``decomposition_timeout_seconds``.  ``report`` flags such cells.
The same caveat applies to decomposition artifacts copied between
machines of different speeds.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Callable
from contextlib import AbstractContextManager
from pathlib import Path

from repro.core.cost import LinkCountCostModel
from repro.core.decomposition import DecompositionResult, SearchStatistics
from repro.core.graph import ApplicationGraph
from repro.core.library import CommunicationLibrary
from repro.core.matching import Matching, RemainderGraph
from repro.core.synthesis import SynthesizedArchitecture
from repro.dse.pipeline import (
    EvaluationSettings,
    Scenario,
    route_stage,
    run_decomposition_search,
    synthesize_stage,
)
from repro.dse.records import (
    STAGE_COMPUTED,
    STAGE_REUSED_MEMORY,
    STAGE_REUSED_STORE,
    EvaluationRecord,
)
from repro.exceptions import ReproError

#: bump when the pipeline's measurement semantics change incompatibly, so
#: stale caches are invalidated wholesale instead of silently misread
#: (version 2: stage-granular pipeline — records carry ``stage_reuse``,
#: decompositions are shared across simulator-axis sweep cells;
#: version 3: event-driven simulator — settings grew the ``engine`` knob,
#: records carry ``sim_cycles_stepped``, and energy is batch-flushed, which
#: can move link-energy floats by an ulp relative to per-hop charging;
#: version 4: pluggable fabric layer — settings grew the ``topology`` /
#: ``routing_policy`` / ``require_deadlock_free`` knobs, baseline cells are
#: table-routed through the policy registry, and every routed cell records
#: the CDG gate's ``deadlock_free`` / ``vc_channels_needed`` provenance;
#: version 5: exact residual lower bounds — settings grew the
#: ``lower_bound`` knob (part of the decomposition stage sub-key), search
#: statistics carry ``branches_pruned_by`` provenance and bound-cache
#: counters, and truncated searches expand a different tree under the
#: tighter default bound)
PIPELINE_VERSION = 5

#: bump when the decomposition artifact serialization changes shape
DECOMPOSITION_ARTIFACT_FORMAT = 1


def _content_hash(payload: dict[str, object]) -> str:
    """SHA-256 of the canonical (sorted, compact) JSON encoding."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cache_key(scenario: Scenario, settings: EvaluationSettings) -> str:
    """Stable content hash of one (scenario, configuration) cell."""
    effective = scenario.effective_settings(settings)
    return _content_hash(
        {
            "pipeline_version": PIPELINE_VERSION,
            "scenario": scenario.fingerprint(),
            "settings": effective.canonical_dict(),
        }
    )


def decomposition_stage_key(scenario: Scenario, settings: EvaluationSettings) -> str:
    """Stable content hash of the decompose stage's inputs.

    Only the workload graph structure and the decomposition-stage settings
    (:meth:`EvaluationSettings.decomposition_stage_dict`) enter the hash:
    two cells that differ in simulator- or synthesis-stage fields alone —
    or in how the traffic is driven — share this key, and therefore one
    decomposition search.
    """
    effective = scenario.effective_settings(settings)
    return _content_hash(
        {
            "pipeline_version": PIPELINE_VERSION,
            "stage": "decompose",
            "workload": scenario.structural_fingerprint(),
            "settings": effective.decomposition_stage_dict(),
        }
    )


def synthesis_stage_key(scenario: Scenario, settings: EvaluationSettings) -> str:
    """Stable content hash of the synthesize/route stages' inputs.

    Layers the synthesis-stage fields
    (:meth:`EvaluationSettings.synthesis_stage_dict`) on top of the
    decomposition sub-key's inputs; cells that differ only in
    simulator-stage fields share this key, and therefore one synthesized
    topology and routing table.
    """
    effective = scenario.effective_settings(settings)
    return _content_hash(
        {
            "pipeline_version": PIPELINE_VERSION,
            "stage": "synthesize",
            "workload": scenario.structural_fingerprint(),
            "settings": effective.synthesis_stage_dict(),
        }
    )


class ResultCache:
    """A JSONL file of :class:`EvaluationRecord` lines keyed by content hash."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._records: dict[str, EvaluationRecord] = {}
        self._loaded = False

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load(self) -> dict[str, EvaluationRecord]:
        """Read every stored record (newest wins per key); idempotent."""
        if self._loaded:
            return self._records
        self._loaded = True
        if self.path.exists():
            for line in self.path.read_text(encoding="utf-8").splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    continue  # truncated line (crashed writer): skip, don't die
                if not isinstance(payload, dict):
                    continue  # foreign JSONL content: skip, don't die
                try:
                    record = EvaluationRecord.from_dict(payload)
                except TypeError:
                    continue  # missing required fields: skip, don't die
                if record.cache_key:
                    record.from_cache = True
                    self._records[record.cache_key] = record
        return self._records

    def get(self, key: str) -> EvaluationRecord | None:
        """The cached record under ``key``, or None."""
        return self.load().get(key)

    def __contains__(self, key: str) -> bool:
        return key in self.load()

    def __len__(self) -> int:
        return len(self.load())

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def store(self, record: EvaluationRecord) -> None:
        """Append one record (it must carry its cache key)."""
        if not record.cache_key:
            raise ValueError("cannot cache a record without a cache_key")
        self.load()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as stream:
            stream.write(record.to_json() + "\n")
        self._records[record.cache_key] = record

    def store_all(self, records: list[EvaluationRecord]) -> None:
        """Append several records in order."""
        for record in records:
            self.store(record)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def all_records(self) -> list[EvaluationRecord]:
        """Every cached record, one per content key (newest wins)."""
        return list(self.load().values())

    def describe(self) -> str:
        """One-line summary used by the CLI (path + cell count)."""
        return f"{self.path} ({len(self)} cached cells)"


# ----------------------------------------------------------------------
# stage artifacts
# ----------------------------------------------------------------------
def serialize_decomposition(decomposition: DecompositionResult) -> dict[str, object]:
    """JSON-serializable payload of a decomposition (matchings by content).

    Only the *choices* are stored — which primitive is instantiated on which
    cores — plus the search statistics and the total cost as an integrity
    check; the remainder graph and the cost breakdown are reconstructed by
    replaying the subtraction against the workload graph on load.
    """
    return {
        "format": DECOMPOSITION_ARTIFACT_FORMAT,
        "matchings": [
            {
                "primitive": matching.primitive.name,
                "assignment": [[node, core] for node, core in matching.assignment],
            }
            for matching in decomposition.matchings
        ],
        "total_cost": decomposition.total_cost,
        "statistics": decomposition.statistics.as_dict(),
    }


def rebuild_decomposition(
    payload: dict[str, object],
    acg: ApplicationGraph,
    library: CommunicationLibrary,
) -> DecompositionResult | None:
    """Inverse of :func:`serialize_decomposition`, or None when stale.

    Replays the stored matchings against ``acg`` (which re-validates that
    every covered edge exists and nothing overlaps) and recomputes the cost
    breakdown with the pipeline's cost model; any mismatch with the stored
    total cost — a changed library, cost model or workload — rejects the
    artifact so the caller falls back to a fresh search.
    """
    try:
        if payload.get("format") != DECOMPOSITION_ARTIFACT_FORMAT:
            return None
        residual = acg.structural_copy()
        matchings: list[Matching] = []
        for item in payload["matchings"]:  # type: ignore[index]
            primitive = library.by_name(item["primitive"])
            mapping = {node: core for node, core in item["assignment"]}
            matching = Matching.from_dict(primitive, mapping)
            residual = matching.subtract_from(residual)
            matchings.append(matching)
        cost_model = LinkCountCostModel()
        remainder = RemainderGraph(residual.without_isolated_nodes())
        matching_costs = [cost_model.matching_cost(m, acg) for m in matchings]
        remainder_cost = cost_model.remainder_cost(remainder, acg)
        total_cost = sum(matching_costs) + remainder_cost
        if abs(total_cost - float(payload["total_cost"])) > 1e-6:  # type: ignore[arg-type]
            return None
        stored_statistics = payload.get("statistics")
        statistics = SearchStatistics()
        if isinstance(stored_statistics, dict):
            known = set(statistics.as_dict())
            for key, value in stored_statistics.items():
                if key in known:
                    setattr(statistics, key, value)
        result = DecompositionResult(
            acg=acg,
            matchings=matchings,
            remainder=remainder,
            total_cost=total_cost,
            matching_costs=matching_costs,
            remainder_cost=remainder_cost,
            statistics=statistics,
        )
        result.validate_cover()
        return result
    except (ReproError, KeyError, TypeError, ValueError):
        return None


class StageArtifactStore:
    """A directory of serialized stage artifacts keyed by stage sub-key.

    Lives alongside the JSONL result cache (the CLI defaults to a
    ``stage_artifacts/`` sibling of the results file).  One JSON file per
    artifact, written atomically (temp file + rename) so concurrent worker
    processes computing the same key race benignly — last writer wins with
    an identical payload.  Unreadable or stale artifacts are treated as
    absent, never as errors.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def _decomposition_path(self, key: str) -> Path:
        return self.directory / f"decompose_{key}.json"

    def load_decomposition(
        self,
        key: str,
        acg: ApplicationGraph,
        library: CommunicationLibrary,
    ) -> DecompositionResult | None:
        """Deserialize the decomposition stored under ``key``, if usable."""
        path = self._decomposition_path(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        return rebuild_decomposition(payload, acg, library)

    def store_decomposition(self, key: str, decomposition: DecompositionResult) -> None:
        """Atomically persist one decomposition under its stage sub-key."""
        path = self._decomposition_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(serialize_decomposition(decomposition), sort_keys=True)
        temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        temporary.write_text(payload + "\n", encoding="utf-8")
        os.replace(temporary, path)

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("decompose_*.json"))

    def describe(self) -> str:
        """One-line summary used by the CLI (path + artifact count)."""
        return f"{self.directory} ({len(self)} stage artifacts)"


class StageContext:
    """Per-process reuse of stage artifacts across the cells of a sweep.

    Holds an in-memory memo of decompositions (by decomposition sub-key)
    and synthesized architectures (by synthesis sub-key), backed by an
    optional :class:`StageArtifactStore` that persists decompositions across
    runs and across worker processes.  Every custom cell of
    :func:`repro.dse.pipeline.evaluate` goes through a context (a throwaway
    one when the caller passes none), so a simulator-axis sweep sharing one
    context runs the decomposition search exactly once per sub-key.
    """

    def __init__(self, store: StageArtifactStore | None = None) -> None:
        self.store = store
        self._decompositions: dict[str, DecompositionResult] = {}
        self._architectures: dict[str, SynthesizedArchitecture] = {}

    def decomposition_for(
        self, scenario: Scenario, settings: EvaluationSettings
    ) -> tuple[DecompositionResult, str]:
        """The decompose-stage artifact for one cell, computed at most once.

        Returns ``(decomposition, provenance)``; provenance reports whether
        the search ran (``"computed"``) or the artifact came from the
        in-memory memo (``"memory"``) or the on-disk store (``"store"``).
        """
        # the key below hashes the scenario-effective settings; resolve the
        # pins here too so search/load see the exact configuration the key
        # describes even when a caller passes raw grid settings
        settings = scenario.effective_settings(settings)
        key = decomposition_stage_key(scenario, settings)
        memoized = self._decompositions.get(key)
        if memoized is not None:
            return memoized, STAGE_REUSED_MEMORY
        if self.store is not None:
            loaded = self.store.load_decomposition(
                key, scenario.acg, settings.build_library()
            )
            if loaded is not None:
                self._decompositions[key] = loaded
                return loaded, STAGE_REUSED_STORE
        computed = run_decomposition_search(scenario, settings)
        self._decompositions[key] = computed
        if self.store is not None:
            self.store.store_decomposition(key, computed)
        return computed, STAGE_COMPUTED

    def architecture_for(
        self,
        scenario: Scenario,
        settings: EvaluationSettings,
        decomposition: DecompositionResult,
        stage: Callable[[str], AbstractContextManager[None]],
    ) -> tuple[SynthesizedArchitecture, str]:
        """The synthesize/route-stage product for one cell, memoized.

        Rebuilding topology + routing table from a decomposition is cheap
        and deterministic, so this layer is memoized in memory only; across
        processes it is regenerated from the shared decomposition artifact.
        ``stage(name)`` wraps the ``"synthesize"`` step (the memo lookup,
        plus the topology build on a miss) and, on a miss, the ``"route"``
        step, so the pipeline times and spans each one separately.
        """
        settings = scenario.effective_settings(settings)  # match the key's view
        with stage("synthesize"):
            key = synthesis_stage_key(scenario, settings)
            memoized = self._architectures.get(key)
            if memoized is None:
                topology = synthesize_stage(scenario, settings, decomposition)
        if memoized is not None:
            return memoized, STAGE_REUSED_MEMORY
        with stage("route"):
            architecture = route_stage(scenario, settings, decomposition, topology)
        self._architectures[key] = architecture
        return architecture, STAGE_COMPUTED
