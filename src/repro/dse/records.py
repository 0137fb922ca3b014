"""The unit of DSE output: one (scenario, configuration) evaluation.

Every cell of a design-space sweep — successful or not — produces one
:class:`EvaluationRecord`.  Failures are captured as data (status +
error message) rather than exceptions so a batch run over hundreds of
cells never dies half way, and so "this configuration deadlocks" is a
reportable result, exactly like "this configuration needs 2.5 uJ per
iteration".  Records round-trip losslessly through JSON, which is what
the on-disk JSONL cache stores.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

#: evaluation outcome classes (ordered roughly by how far the pipeline got)
STATUS_OK = "ok"
STATUS_DECOMPOSITION_FAILED = "decomposition_failed"
STATUS_SYNTHESIS_FAILED = "synthesis_failed"
STATUS_ROUTING_FAILED = "routing_failed"
STATUS_SIMULATION_FAILED = "simulation_failed"

ALL_STATUSES = (
    STATUS_OK,
    STATUS_DECOMPOSITION_FAILED,
    STATUS_SYNTHESIS_FAILED,
    STATUS_ROUTING_FAILED,
    STATUS_SIMULATION_FAILED,
)

#: stage provenance markers recorded in :attr:`EvaluationRecord.stage_reuse`
STAGE_COMPUTED = "computed"
"""The stage ran fresh for this cell."""
STAGE_REUSED_MEMORY = "memory"
"""The stage's artifact was reused from the in-process stage memo."""
STAGE_REUSED_STORE = "store"
"""The stage's artifact was deserialized from the on-disk artifact store."""

STAGE_PROVENANCES = (STAGE_COMPUTED, STAGE_REUSED_MEMORY, STAGE_REUSED_STORE)


@dataclass
class EvaluationRecord:
    """Everything one DSE cell produced."""

    scenario: str
    architecture: str
    config_label: str
    cache_key: str = ""
    status: str = STATUS_OK
    error: str = ""
    axes: dict[str, object] = field(default_factory=dict)
    """The swept parameter values that distinguish this cell in its grid."""
    settings: dict[str, object] = field(default_factory=dict)
    """The full effective :class:`~repro.dse.pipeline.EvaluationSettings`."""
    metrics: dict[str, float] = field(default_factory=dict)
    """Measured figures of merit (cycles, latency, throughput, energy, ...)."""
    constraints_satisfied: bool | None = None
    deadlock_free: bool | None = None
    search_statistics: dict[str, object] = field(default_factory=dict)
    stage_reuse: dict[str, str] = field(default_factory=dict)
    """Per-stage provenance (``{"decompose": "memory", ...}``): whether each
    shareable stage was computed for this cell or reused from the in-memory
    memo / on-disk artifact store.  Empty for mesh cells (no decomposition)."""
    stage_seconds: dict[str, float] = field(default_factory=dict)
    """Per-stage wall-clock seconds for the stages this cell actually ran
    (``{"decompose": 1.8, "simulate": 0.2, ...}``); the triage companion of
    ``stage_reuse`` — a budget-truncated (``!``) cell shows *where* its time
    went.  Recorded for failed stages too (up to the failure point)."""
    search: dict[str, object] = field(default_factory=dict)
    """Guided-search provenance (``stage_reuse``-style), empty for plain grid
    sweeps.  Keys written by :func:`repro.dse.search.run_search`:
    ``rung`` (the fidelity-ladder rung this result was measured at),
    ``rung_index``, ``full_fidelity`` (True only on the top rung),
    ``promoted_from`` (previous rung name, when this cell was promoted) and
    ``pruned_at`` (rung name, when the racer dropped the cell there)."""
    runtime_seconds: float = 0.0
    from_cache: bool = False

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def succeeded(self) -> bool:
        """True when every stage of the pipeline completed for this cell."""
        return self.status == STATUS_OK

    @property
    def truncated_search(self) -> bool:
        """True when the decomposition search exhausted its budget.

        Such a cell's result is machine-speed-dependent (a slower host may
        have found a worse decomposition under the same content key), so
        reports flag it instead of silently mixing it into Pareto fronts.
        """
        return bool(self.search_statistics.get("truncated"))

    @property
    def truncated_deterministic(self) -> bool:
        """True when the truncation came from a counter budget (nodes/leaves).

        Counter-budget truncations reproduce bit-identically on any machine —
        only wall-clock (``timeout``) truncations are machine-speed-dependent.
        """
        return self.search_statistics.get("truncated_by") in ("nodes", "leaves")

    @property
    def low_fidelity(self) -> bool:
        """True for a guided-search record measured below the top rung.

        Such a record's metrics came from truncated budgets and/or a short
        simulation window; reports must flag it (``!``) rather than let it
        pass for a full-fidelity grid result.
        """
        return bool(self.search) and not bool(self.search.get("full_fidelity", True))

    @property
    def approximate(self) -> bool:
        """True when the metrics are not full-fidelity trustworthy as-is:
        either the decomposition search was budget-truncated or the record
        was measured on a low rung of a guided-search fidelity ladder."""
        return self.truncated_search or self.low_fidelity

    def metric(self, key: str, default: float | None = None) -> float | None:
        """One metric as float, or ``default`` when absent."""
        value = self.metrics.get(key, default)
        return float(value) if value is not None else None

    def as_row(self) -> dict[str, object]:
        """Flatten into one reporting-table row."""
        row: dict[str, object] = {
            "scenario": self.scenario,
            "arch": self.architecture,
            "config": self.config_label,
            "status": self.status,
        }
        row.update(self.metrics)
        for stage, seconds in self.stage_seconds.items():
            row[f"t_{stage}"] = seconds
        if self.constraints_satisfied is not None:
            row["constraints_ok"] = self.constraints_satisfied
        if self.deadlock_free is not None:
            row["deadlock_free"] = self.deadlock_free
        if self.search:
            rung = str(self.search.get("rung", ""))
            if self.search.get("pruned_at"):
                rung = f"{rung} (pruned)"
            row["rung"] = rung
        return row

    # ------------------------------------------------------------------
    # JSON round-trip (the cache's storage format)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """One JSONL line (the cache's storage format).

        Every field holds JSON-native values, so a shallow field dict
        serializes exactly like a deep ``dataclasses.asdict`` copy.
        """
        payload = {spec.name: getattr(self, spec.name) for spec in fields(self)}
        payload.pop("from_cache", None)  # a load-time annotation, not state
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "EvaluationRecord":
        """Rebuild a record from a dict, ignoring unknown keys."""
        known = {name for name in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        return cls(**{key: value for key, value in payload.items() if key in known})

    @classmethod
    def from_json(cls, text: str) -> "EvaluationRecord":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))
