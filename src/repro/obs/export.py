"""Pluggable event-log exporters and the trace summary renderer.

Spans and metrics share one currency — plain JSON-able *event dicts*
(``{"type": "span", ...}`` / ``{"type": "metric", ...}``) — and an
exporter is just a function from an event list to text.  The built-in
three (``jsonl``: the raw event log, ``prometheus``: the text exposition
format, ``summary``: aligned tables) live in the :data:`EXPORTERS`
registry, which is a normal plugin-fabric cell: third-party sinks
register through the ``repro.plugins`` entry-point group and become
reachable from ``python -m repro.dse stats --format NAME`` with no edit
inside ``repro.*``; unknown names raise the uniform
:class:`~repro.exceptions.UnknownPluginError`.

:func:`render_trace_summary` is the ``python -m repro.dse trace`` view:
top spans by total/self time, the DSE stage wall breakdown, and the hot
routers/channels the simulator probes measured.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.obs.metrics import METRIC_EVENT
from repro.obs.tracer import SPAN_EVENT
from repro.plugins import Registry

#: the DSE pipeline stages, in pipeline order (the stage-breakdown rows)
STAGE_SPAN_NAMES = (
    "dse.decompose",
    "dse.synthesize",
    "dse.route",
    "dse.simulate",
    "dse.score",
)


@dataclass(frozen=True)
class ExporterSpec:
    """One named way to render an event log as text."""

    name: str
    description: str
    render: Callable[[Sequence[dict]], str]


#: the exporter registry (plugin-fabric cell: third-party sinks register
#: here, directly or via the ``repro.plugins`` entry-point group)
EXPORTERS: Registry[ExporterSpec] = Registry("metrics exporter")


def register_exporter(spec: ExporterSpec) -> ExporterSpec:
    """Register (or replace) an exporter under its name."""
    return EXPORTERS.register(spec.name, spec)


# ----------------------------------------------------------------------
# the event log on disk
# ----------------------------------------------------------------------
def write_event_log(path: str | Path, events: Iterable[dict]) -> Path:
    """Write events as JSONL (one event per line); returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
    return path


def read_event_log(path: str | Path) -> list[dict]:
    """Read a JSONL event log back (blank lines are skipped)."""
    events = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def _spans(events: Sequence[dict]) -> list[dict]:
    return [event for event in events if event.get("type") == SPAN_EVENT]


def _metrics(events: Sequence[dict]) -> list[dict]:
    return [event for event in events if event.get("type") == METRIC_EVENT]


# ----------------------------------------------------------------------
# built-in exporters
# ----------------------------------------------------------------------
def render_jsonl(events: Sequence[dict]) -> str:
    """The raw event log: one sorted-key JSON object per line."""
    return "\n".join(json.dumps(event, sort_keys=True) for event in events)


def _prometheus_name(name: str) -> str:
    return re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _prometheus_labels(labels: dict, extra: dict | None = None) -> str:
    merged = {**labels, **(extra or {})}
    if not merged:
        return ""
    inner = ",".join(f'{_prometheus_name(str(key))}="{merged[key]}"'
                     for key in sorted(merged))
    return "{" + inner + "}"


def render_prometheus(events: Sequence[dict]) -> str:
    """Metric events in the Prometheus text exposition format.

    Counters and gauges become single samples; histograms expand into the
    conventional cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count``
    series.  Span events are skipped (they are not metrics).
    """
    lines: list[str] = []
    typed: set[str] = set()
    for event in _metrics(events):
        name = _prometheus_name(str(event["name"]))
        kind = event.get("kind")
        labels = dict(event.get("labels") or {})
        if kind in ("counter", "gauge"):
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name}{_prometheus_labels(labels)} {event['value']:g}")
        elif kind == "histogram":
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for bound in sorted(int(b) for b in (event.get("buckets") or {})):
                cumulative += int(event["buckets"][str(bound)])
                lines.append(
                    f"{name}_bucket{_prometheus_labels(labels, {'le': bound})} {cumulative}"
                )
            lines.append(
                f"{name}_bucket{_prometheus_labels(labels, {'le': '+Inf'})} "
                f"{event.get('count', 0)}"
            )
            lines.append(f"{name}_sum{_prometheus_labels(labels)} {event.get('sum', 0):g}")
            lines.append(f"{name}_count{_prometheus_labels(labels)} {event.get('count', 0)}")
    return "\n".join(lines)


def _aggregate_spans(events: Sequence[dict]) -> list[dict]:
    """Per-name span aggregates: count, total, self (minus children), max."""
    spans = _spans(events)
    child_total: dict[str, float] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            child_total[parent] = child_total.get(parent, 0.0) + float(span["duration_s"])
    by_name: dict[str, dict] = {}
    for span in spans:
        duration = float(span["duration_s"])
        own = max(0.0, duration - child_total.get(span["span_id"], 0.0))
        row = by_name.setdefault(
            span["name"],
            {"span": span["name"], "count": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0},
        )
        row["count"] += 1
        row["total_s"] += duration
        row["self_s"] += own
        row["max_s"] = max(row["max_s"], duration)
    return sorted(by_name.values(), key=lambda row: -row["total_s"])


def render_summary(events: Sequence[dict]) -> str:
    """Aligned tables over the whole event log: spans, then metrics."""
    # imported lazily: repro.experiments pulls in the comparison module,
    # which builds on the DSE pipeline this package instruments
    from repro.experiments.reporting import format_table

    sections: list[str] = []
    aggregated = _aggregate_spans(events)
    if aggregated:
        sections.append(format_table(aggregated, title="spans (by total wall)"))
    metric_rows = []
    for event in _metrics(events):
        labels = dict(event.get("labels") or {})
        row: dict[str, object] = {
            "metric": event["name"],
            "kind": event.get("kind", ""),
            "labels": ",".join(f"{key}={labels[key]}" for key in sorted(labels)) or "-",
        }
        if event.get("kind") == "histogram":
            row["count"] = event.get("count", 0)
            row["mean"] = (
                float(event.get("sum", 0.0)) / event["count"] if event.get("count") else 0.0
            )
            row["max"] = event.get("max", 0.0)
        else:
            row["value"] = event.get("value", 0.0)
        metric_rows.append(row)
    if metric_rows:
        sections.append(format_table(metric_rows, title="metrics"))
    if not sections:
        return "(no events)"
    return "\n\n".join(sections)


register_exporter(
    ExporterSpec(
        name="jsonl",
        description="raw JSONL event log (one span/metric event per line)",
        render=render_jsonl,
    )
)
register_exporter(
    ExporterSpec(
        name="prometheus",
        description="Prometheus text exposition format (metric events only)",
        render=render_prometheus,
    )
)
register_exporter(
    ExporterSpec(
        name="summary",
        description="aligned per-sweep summary tables (spans + metrics)",
        render=render_summary,
    )
)


# ----------------------------------------------------------------------
# the `trace` CLI view
# ----------------------------------------------------------------------
def render_trace_summary(events: Sequence[dict], top: int = 10) -> str:
    """Top spans, DSE stage wall breakdown, and hot routers/channels.

    The ``python -m repro.dse trace`` view over an event log written by
    ``run --trace``: where the wall time went (by span name and by
    pipeline stage) and which routers/channels the simulator probes saw
    the most traffic on.
    """
    from repro.experiments.reporting import format_table

    sections: list[str] = []

    aggregated = _aggregate_spans(events)
    if aggregated:
        sections.append(
            format_table(aggregated[:top], title=f"top {min(top, len(aggregated))} spans")
        )
    else:
        sections.append("(no spans in this event log)")

    stage_rows = []
    stage_totals = {
        row["span"]: row for row in aggregated if row["span"] in STAGE_SPAN_NAMES
    }
    stage_wall = sum(row["total_s"] for row in stage_totals.values())
    for name in STAGE_SPAN_NAMES:
        row = stage_totals.get(name)
        if row is None:
            continue
        stage_rows.append(
            {
                "stage": name.removeprefix("dse."),
                "calls": row["count"],
                "total_s": row["total_s"],
                "share": f"{100.0 * row['total_s'] / stage_wall:.0f}%" if stage_wall else "-",
            }
        )
    if stage_rows:
        sections.append(format_table(stage_rows, title="DSE stage wall breakdown"))

    rung_spans = sorted(
        (span for span in _spans(events) if span["name"] == "search.rung"),
        key=lambda span: (
            int((span.get("attributes") or {}).get("index", 0)),
            float(span.get("start_s", 0.0) or 0.0),
        ),
    )
    if rung_spans:
        rung_rows = []
        for span in rung_spans:
            attributes = dict(span.get("attributes") or {})
            rung_rows.append(
                {
                    "rung": attributes.get("rung", "?"),
                    "cells": attributes.get("cells", ""),
                    "evaluated": attributes.get("evaluated", ""),
                    "promoted": attributes.get("promoted", "-"),
                    "pruned": attributes.get("pruned", "-"),
                    "total_s": float(span["duration_s"]),
                }
            )
        sections.append(
            format_table(rung_rows, title="guided search rungs (fidelity ladder)")
        )
        for span in _spans(events):
            if span["name"] != "search.sweep":
                continue
            attributes = dict(span.get("attributes") or {})
            saved = attributes.get("top_rung_saved")
            grid = attributes.get("grid_cells")
            evaluated = attributes.get("top_rung_evaluations")
            if saved is not None and grid:
                sections.append(
                    f"guided search: {evaluated} of {grid} design points "
                    f"reached the top rung ({saved} full-fidelity "
                    "evaluation(s) saved)"
                )
            break

    decompose_spans = [
        span for span in _spans(events) if span["name"] == "search.decompose"
    ]
    if decompose_spans:
        pruned_by: dict[str, int] = {}
        nodes_expanded = 0
        bound_hits = 0
        bound_misses = 0
        for span in decompose_spans:
            attributes = dict(span.get("attributes") or {})
            nodes_expanded += int(attributes.get("nodes_expanded", 0) or 0)
            bound_hits += int(attributes.get("bound_cache_hits", 0) or 0)
            bound_misses += int(attributes.get("bound_cache_misses", 0) or 0)
            for reason, count in (attributes.get("branches_pruned_by") or {}).items():
                pruned_by[reason] = pruned_by.get(reason, 0) + int(count)
        if pruned_by:
            total_pruned = sum(pruned_by.values())
            rows = [
                {
                    "pruned by": reason,
                    "subtrees": count,
                    "share": f"{100.0 * count / total_pruned:.0f}%",
                }
                for reason, count in sorted(pruned_by.items(), key=lambda kv: -kv[1])
            ]
            sections.append(
                format_table(
                    rows,
                    title=(
                        f"decomposition prune provenance ({len(decompose_spans)} "
                        f"search(es), {nodes_expanded} nodes expanded, bound cache "
                        f"{bound_hits}/{bound_hits + bound_misses} hits)"
                    ),
                )
            )

    metrics = _metrics(events)
    delivered = [
        event for event in metrics
        if event["name"] == "noc.router.delivered" and event.get("kind") == "counter"
    ]
    if delivered:
        latency_by_labels = {
            json.dumps(event.get("labels") or {}, sort_keys=True): event
            for event in metrics
            if event["name"] == "noc.router.avg_latency_cycles"
        }
        rows = []
        for event in sorted(delivered, key=lambda item: -float(item["value"])):
            labels = dict(event.get("labels") or {})
            latency = latency_by_labels.get(json.dumps(labels, sort_keys=True))
            rows.append(
                {
                    "router": labels.get("router", "?"),
                    "labels": ",".join(
                        f"{key}={labels[key]}" for key in sorted(labels) if key != "router"
                    ) or "-",
                    "delivered": float(event["value"]),
                    "avg_latency_cycles": float(latency["value"]) if latency else 0.0,
                }
            )
        sections.append(format_table(rows[:top], title=f"hot routers (top {top})"))

    utilization = [
        event for event in metrics if event["name"] == "noc.channel.utilization"
    ]
    if utilization:
        rows = [
            {
                "channel": (event.get("labels") or {}).get("channel", "?"),
                "labels": ",".join(
                    f"{key}={value}"
                    for key, value in sorted((event.get("labels") or {}).items())
                    if key != "channel"
                ) or "-",
                "utilization": float(event["value"]),
            }
            for event in sorted(utilization, key=lambda item: -float(item["value"]))
        ]
        sections.append(format_table(rows[:top], title=f"hot channels (top {top})"))

    return "\n\n".join(sections)
