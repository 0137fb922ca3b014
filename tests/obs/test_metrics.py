"""Metrics registry + exporter tests, including the unknown-name contract."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import UnknownPluginError
from repro.obs import (
    EXPORTERS,
    ExporterSpec,
    Histogram,
    MetricsRegistry,
    register_exporter,
    render_jsonl,
    render_prometheus,
    render_summary,
)


class TestInstruments:
    def test_counter_accumulates(self):
        metrics = MetricsRegistry()
        counter = metrics.counter("requests", route="a")
        counter.add(2)
        counter.add(3)
        assert metrics.counter("requests", route="a").value == 5
        # a different label set is a different instrument
        assert metrics.counter("requests", route="b").value == 0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").add(-1)

    def test_gauge_overwrites(self):
        metrics = MetricsRegistry()
        metrics.gauge("depth").set(4.5)
        metrics.gauge("depth").set(1.25)
        assert metrics.gauge("depth").value == 1.25

    def test_histogram_power_of_two_buckets(self):
        histogram = Histogram(name="h")
        for value in (1, 2, 3, 7, 9):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == 22
        assert histogram.max == 9
        # bounds are exact ints: 1, 2, 4, 8, 16
        assert histogram.buckets == {1: 1, 2: 1, 4: 1, 8: 1, 16: 1}
        assert histogram.mean() == pytest.approx(4.4)

    def test_get_unknown_metric_is_uniform_error(self):
        metrics = MetricsRegistry()
        metrics.counter("known")
        with pytest.raises(UnknownPluginError, match="unknown metric"):
            metrics.get("unknown")


class TestSnapshotAndIngest:
    def test_snapshot_events_are_sorted_and_typed(self):
        metrics = MetricsRegistry()
        metrics.counter("b").add(1)
        metrics.gauge("a").set(2.0)
        events = metrics.snapshot_events()
        assert [event["name"] for event in events] == ["a", "b"]
        assert all(event["type"] == "metric" for event in events)
        # the snapshot is JSON-able as-is
        json.dumps(events)

    def test_ingest_merges_worker_snapshots(self):
        worker = MetricsRegistry()
        worker.counter("cells").add(3)
        worker.gauge("depth").set(7.0)
        worker.histogram("lat").observe(5)
        worker.histogram("lat").observe(9)

        coordinator = MetricsRegistry()
        coordinator.counter("cells").add(1)
        coordinator.histogram("lat").observe(2)
        coordinator.ingest(worker.snapshot_events())

        assert coordinator.counter("cells").value == 4
        assert coordinator.gauge("depth").value == 7.0
        histogram = coordinator.histogram("lat")
        assert histogram.count == 3
        assert histogram.sum == 16
        assert histogram.max == 9

    def test_ingest_twice_from_two_workers(self):
        coordinator = MetricsRegistry()
        for _ in range(2):
            worker = MetricsRegistry()
            worker.counter("done", scope="w").add(5)
            coordinator.ingest(worker.snapshot_events())
        assert coordinator.counter("done", scope="w").value == 10

    def test_ingest_skips_span_events(self):
        coordinator = MetricsRegistry()
        coordinator.ingest([{"type": "span", "name": "s", "span_id": "1",
                             "parent_id": None, "start_s": 0.0, "duration_s": 0.0,
                             "attributes": {}}])
        assert coordinator.snapshot_events() == []


class TestExporters:
    def test_builtins_registered(self):
        names = EXPORTERS.names()
        for name in ("jsonl", "prometheus", "summary"):
            assert name in names

    def test_unknown_exporter_uniform_error_with_suggestion(self):
        with pytest.raises(UnknownPluginError) as excinfo:
            EXPORTERS.get("promethus")
        message = str(excinfo.value)
        assert "unknown metrics exporter 'promethus'" in message
        assert "did you mean 'prometheus'?" in message

    def test_register_custom_exporter(self):
        spec = ExporterSpec(
            name="test_count",
            description="event count",
            render=lambda events: str(len(events)),
        )
        register_exporter(spec)
        try:
            assert EXPORTERS.get("test_count").render([{"type": "metric"}] * 3) == "3"
        finally:
            EXPORTERS.unregister("test_count")

    def test_render_jsonl_round_trips(self):
        metrics = MetricsRegistry()
        metrics.counter("c").add(1)
        events = metrics.snapshot_events()
        lines = render_jsonl(events).splitlines()
        assert [json.loads(line) for line in lines] == events

    def test_render_prometheus_shapes(self):
        metrics = MetricsRegistry()
        metrics.counter("noc.router.delivered", router="3").add(7)
        metrics.gauge("depth").set(2.5)
        metrics.histogram("occupancy", router="3").observe(3)
        text = render_prometheus(metrics.snapshot_events())
        assert '# TYPE noc_router_delivered counter' in text
        assert 'noc_router_delivered{router="3"} 7' in text
        assert "# TYPE depth gauge" in text
        assert 'occupancy_bucket{le="4",router="3"} 1' in text
        assert 'occupancy_bucket{le="+Inf",router="3"} 1' in text
        assert 'occupancy_count{router="3"} 1' in text

    def test_render_summary_mentions_spans_and_metrics(self):
        metrics = MetricsRegistry()
        metrics.counter("hits").add(1)
        span_event = {"type": "span", "name": "work", "span_id": "1",
                      "parent_id": None, "start_s": 0.0, "duration_s": 0.5,
                      "attributes": {}}
        text = render_summary([span_event, *metrics.snapshot_events()])
        assert "spans (by total wall)" in text
        assert "work" in text
        assert "hits" in text

    def test_render_summary_empty(self):
        assert render_summary([]) == "(no events)"
