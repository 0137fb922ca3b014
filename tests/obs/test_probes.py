"""Simulator probe tests: observe everything, perturb nothing."""

from __future__ import annotations

from repro.arch.mesh import MeshTopology
from repro.noc.packet import Message
from repro.noc.simulator import (
    ENGINE_EVENT,
    ENGINE_REFERENCE,
    NoCSimulator,
    SimulatorConfig,
)
from repro.obs import MetricsRegistry, SimulatorProbe
from repro.routing.policies import POLICIES


def drained_mesh(engine: str, probed: bool) -> tuple[NoCSimulator, SimulatorProbe | None]:
    mesh = MeshTopology(3, 3)
    routing = POLICIES.get("xy").build(mesh).frozen_next_hop()
    simulator = NoCSimulator(
        mesh, routing, config=SimulatorConfig(engine=engine, router_pipeline_delay_cycles=2)
    )
    probe = None
    if probed:
        probe = SimulatorProbe()
        simulator.attach_probe(probe)
    nodes = mesh.routers()
    for index, source in enumerate(nodes):
        destination = nodes[(index + 4) % len(nodes)]
        if source != destination:
            simulator.schedule_message(Message(source, destination, 96), cycle=index)
    simulator.run_until_drained()
    return simulator, probe


class TestBitIdentity:
    def test_probed_reports_identical_across_engines(self):
        event, _ = drained_mesh(ENGINE_EVENT, probed=True)
        reference, _ = drained_mesh(ENGINE_REFERENCE, probed=True)
        assert event.report() == reference.report()

    def test_probe_does_not_perturb_simulation(self):
        probed, _ = drained_mesh(ENGINE_EVENT, probed=True)
        plain, _ = drained_mesh(ENGINE_EVENT, probed=False)
        probed_report = probed.report()
        stripped = {
            key: value for key, value in probed_report.items()
            if not key.startswith("probe_")
        }
        assert stripped == plain.report()
        assert probed.statistics.delivery_cycles() == plain.statistics.delivery_cycles()

    def test_unprobed_report_has_no_probe_keys(self):
        plain, _ = drained_mesh(ENGINE_EVENT, probed=False)
        assert not any(key.startswith("probe_") for key in plain.report())

    def test_probed_report_carries_probe_figures(self):
        probed, probe = drained_mesh(ENGINE_EVENT, probed=True)
        report = probed.report()
        assert report["probe_total_enqueues"] == float(probe.enqueues)
        assert report["probe_total_enqueues"] > 0
        assert report["probe_max_router_occupancy"] >= 1.0
        assert report["probe_hot_router_delivered"] >= 1.0


class TestProbeViews:
    def test_router_rows_cover_delivering_routers(self):
        simulator, probe = drained_mesh(ENGINE_EVENT, probed=True)
        rows = probe.router_rows()
        assert rows, "expected per-router rows after a drained run"
        delivered_total = sum(row["delivered"] for row in rows)
        assert delivered_total == len(simulator.statistics.delivered_packets)
        # sorted hot-first
        delivered = [row["delivered"] for row in rows]
        assert delivered == sorted(delivered, reverse=True)
        for row in rows:
            if row["delivered"]:
                assert row["max_latency_cycles"] >= row["avg_latency_cycles"] > 0

    def test_channel_rows_match_statistics(self):
        simulator, probe = drained_mesh(ENGINE_EVENT, probed=True)
        rows = probe.channel_rows(simulator.statistics)
        utilization = simulator.statistics.channel_utilization()
        assert len(rows) == len(utilization)
        assert all(0.0 <= row["utilization"] <= 1.0 for row in rows)

    def test_emit_metrics_publishes_counters_and_gauges(self):
        simulator, probe = drained_mesh(ENGINE_EVENT, probed=True)
        metrics = MetricsRegistry()
        probe.emit_metrics(metrics, simulator.statistics, architecture="m3x3")
        events = metrics.snapshot_events()
        names = {event["name"] for event in events}
        assert "noc.router.delivered" in names
        assert "noc.router.avg_latency_cycles" in names
        assert "noc.channel.utilization" in names
        delivered = [
            event for event in events if event["name"] == "noc.router.delivered"
        ]
        assert all(event["labels"]["architecture"] == "m3x3" for event in delivered)
        assert sum(event["value"] for event in delivered) == len(
            simulator.statistics.delivered_packets
        )

    def test_probe_metrics_identical_across_engines(self):
        """The probe's own figures are part of the equivalence contract."""
        snapshots = {}
        for engine in (ENGINE_EVENT, ENGINE_REFERENCE):
            simulator, probe = drained_mesh(engine, probed=True)
            metrics = MetricsRegistry()
            probe.emit_metrics(metrics, simulator.statistics)
            snapshots[engine] = metrics.snapshot_events()
        assert snapshots[ENGINE_EVENT] == snapshots[ENGINE_REFERENCE]
