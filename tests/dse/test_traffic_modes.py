"""Traffic modes are op-program builders shared by every simulator engine.

A mode registered in :data:`~repro.dse.pipeline.TRAFFIC_MODES` turns a
scenario into a :class:`~repro.dse.pipeline.TrafficProgram`; the solo
engines replay that program and batch cells enqueue it, so a non-built-in
mode batches like the built-ins, and each scenario's program is built
once however many cells simulate it.
"""

from __future__ import annotations

from itertools import groupby

import pytest

import repro.dse.pipeline as pipeline
from repro.dse.pipeline import (
    TRAFFIC_MODES,
    EvaluationSettings,
    Scenario,
    TrafficProgram,
    evaluate_cells,
)
from repro.dse.records import STATUS_OK
from repro.dse.scenarios import aes_scenario
from repro.noc.batch import DrainOp, ScheduleOp
from repro.noc.traffic import acg_messages
from repro.workloads.benchmarks import mpeg4_decoder_acg, vopd_acg

pytestmark = pytest.mark.differential

ENGINES = ("event", "reference", "batch")
CAPACITIES = (2, 4)


def edge_by_edge(scenario: Scenario) -> TrafficProgram:
    """ACG traffic one edge at a time: each edge's volume drains before the next."""
    messages = acg_messages(scenario.acg, packet_size_bits=scenario.packet_size_bits)
    edges = groupby(messages, key=lambda message: (message.source, message.destination))
    ops = tuple(op for _, edge in edges for op in (ScheduleOp(tuple(edge)), DrainOp()))
    return TrafficProgram(ops * scenario.repetitions, iterations=scenario.repetitions)


@pytest.fixture
def edge_mode():
    TRAFFIC_MODES.register("acg_edge_by_edge", edge_by_edge)
    yield "acg_edge_by_edge"
    TRAFFIC_MODES.unregister("acg_edge_by_edge")


def payloads(scenarios, engines=ENGINES):
    out = []
    for scenario in scenarios:
        for engine in engines:
            for capacity in CAPACITIES:
                settings = EvaluationSettings(
                    architecture="mesh", engine=engine, buffer_capacity_packets=capacity
                )
                axes = {"engine": engine, "buffer_capacity_packets": capacity}
                out.append((scenario, settings, axes, f"{scenario.name}-{engine}-{capacity}"))
    return out


def test_registered_mode_gives_identical_metrics_on_every_engine(edge_mode):
    scenario = Scenario(name="vopd_edges", acg=vopd_acg(), traffic=edge_mode, repetitions=2)
    records = {record.cache_key: record for record in evaluate_cells(payloads([scenario]))}
    assert all(record.status == STATUS_OK for record in records.values())
    for capacity in CAPACITIES:
        event, reference, batch = (
            records[f"vopd_edges-{engine}-{capacity}"] for engine in ENGINES
        )
        assert dict(batch.metrics) == dict(event.metrics)
        # the reference engine steps every cycle; every other figure agrees
        assert {**reference.metrics, "sim_cycles_stepped": None} == {
            **event.metrics,
            "sim_cycles_stepped": None,
        }
        assert batch.stage_reuse["simulate"] == "batch:2"
        assert "simulate" not in event.stage_reuse
        assert "simulate" not in reference.stage_reuse


def test_registered_mode_drives_the_simulator(edge_mode):
    """The mode's own program, not the plain ACG one, is what runs."""
    acg = mpeg4_decoder_acg()
    forward = Scenario(name="forward", acg=acg)
    serial = Scenario(name="serial", acg=acg, traffic=edge_mode)
    assert pipeline.traffic_program(serial).ops != pipeline.traffic_program(forward).ops
    records = evaluate_cells(payloads([forward, serial], engines=("batch",)))
    assert records[0].metrics != records[2].metrics


def test_one_program_build_per_scenario(monkeypatch):
    """Solo and batched cells of one scenario share a single program build."""
    built = []

    def counting(original):
        def builder(*args):
            built.append(original.__name__)
            return original(*args)

        return builder

    monkeypatch.setattr(pipeline, "_PROGRAMS", {})
    monkeypatch.setattr(pipeline, "_acg_program", counting(pipeline._acg_program))
    monkeypatch.setattr(
        pipeline, "_aes_phase_program", counting(pipeline._aes_phase_program)
    )
    scenarios = [Scenario(name="vopd", acg=vopd_acg(), repetitions=2), aes_scenario(blocks=2)]
    records = evaluate_cells(payloads(scenarios))
    assert all(record.status == STATUS_OK for record in records)
    assert sorted(built) == ["_acg_program", "_aes_phase_program"]
