"""Golden-corpus regression tests: canonical reports for the embedded ACGs.

``tests/fixtures/golden/<benchmark>.json`` holds the canonical probed
``report()`` of each published embedded benchmark (MPEG-4, VOPD, MWD,
263enc+mp3dec) on its mesh baseline.  Every simulator engine — reference,
event and batch — is replayed against the same fixture, so the corpus
pins two properties at once: the engines agree with each other, and none
of them drifts over time.  Where the differential harness catches a
divergence *between* engines, this corpus catches a divergence that all
engines share (a semantics change smuggled into the common substrate).

Updating the corpus is a deliberate act: when a PR intentionally changes
simulation semantics, regenerate the fixtures with

    pytest tests/noc/test_golden_reports.py --update-golden

and commit the diff — the fixture churn *is* the review surface.  The
update path always regenerates from the dense reference engine.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.dse.pipeline import EvaluationSettings, baseline_route_stage
from repro.dse.scenarios import embedded_scenario
from repro.noc.simulator import ENGINES, ENGINE_REFERENCE, NoCSimulator
from repro.noc.traffic import acg_messages
from repro.obs import SimulatorProbe
from repro.workloads.benchmarks import embedded_benchmark_names

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "golden"

#: fixed replay parameters — part of the corpus contract, change with care
PACKET_SIZE_BITS = 32
REPETITIONS = 2


def replay_report(workload: str, engine: str) -> dict[str, float]:
    """One canonical probed run of a benchmark on its mesh baseline."""
    scenario = embedded_scenario(workload, repetitions=REPETITIONS)
    settings = EvaluationSettings(architecture="mesh", engine=engine)
    fabric, table, _ = baseline_route_stage(scenario, settings)
    simulator = NoCSimulator(
        fabric,
        table.frozen_next_hop(),
        config=settings.build_simulator_config(),
        technology=settings.build_technology(),
    )
    simulator.attach_probe(SimulatorProbe())
    for _ in range(REPETITIONS):
        simulator.schedule_messages(
            acg_messages(scenario.acg, packet_size_bits=PACKET_SIZE_BITS)
        )
        simulator.run_until_drained()
    return simulator.report()


def canonical(report: dict[str, float]) -> dict[str, float]:
    """The JSON-round-tripped view: exactly what the fixture files hold."""
    return json.loads(json.dumps(report, sort_keys=True))


@pytest.mark.parametrize("workload", embedded_benchmark_names())
def test_update_golden_corpus(workload, request):
    """Regenerate the corpus with ``--update-golden`` (no-op otherwise)."""
    if not request.config.getoption("--update-golden"):
        pytest.skip("corpus update not requested (pass --update-golden)")
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    report = canonical(replay_report(workload, ENGINE_REFERENCE))
    path = GOLDEN_DIR / f"{workload}.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("workload", embedded_benchmark_names())
def test_golden_report(workload, engine, request):
    """Every engine reproduces the committed canonical report bit for bit."""
    if request.config.getoption("--update-golden"):
        pytest.skip("corpus being regenerated in this run")
    path = GOLDEN_DIR / f"{workload}.json"
    assert path.exists(), (
        f"missing golden fixture {path}; generate the corpus with "
        "pytest tests/noc/test_golden_reports.py --update-golden"
    )
    golden = json.loads(path.read_text())
    assert canonical(replay_report(workload, engine)) == golden
