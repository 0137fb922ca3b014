"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(see DESIGN.md's experiment index and EXPERIMENTS.md for the recorded
numbers).  Run with::

    pytest benchmarks/ --benchmark-only

Add ``-s`` to see the regenerated rows/series printed by each benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

from repro.arch.mesh import MeshTopology  # noqa: E402
from repro.experiments.aes_experiment import run_aes_synthesis  # noqa: E402
from repro.experiments.comparison import run_prototype_comparison  # noqa: E402
from repro.noc.simulator import (  # noqa: E402
    ENGINE_EVENT,
    ENGINE_REFERENCE,
    NoCSimulator,
    SimulatorConfig,
)
from repro.routing.policies import POLICIES  # noqa: E402


@pytest.fixture(scope="session")
def aes_synthesis_session():
    """The AES decomposition + synthesized architecture, shared by benches."""
    return run_aes_synthesis()


@pytest.fixture(scope="session")
def prototype_comparison(aes_synthesis_session):
    """The mesh-vs-custom simulation used by the Section 5.2 table benches."""
    return run_prototype_comparison(blocks=2, synthesis=aes_synthesis_session)


# ----------------------------------------------------------------------
# engine comparison harness (event-driven vs reference simulator)
# ----------------------------------------------------------------------
@dataclass
class EngineDuel:
    """One workload run on both simulator engines over one architecture."""

    fabric: str
    event: NoCSimulator
    reference: NoCSimulator
    event_wall_seconds: float
    reference_wall_seconds: float

    @property
    def wall_speedup(self) -> float:
        return self.reference_wall_seconds / max(self.event_wall_seconds, 1e-9)

    @property
    def stepped_ratio(self) -> float:
        return self.reference.cycles_stepped / max(self.event.cycles_stepped, 1)

    def assert_identical_reports(self) -> None:
        assert self.event.report() == self.reference.report(), self.fabric
        assert (
            self.event.statistics.delivery_cycles()
            == self.reference.statistics.delivery_cycles()
        ), self.fabric

    def describe(self) -> str:
        return (
            f"{self.fabric}: wall {self.wall_speedup:.1f}x "
            f"(event {self.event_wall_seconds * 1000:.1f}ms / "
            f"reference {self.reference_wall_seconds * 1000:.1f}ms), "
            f"stepped cycles {self.reference.cycles_stepped}/"
            f"{self.event.cycles_stepped} = {self.stepped_ratio:.1f}x "
            f"over {self.event.current_cycle} simulated cycles"
        )


@pytest.fixture(scope="session")
def engine_duel(aes_synthesis_session):
    """Run a traffic builder on both engines over the mesh or custom fabric.

    Returns ``run(fabric, schedule) -> EngineDuel`` where ``schedule(sim)``
    loads the traffic; both engines then drain the identical workload and the
    duel carries reports, per-engine wall-clock and stepped-cycle counts.
    """

    def fabric_parts(fabric):
        if fabric == "mesh":
            mesh = MeshTopology(4, 4)
            return mesh, POLICIES.get("xy").build(mesh).frozen_next_hop()
        architecture = aes_synthesis_session.architecture
        return architecture.topology, architecture.routing_table.frozen_next_hop()

    def run(fabric, schedule, pipeline_delay_cycles=2):
        runs = {}
        for engine in (ENGINE_EVENT, ENGINE_REFERENCE):
            topology, routing = fabric_parts(fabric)
            simulator = NoCSimulator(
                topology,
                routing,
                config=SimulatorConfig(
                    engine=engine, router_pipeline_delay_cycles=pipeline_delay_cycles
                ),
            )
            schedule(simulator)
            start = time.perf_counter()
            simulator.run_until_drained()
            runs[engine] = (simulator, time.perf_counter() - start)
        return EngineDuel(
            fabric=fabric,
            event=runs[ENGINE_EVENT][0],
            reference=runs[ENGINE_REFERENCE][0],
            event_wall_seconds=runs[ENGINE_EVENT][1],
            reference_wall_seconds=runs[ENGINE_REFERENCE][1],
        )

    return run
