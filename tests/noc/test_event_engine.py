"""Unit tests for the event-driven engine's bookkeeping and the satellites.

The equivalence property suite (``tests/property/test_engine_equivalence``)
establishes that the engines agree; this file pins down the mechanisms —
active-set wake-ups, idle-cycle skipping, leakage finalization, stuck-packet
diagnostics — with deterministic scenarios.
"""

from __future__ import annotations

import pytest

from repro.arch.mesh import MeshTopology
from repro.arch.topology import Topology
from repro.exceptions import SimulationError
from repro.noc.packet import Message
from repro.noc.simulator import (
    ENGINE_EVENT,
    ENGINE_REFERENCE,
    NoCSimulator,
    SimulatorConfig,
)
from repro.noc.traffic import InjectionSchedule, uniform_random_messages
from repro.routing.policies import POLICIES


def chain_topology(length: int = 4) -> Topology:
    topology = Topology(name="chain")
    for node in range(length - 1):
        topology.add_channel(node, node + 1, length_mm=1.0, bidirectional=True)
    return topology


def chain_simulator(**config_overrides) -> NoCSimulator:
    topology = chain_topology()

    def forward(current, destination):
        return current + 1 if destination > current else current - 1

    return NoCSimulator(topology, forward, config=SimulatorConfig(**config_overrides))


def mesh_simulator(**config_overrides) -> NoCSimulator:
    mesh = MeshTopology(4, 4)
    routing = POLICIES.get("xy").build(mesh).frozen_next_hop()
    return NoCSimulator(mesh, routing, config=SimulatorConfig(**config_overrides))


class TestEngineConfig:
    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError):
            SimulatorConfig(engine="warp")

    def test_engine_info_reports_skipped_cycles(self):
        simulator = chain_simulator(engine=ENGINE_EVENT)
        simulator.schedule_message(Message(0, 3, 32), cycle=100)
        simulator.run_until_drained()
        info = simulator.engine_info()
        assert info["engine"] == ENGINE_EVENT
        assert info["cycles_total"] == simulator.current_cycle
        assert info["cycles_stepped"] + info["cycles_skipped"] == info["cycles_total"]
        # the 100 idle warm-up cycles must not have been executed
        assert info["cycles_skipped"] >= 100

    def test_reference_engine_steps_every_cycle(self):
        simulator = chain_simulator(engine=ENGINE_REFERENCE)
        simulator.schedule_message(Message(0, 3, 32), cycle=50)
        simulator.run_until_drained()
        assert simulator.cycles_stepped == simulator.current_cycle


class TestActiveSetBookkeeping:
    """A router never sleeps while it can make progress."""

    def test_lone_packet_skips_serialization_gaps(self):
        """A single multi-flit packet is only processed at launch/arrival
        cycles; the serialization + pipeline dead time in between is
        skipped — and the packet still arrives."""
        simulator = chain_simulator(engine=ENGINE_EVENT, router_pipeline_delay_cycles=2)
        simulator.schedule_message(Message(0, 3, 32 * 8))  # 8 flits
        simulator.run_until_drained()
        assert simulator.statistics.all_delivered
        assert simulator.cycles_stepped < simulator.current_cycle

    def test_backpressure_wake_on_space(self):
        """With one-packet buffers, every forward depends on the downstream
        pop; only the pop-side wake can keep upstream routers moving."""
        simulator = chain_simulator(engine=ENGINE_EVENT, buffer_capacity_packets=1)
        for _ in range(12):
            simulator.schedule_message(Message(0, 3, 64))
        simulator.run_until_drained()
        assert simulator.statistics.all_delivered

    def test_arbitration_loser_is_rearmed(self):
        """Two sources feeding one ejection port: the round-robin loser must
        wake again by itself (no arrival or channel event helps it)."""
        topology = Topology(name="fan_in")
        topology.add_channel(1, 0, length_mm=1.0)
        topology.add_channel(2, 0, length_mm=1.0)
        simulator = NoCSimulator(
            topology, lambda current, dest: 0, config=SimulatorConfig(engine=ENGINE_EVENT)
        )
        for source in (1, 2):
            for _ in range(3):
                simulator.schedule_message(Message(source, 0, 32))
        simulator.run_until_drained()
        assert simulator.statistics.all_delivered

    def test_no_wake_leaks_after_drain(self):
        """After draining, any leftover speculative wakes must be harmless:
        a fresh run on the same simulator still matches the reference."""
        runs = {}
        for engine in (ENGINE_EVENT, ENGINE_REFERENCE):
            simulator = mesh_simulator(engine=engine)
            simulator.schedule_messages(
                uniform_random_messages(simulator.topology.routers(), 30, seed=3)
            )
            simulator.run_until_drained()
            simulator.schedule_messages(
                uniform_random_messages(simulator.topology.routers(), 30, seed=4)
            )
            simulator.run_until_drained()
            runs[engine] = simulator
        assert runs[ENGINE_EVENT].report() == runs[ENGINE_REFERENCE].report()

    def test_manual_steps_then_event_run(self):
        """Mixing dense step() calls with an event run must not strand the
        packets the steps loaded into the buffers."""
        simulator = mesh_simulator(engine=ENGINE_EVENT)
        simulator.schedule_messages(
            uniform_random_messages(simulator.topology.routers(), 10, seed=9)
        )
        for _ in range(3):
            simulator.step()
        simulator.run_until_drained()
        assert simulator.statistics.all_delivered

    def test_open_loop_schedule_skips_idle_gaps(self):
        simulator = mesh_simulator(engine=ENGINE_EVENT)
        messages = uniform_random_messages(simulator.topology.routers(), 40, seed=1)
        InjectionSchedule.periodic(messages, period_cycles=25, seed=1).schedule_onto(
            simulator
        )
        simulator.run_until_drained()
        assert simulator.statistics.all_delivered
        # the schedule spreads 40 injections over ~1000 cycles; the engine
        # must execute only a fraction of them
        assert simulator.cycles_stepped < simulator.current_cycle / 2


class TestLeakageFinalization:
    """Satellite: `_leakage_charged_until` lives in __init__ and interleaved
    run()/run_until_drained() calls charge leakage exactly once per cycle."""

    def expected_leakage_pj(self, simulator: NoCSimulator) -> float:
        technology = simulator.technology
        return (
            technology.leakage_power_mw_per_router
            * simulator.topology.num_routers
            * simulator.current_cycle
            * technology.cycle_time_ns
        )

    @pytest.mark.parametrize("engine", [ENGINE_EVENT, ENGINE_REFERENCE])
    def test_interleaved_runs_charge_leakage_exactly_once(self, engine):
        simulator = chain_simulator(engine=engine)
        simulator.schedule_message(Message(0, 3, 64))
        simulator.run_until_drained()
        simulator.run(17)  # idle stretch
        simulator.schedule_message(Message(3, 0, 64))
        simulator.run_until_drained()
        simulator.run(5)
        assert simulator.energy.leakage_energy_pj == pytest.approx(
            self.expected_leakage_pj(simulator)
        )

    def test_leakage_state_initialized_in_constructor(self):
        simulator = chain_simulator()
        assert simulator._leakage_charged_until == 0

    def test_manual_step_energy_visible_in_report(self):
        """Traversals from bare step() calls after a finalize must reach the
        next report() — the batched counters may not sit unflushed."""
        simulator = chain_simulator()
        simulator.schedule_message(Message(0, 1, 64))
        simulator.run_until_drained()
        charged = simulator.energy.dynamic_energy_pj
        simulator.schedule_message(Message(1, 0, 64))
        for _ in range(10):
            simulator.step()
        assert simulator.statistics.delivered_count == 2
        report = simulator.report()
        assert simulator.energy.dynamic_energy_pj > charged
        assert report["switch_energy_pj"] == simulator.energy.switch_energy_pj

    def test_repeated_finalize_is_idempotent(self):
        simulator = chain_simulator()
        simulator.schedule_message(Message(0, 2, 64))
        simulator.run_until_drained()
        charged = simulator.energy.leakage_energy_pj
        simulator.run(0)
        simulator.run(0)
        assert simulator.energy.leakage_energy_pj == charged


class TestStuckPacketDiagnostics:
    """Satellite: drain-budget errors name the stuck packets."""

    def stuck_simulator(self, engine: str) -> NoCSimulator:
        topology = chain_topology()
        topology.add_router(99)  # unreachable destination
        simulator = NoCSimulator(
            topology,
            lambda current, dest: current + 1 if current < 3 else current - 1,
            config=SimulatorConfig(engine=engine, max_cycles=60),
        )
        simulator.schedule_message(Message(0, 99, 64))
        return simulator

    @pytest.mark.parametrize("engine", [ENGINE_EVENT, ENGINE_REFERENCE])
    def test_error_names_packet_position_destination_hops(self, engine):
        simulator = self.stuck_simulator(engine)
        with pytest.raises(SimulationError) as excinfo:
            simulator.run_until_drained(max_cycles=40)
        message = str(excinfo.value)
        assert "did not drain within 40 cycles" in message
        assert "#0 at " in message  # packet id + current position
        assert "-> 99" in message  # destination
        assert "hops" in message

    def test_engines_raise_identical_messages(self):
        errors = {}
        for engine in (ENGINE_EVENT, ENGINE_REFERENCE):
            simulator = self.stuck_simulator(engine)
            with pytest.raises(SimulationError) as excinfo:
                simulator.run_until_drained(max_cycles=40)
            errors[engine] = str(excinfo.value)
        assert errors[ENGINE_EVENT] == errors[ENGINE_REFERENCE]

    def test_many_stuck_packets_are_truncated(self):
        topology = chain_topology()
        topology.add_router(99)
        simulator = NoCSimulator(
            topology,
            lambda current, dest: current + 1 if current < 3 else current - 1,
            config=SimulatorConfig(max_cycles=60),
        )
        for _ in range(12):
            simulator.schedule_message(Message(0, 99, 64))
        with pytest.raises(SimulationError) as excinfo:
            simulator.run_until_drained(max_cycles=40)
        assert "more" in str(excinfo.value)
