"""Unit and behaviour tests for the cycle-based NoC simulator."""

from __future__ import annotations

import pytest

from repro.arch.topology import Topology
from repro.exceptions import SimulationError
from repro.noc.packet import Message
from repro.noc.simulator import NoCSimulator, SimulatorConfig
from repro.noc.stats import SimulationStatistics, throughput_mbps_from_cycles
from repro.routing.policies import POLICIES


def two_node_topology(length_mm: float = 2.0) -> Topology:
    topology = Topology(name="pair")
    topology.add_channel(1, 2, length_mm=length_mm, bidirectional=True)
    return topology


def pair_simulator(**config_overrides) -> NoCSimulator:
    topology = two_node_topology()
    config = SimulatorConfig(**config_overrides)
    return NoCSimulator(topology, lambda current, dest: dest, config=config)


def mesh_simulator(mesh, **config_overrides) -> NoCSimulator:
    config = SimulatorConfig(**config_overrides)
    return NoCSimulator(mesh, POLICIES.get("xy").build(mesh).frozen_next_hop(), config=config)


class TestBasicDelivery:
    def test_single_packet_delivered(self):
        simulator = pair_simulator()
        simulator.schedule_message(Message(1, 2, 32))
        simulator.run_until_drained()
        stats = simulator.statistics
        assert stats.delivered_count == 1
        assert stats.all_delivered
        packet = stats.delivered_packets[0]
        assert packet.path == [1, 2]
        assert packet.hops == 1

    def test_single_hop_latency_formula(self):
        """One hop = serialization (1 flit) + pipeline delay + arbitration/ejection."""
        simulator = pair_simulator(router_pipeline_delay_cycles=1)
        simulator.schedule_message(Message(1, 2, 32))
        simulator.run_until_drained()
        latency = simulator.statistics.delivered_packets[0].latency
        assert 2 <= latency <= 4

    def test_larger_packets_take_longer(self):
        quick = pair_simulator()
        quick.schedule_message(Message(1, 2, 32))
        quick.run_until_drained()
        slow = pair_simulator()
        slow.schedule_message(Message(1, 2, 32 * 8))  # 8 flits
        slow.run_until_drained()
        assert (
            slow.statistics.delivered_packets[0].latency
            > quick.statistics.delivered_packets[0].latency
        )

    def test_multi_hop_xy_delivery(self, mesh_4x4):
        simulator = mesh_simulator(mesh_4x4)
        simulator.schedule_message(Message(1, 16, 64))
        simulator.run_until_drained()
        packet = simulator.statistics.delivered_packets[0]
        assert packet.hops == 6
        assert packet.path[0] == 1 and packet.path[-1] == 16

    def test_scheduling_validation(self):
        simulator = pair_simulator()
        with pytest.raises(SimulationError):
            simulator.schedule_message(Message(1, 99, 8))
        with pytest.raises(SimulationError):
            simulator.schedule_message(Message(1, 2, 8), cycle=-1)

    def test_run_until_drained_detects_stuck_network(self):
        # routing function sends packets back and forth forever
        topology = two_node_topology()
        simulator = NoCSimulator(
            topology,
            lambda current, dest: 2 if current == 1 else 1,
            config=SimulatorConfig(max_cycles=200),
        )
        simulator.schedule_message(Message(1, 2, 8))
        # destination 2: router 2 forwards to 1, router 1 forwards to 2, ... but
        # delivery happens when the packet *is at* its destination, so craft a
        # destination that is never reached by routing to the wrong node.
        simulator.network.routing = lambda current, dest: 2 if current == 1 else 1
        # make the packet target a third, unreachable router
        topology.add_router(3)
        simulator.schedule_message(Message(1, 3, 8))
        with pytest.raises(SimulationError):
            simulator.run_until_drained(max_cycles=50)


class TestContentionAndBackpressure:
    def test_contention_serializes_on_shared_link(self):
        topology = two_node_topology()
        simulator = NoCSimulator(topology, lambda c, d: d)
        for _ in range(8):
            simulator.schedule_message(Message(1, 2, 32))
        simulator.run_until_drained()
        latencies = sorted(p.latency for p in simulator.statistics.delivered_packets)
        assert latencies[-1] > latencies[0]  # later packets waited for the link

    def test_bounded_buffers_respected(self, mesh_4x4):
        simulator = mesh_simulator(mesh_4x4, buffer_capacity_packets=1)
        for _ in range(20):
            simulator.schedule_message(Message(1, 16, 64))
        simulator.run_until_drained()
        assert simulator.statistics.delivered_count == 20

    def test_channel_utilization_recorded(self):
        simulator = pair_simulator()
        for _ in range(4):
            simulator.schedule_message(Message(1, 2, 32))
        simulator.run_until_drained()
        utilization = simulator.statistics.channel_utilization()
        assert utilization[(1, 2)] > 0.0
        assert simulator.statistics.max_channel_utilization() <= 1.0


class TestEnergyAccounting:
    def test_energy_scales_with_hops(self, mesh_4x4):
        near = mesh_simulator(mesh_4x4)
        near.schedule_message(Message(1, 2, 64))
        near.run_until_drained()
        far = mesh_simulator(mesh_4x4)
        far.schedule_message(Message(1, 16, 64))
        far.run_until_drained()
        assert far.energy.dynamic_energy_pj > near.energy.dynamic_energy_pj

    def test_leakage_disabled(self):
        simulator = pair_simulator(charge_leakage=False)
        simulator.schedule_message(Message(1, 2, 8))
        simulator.run_until_drained()
        assert simulator.energy.leakage_energy_pj == 0.0

    def test_report_contains_power_and_energy(self):
        simulator = pair_simulator()
        simulator.schedule_message(Message(1, 2, 8))
        simulator.run_until_drained()
        report = simulator.report()
        assert report["average_power_mw"] > 0
        assert report["total_energy_uj"] > 0
        assert report["delivered"] == 1


def run_phase(simulator: NoCSimulator, phase, computation_cycles: int = 0) -> int:
    """Inject one phase, drain it, idle; return the phase's cycles."""
    start = simulator.current_cycle
    simulator.schedule_messages(phase)
    simulator.run_until_drained()
    if computation_cycles:
        simulator.run(computation_cycles)
    return simulator.current_cycle - start


class TestPhasedExecution:
    def test_phases_run_sequentially(self):
        simulator = pair_simulator()
        phases = [[Message(1, 2, 32)], [Message(2, 1, 32)], [Message(1, 2, 32)]]
        durations = [run_phase(simulator, phase) for phase in phases]
        assert len(durations) == 3
        assert simulator.statistics.delivered_count == 3
        assert sum(durations) == simulator.statistics.total_cycles

    def test_computation_cycles_extend_phases(self):
        fast = run_phase(pair_simulator(), [Message(1, 2, 32)])
        slow = run_phase(pair_simulator(), [Message(1, 2, 32)], computation_cycles=10)
        assert slow == fast + 10


class TestStatisticsObject:
    def test_statistics_require_deliveries(self):
        stats = SimulationStatistics()
        with pytest.raises(SimulationError):
            stats.average_latency_cycles()
        with pytest.raises(SimulationError):
            stats.throughput_bits_per_cycle()

    def test_throughput_formula_matches_paper(self):
        assert throughput_mbps_from_cycles(128, 271, 100.0) == pytest.approx(47.2, abs=0.05)
        assert throughput_mbps_from_cycles(128, 199, 100.0) == pytest.approx(64.3, abs=0.05)
        with pytest.raises(SimulationError):
            throughput_mbps_from_cycles(128, 0, 100.0)

    def test_summary_consistency(self):
        simulator = pair_simulator()
        simulator.schedule_message(Message(1, 2, 32))
        simulator.run_until_drained()
        summary = simulator.statistics.summary()
        assert summary["delivered"] == summary["injected"] == 1
        assert summary["average_hops"] == 1.0
