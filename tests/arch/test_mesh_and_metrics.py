"""Unit tests for the mesh baseline and the topology metrics."""

from __future__ import annotations

import pytest

from repro.arch.mesh import MeshTopology
from repro.arch.metrics import (
    all_pairs_hop_counts,
    average_hop_count,
    bisection_bandwidth,
    diameter,
    hop_counts_from,
    is_strongly_connected,
    topology_report,
)
from repro.arch.topology import Topology
from repro.core.graph import ApplicationGraph
from repro.exceptions import SynthesisError


class TestMeshTopology:
    def test_4x4_mesh_structure(self, mesh_4x4):
        assert mesh_4x4.num_routers == 16
        assert mesh_4x4.num_physical_links == 24  # 2 * 4 * 3
        assert mesh_4x4.num_channels == 48
        assert mesh_4x4.max_degree() == 4

    def test_coordinates_and_node_at(self, mesh_4x4):
        assert mesh_4x4.coordinates(1).row == 0 and mesh_4x4.coordinates(1).column == 0
        assert mesh_4x4.node_at(1, 0) == 5
        assert mesh_4x4.row_of(13) == 3 and mesh_4x4.column_of(13) == 0
        with pytest.raises(SynthesisError):
            mesh_4x4.node_at(9, 9)
        with pytest.raises(SynthesisError):
            mesh_4x4.coordinates(99)

    def test_positions_follow_tile_pitch(self):
        mesh = MeshTopology(2, 3, tile_pitch_mm=1.5)
        assert mesh.position(1).x == pytest.approx(0.0)
        assert mesh.position(3).x == pytest.approx(3.0)
        assert mesh.position(4).y == pytest.approx(1.5)

    def test_manhattan_hops(self, mesh_4x4):
        assert mesh_4x4.manhattan_hops(1, 16) == 6
        assert mesh_4x4.manhattan_hops(1, 2) == 1
        assert mesh_4x4.manhattan_hops(5, 5) == 0

    def test_custom_node_ids(self):
        mesh = MeshTopology(2, 2, node_ids=["a", "b", "c", "d"])
        assert mesh.node_at(0, 0) == "a"
        assert mesh.has_channel("a", "b")

    def test_invalid_parameters(self):
        with pytest.raises(SynthesisError):
            MeshTopology(0, 4)
        with pytest.raises(SynthesisError):
            MeshTopology(2, 2, tile_pitch_mm=0)
        with pytest.raises(SynthesisError):
            MeshTopology(2, 2, node_ids=[1, 2, 3])
        with pytest.raises(SynthesisError):
            MeshTopology(2, 2, node_ids=[1, 1, 2, 3])

    def test_rectangular_mesh(self):
        mesh = MeshTopology(2, 4)
        assert mesh.num_routers == 8
        assert mesh.num_physical_links == 2 * 3 + 4 * 1  # rows + columns


class TestMetrics:
    def test_hop_counts_from(self, mesh_4x4):
        counts = hop_counts_from(mesh_4x4, 1)
        assert counts[1] == 0
        assert counts[16] == 6
        assert len(counts) == 16
        with pytest.raises(SynthesisError):
            hop_counts_from(mesh_4x4, 99)

    def test_all_pairs_and_diameter(self, mesh_4x4):
        pairs = all_pairs_hop_counts(mesh_4x4)
        assert pairs[(1, 16)] == 6
        assert diameter(mesh_4x4) == 6

    def test_strong_connectivity(self, mesh_4x4):
        assert is_strongly_connected(mesh_4x4)
        one_way = Topology()
        one_way.add_channel(1, 2)
        assert not is_strongly_connected(one_way)

    def test_diameter_of_disconnected_topology(self):
        one_way = Topology()
        one_way.add_channel(1, 2)
        assert diameter(one_way) == 1  # reachable pairs only
        with pytest.raises(SynthesisError):
            diameter(one_way, require_strongly_connected=True)

    def test_average_hop_count_uniform(self, mesh_4x4):
        average = average_hop_count(mesh_4x4)
        # known closed form for a 4x4 mesh: 8/3
        assert average == pytest.approx(8.0 / 3.0, rel=1e-6)

    def test_average_hop_count_weighted(self, mesh_4x4):
        traffic = ApplicationGraph.from_traffic({(1, 2): 100.0, (1, 16): 100.0})
        weighted = average_hop_count(mesh_4x4, traffic)
        assert weighted == pytest.approx((1 * 100 + 6 * 100) / 200)

    def test_average_hop_count_unroutable_traffic_raises(self):
        one_way = Topology()
        one_way.add_channel(1, 2)
        traffic = ApplicationGraph.from_traffic({(2, 1): 1.0})
        with pytest.raises(SynthesisError):
            average_hop_count(one_way, traffic)

    def test_bisection_bandwidth_of_mesh(self, mesh_4x4):
        result = bisection_bandwidth(mesh_4x4)
        # cutting the 4x4 mesh in half crosses 4 physical links = 8 channels
        assert result.num_cut_channels == 8
        assert result.bandwidth_bits_per_cycle == pytest.approx(8 * 32.0)
        assert len(result.partition_a) == 8

    def test_bisection_bandwidth_heuristic_path(self):
        mesh = MeshTopology(5, 4)  # 20 routers -> heuristic branch
        result = bisection_bandwidth(mesh, exact_limit=16)
        assert result.bandwidth_bits_per_cycle > 0

    def test_bisection_is_exact_up_to_sixteen_routers(self, mesh_4x4):
        assert bisection_bandwidth(mesh_4x4).exact

    def test_bisection_is_labelled_heuristic_above_sixteen_routers(self):
        line = MeshTopology(1, 17)
        assert line.num_routers == 17
        result = bisection_bandwidth(line)
        assert not result.exact
        assert result.num_cut_channels == 2  # one duplex link at the middle

    def test_bisection_bandwidth_needs_two_routers(self):
        lonely = Topology()
        lonely.add_router(1)
        with pytest.raises(SynthesisError):
            bisection_bandwidth(lonely)

    def test_topology_report(self, mesh_4x4):
        report = topology_report(mesh_4x4)
        data = report.as_dict()
        assert data["num_routers"] == 16
        assert data["diameter"] == 6
        assert data["strongly_connected"] is True
        assert data["total_wire_length_mm"] == pytest.approx(24 * 2.0)

    def test_topology_report_with_traffic(self, mesh_4x4, aes_acg):
        report = topology_report(mesh_4x4, traffic=aes_acg)
        assert report.average_hops_weighted is not None
        assert report.average_hops_weighted > 1.0
