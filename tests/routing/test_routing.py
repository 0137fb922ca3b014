"""Unit tests for shortest paths, table routing, XY routing and deadlock analysis."""

from __future__ import annotations

import pytest

from repro.arch.topology import Topology
from repro.exceptions import DeadlockError, RoutingError
from repro.routing.deadlock import (
    analyze_deadlock,
    assert_deadlock_free,
    build_channel_dependency_graph,
)
from repro.routing.policies import POLICIES
from repro.routing.shortest_path import (
    all_pairs_shortest_paths,
    bfs_shortest_path,
    dijkstra_shortest_path,
    path_length_mm,
)
from repro.routing.table import RoutingTable


@pytest.fixture()
def ring_topology() -> Topology:
    """A unidirectional 4-ring plus a long shortcut 1 -> 3."""
    topology = Topology(name="ring")
    for a, b in ((1, 2), (2, 3), (3, 4), (4, 1)):
        topology.add_channel(a, b, length_mm=1.0)
    topology.add_channel(1, 3, length_mm=10.0)
    return topology


class TestShortestPaths:
    def test_bfs_shortest_path(self, ring_topology):
        assert bfs_shortest_path(ring_topology, 1, 3) == [1, 3]  # fewest hops
        assert bfs_shortest_path(ring_topology, 2, 1) == [2, 3, 4, 1]
        assert bfs_shortest_path(ring_topology, 2, 2) == [2]

    def test_bfs_unroutable_raises(self):
        topology = Topology()
        topology.add_channel(1, 2)
        with pytest.raises(RoutingError):
            bfs_shortest_path(topology, 2, 1)
        with pytest.raises(RoutingError):
            bfs_shortest_path(topology, 1, 99)

    def test_dijkstra_minimises_wire_length(self, ring_topology):
        # by hops 1->3 is direct, but by length the two-hop route is cheaper
        assert dijkstra_shortest_path(ring_topology, 1, 3, weight="length_mm") == [1, 2, 3]
        assert dijkstra_shortest_path(ring_topology, 1, 3, weight="hops") == [1, 3]
        with pytest.raises(RoutingError):
            dijkstra_shortest_path(ring_topology, 1, 3, weight="bogus")

    def test_all_pairs(self, ring_topology):
        paths = all_pairs_shortest_paths(ring_topology)
        assert len(paths) == 4 * 3  # ordered pairs of the four routers
        assert paths[(4, 1)] == [4, 1]

    def test_path_length(self, ring_topology):
        assert path_length_mm(ring_topology, [1, 2, 3]) == pytest.approx(2.0)
        assert path_length_mm(ring_topology, [1, 3]) == pytest.approx(10.0)


class TestRoutingTable:
    def test_set_and_follow_next_hops(self, ring_topology):
        table = RoutingTable(ring_topology)
        table.install_path([1, 2, 3])
        assert table.next_hop(1, 3) == 2
        assert table.route(1, 3) == [1, 2, 3]
        assert table.has_route(1, 3) and not table.has_route(3, 1)
        assert table.has_route(2, 2)  # trivially at destination

    def test_invalid_entries_rejected(self, ring_topology):
        table = RoutingTable(ring_topology)
        with pytest.raises(RoutingError):
            table.set_next_hop(1, 3, 4)  # no channel 1 -> 4
        with pytest.raises(RoutingError):
            table.set_next_hop(99, 3, 2)
        table.set_next_hop(1, 3, 2)
        with pytest.raises(RoutingError):
            table.set_next_hop(1, 3, 3)  # conflicting entry
        table.set_next_hop(1, 3, 2)  # same entry is fine

    def test_missing_route_raises(self, ring_topology):
        table = RoutingTable(ring_topology)
        with pytest.raises(RoutingError):
            table.next_hop(1, 3)
        with pytest.raises(RoutingError):
            table.next_hop(1, 1)

    def test_routing_loop_detected(self, ring_topology):
        table = RoutingTable(ring_topology)
        # 1 -> 2 -> 3 -> 4 -> 1 ... never reaches "destination 99"? use dest 3 with a loop
        table.set_next_hop(1, 3, 2)
        table.set_next_hop(2, 3, 3)
        # craft a loop for destination 4
        table.set_next_hop(1, 4, 2)
        table.set_next_hop(2, 4, 3)
        table.set_next_hop(3, 4, 4)
        assert table.route(1, 4) == [1, 2, 3, 4]

    def test_merge_and_entries(self, ring_topology):
        first = RoutingTable(ring_topology)
        first.install_path([1, 2])
        second = RoutingTable(ring_topology)
        second.install_path([2, 3])
        first.merge(second)
        assert first.num_entries == 2
        assert (2, 3) in first.entries()

    def test_validate_pairs(self, ring_topology):
        table = RoutingTable(ring_topology)
        table.install_path([1, 2, 3])
        table.validate_pairs([(1, 3)])
        with pytest.raises(RoutingError):
            table.validate_pairs([(3, 1)])

    def test_used_channels_and_describe(self, ring_topology):
        table = RoutingTable(ring_topology)
        table.install_path([1, 2, 3])
        assert table.used_channels() == {(1, 2), (2, 3)}
        assert "via" in table.describe()


def xy_table(mesh, pairs=None) -> RoutingTable:
    return POLICIES.get("xy").build(mesh, pairs)


class TestXYRouting:
    def test_next_hop_moves_along_x_first(self, mesh_4x4):
        table = xy_table(mesh_4x4)
        # node 1 is (0,0), node 16 is (3,3): go east first
        assert table.next_hop(1, 16) == 2
        # aligned in column -> go south
        assert table.next_hop(1, 13) == 5
        with pytest.raises(RoutingError):
            table.next_hop(1, 1)

    def test_route_has_manhattan_length(self, mesh_4x4):
        route = xy_table(mesh_4x4).route(1, 16)
        assert len(route) - 1 == mesh_4x4.manhattan_hops(1, 16)
        assert route[0] == 1 and route[-1] == 16

    def test_full_table_is_complete_and_deadlock_free(self, mesh_4x4):
        table = xy_table(mesh_4x4)
        pairs = [(s, d) for s in mesh_4x4.routers() for d in mesh_4x4.routers() if s != d]
        table.validate_pairs(pairs)
        report = analyze_deadlock(table, pairs)
        assert report.is_deadlock_free

    def test_partial_table(self, mesh_4x4):
        table = xy_table(mesh_4x4, pairs=[(1, 16)])
        assert table.route(1, 16)[-1] == 16
        assert not table.has_route(16, 1)


class TestDeadlockAnalysis:
    def _cyclic_table(self):
        """Routing around a unidirectional ring creates a CDG cycle."""
        topology = Topology(name="cycle")
        for a, b in ((1, 2), (2, 3), (3, 4), (4, 1)):
            topology.add_channel(a, b)
        table = RoutingTable(topology)
        # every node routes 2 hops ahead around the ring
        for start in (1, 2, 3, 4):
            nodes = [(start + offset - 1) % 4 + 1 for offset in range(3)]
            table.install_path(nodes)
        pairs = [(start, (start + 1) % 4 + 1) for start in (1, 2, 3, 4)]
        return table, pairs

    def test_cdg_construction(self, mesh_4x4):
        table = xy_table(mesh_4x4, pairs=[(1, 16)])
        cdg = build_channel_dependency_graph(table, [(1, 16)])
        assert cdg.num_nodes == 6  # six channels on the 6-hop route
        assert cdg.num_edges == 5

    def test_cycle_detected_on_ring_routing(self):
        table, pairs = self._cyclic_table()
        report = analyze_deadlock(table, pairs)
        assert not report.is_deadlock_free
        assert len(report.cycle) >= 2
        assert report.channels_needing_virtual_channels
        assert "NOT deadlock-free" in report.describe()

    def test_assert_deadlock_free_raises(self):
        table, pairs = self._cyclic_table()
        with pytest.raises(DeadlockError):
            assert_deadlock_free(table, pairs)

    def test_deadlock_free_report_describes_itself(self, mesh_4x4):
        table = xy_table(mesh_4x4, pairs=[(1, 16), (16, 1)])
        report = analyze_deadlock(table, [(1, 16), (16, 1)])
        assert report.is_deadlock_free
        assert "deadlock-free" in report.describe()

    def test_aes_custom_routing_is_deadlock_free(self, aes_synthesis):
        report = aes_synthesis.architecture.deadlock_report
        assert report is not None
        assert report.is_deadlock_free


class TestVirtualChannelHeuristic:
    """The greedy feedback-edge heuristic must actually break every cycle."""

    def _ring_with_naive_shortest_path(self, size: int = 8):
        """A bidirectional ring routed by naive shortest-path: the two
        directed rotation cycles make the all-pairs CDG cyclic."""
        from repro.arch.families import RingTopology
        from repro.routing.policies import build_policy_table

        ring = RingTopology(list(range(1, size + 1)))
        table = build_policy_table("shortest_path", ring)
        pairs = [(s, d) for s in ring.routers() for d in ring.routers() if s != d]
        return table, pairs

    def test_ring_cdg_is_cyclic_and_channels_are_reported(self):
        table, pairs = self._ring_with_naive_shortest_path()
        report = analyze_deadlock(table, pairs)
        assert not report.is_deadlock_free
        assert report.channels_needing_virtual_channels
        # a ring has (at least) one dependency cycle per rotation direction
        assert len(report.channels_needing_virtual_channels) >= 2

    def test_chosen_channels_break_every_cycle(self):
        """Duplicating exactly the returned channels (modelled as removing
        their CDG vertices: traffic moves to the fresh virtual channel)
        must leave the dependency graph acyclic."""
        table, pairs = self._ring_with_naive_shortest_path()
        report = analyze_deadlock(table, pairs)
        cdg = build_channel_dependency_graph(table, pairs)
        assert cdg.find_cycle() is not None
        for channel in report.channels_needing_virtual_channels:
            cdg.remove_node(channel)
        assert cdg.find_cycle() is None

    def test_chosen_channels_break_cycles_on_a_torus_dateline(self):
        """Same contract on a 2-D wraparound fabric under dateline routing."""
        from repro.arch.families import TorusTopology
        from repro.routing.policies import build_policy_table

        torus = TorusTopology(4, 4)
        table = build_policy_table("dateline", torus)
        pairs = [(s, d) for s in torus.routers() for d in torus.routers() if s != d]
        report = analyze_deadlock(table, pairs)
        assert not report.is_deadlock_free
        cdg = build_channel_dependency_graph(table, pairs)
        for channel in report.channels_needing_virtual_channels:
            cdg.remove_node(channel)
        assert cdg.find_cycle() is None
