"""Unit tests for the routing-policy registry (repro.routing.policies)."""

from __future__ import annotations

import pytest

from repro.arch.families import (
    FatTreeTopology,
    LongRangeMeshTopology,
    RingTopology,
    SpidergonTopology,
    TorusTopology,
)
from repro.arch.mesh import MeshTopology
from repro.arch.topology import Topology
from repro.exceptions import ConfigurationError, RoutingError
from repro.routing.deadlock import analyze_deadlock
from repro.routing.policies import POLICIES, build_policy_table, supported_policies


def _all_pairs(topology: Topology):
    routers = topology.routers()
    return [(s, d) for s in routers for d in routers if s != d]


class TestRegistry:
    def test_builtin_policies_registered(self):
        assert {
            "xy",
            "yx",
            "west_first",
            "odd_even",
            "dateline",
            "up_down",
            "shortest_path",
        } <= set(POLICIES.names())

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            POLICIES.get("fully_adaptive")

    def test_supported_policies_per_family(self):
        assert "xy" in supported_policies(MeshTopology(4, 4))
        assert "xy" not in supported_policies(RingTopology([1, 2, 3, 4]))
        assert "dateline" in supported_policies(TorusTopology(4, 4))
        assert "dateline" not in supported_policies(MeshTopology(4, 4))
        generic = supported_policies(FatTreeTopology(list(range(8))))
        assert {"up_down", "shortest_path"} <= set(generic)

    def test_unsupported_build_raises_routing_error(self):
        with pytest.raises(RoutingError):
            build_policy_table("xy", RingTopology([1, 2, 3, 4]))


class TestGridPolicies:
    def test_yx_differs_from_xy_but_is_minimal(self):
        mesh = MeshTopology(4, 4)
        xy = build_policy_table("xy", mesh)
        yx = build_policy_table("yx", mesh)
        assert xy.entries() != yx.entries()
        # node 1 (0,0) to node 16 (3,3): XY goes east first, YX south first
        assert xy.next_hop(1, 16) == 2
        assert yx.next_hop(1, 16) == 5
        for source, destination in _all_pairs(mesh):
            assert len(yx.route(source, destination)) - 1 == mesh.manhattan_hops(
                source, destination
            )

    @pytest.mark.parametrize("policy", ["west_first", "odd_even"])
    def test_turn_model_policies_are_minimal_and_deadlock_free(self, policy):
        mesh = MeshTopology(4, 5)
        table = build_policy_table(policy, mesh)
        pairs = _all_pairs(mesh)
        for source, destination in pairs:
            assert len(table.route(source, destination)) - 1 == mesh.manhattan_hops(
                source, destination
            )
        assert analyze_deadlock(table, pairs).is_deadlock_free

    def test_west_first_routes_westbound_column_first(self):
        mesh = MeshTopology(4, 4)
        table = build_policy_table("west_first", mesh)
        # node 16 (3,3) -> node 1 (0,0): west first along the row
        assert table.route(16, 1)[:4] == [16, 15, 14, 13]
        # node 13 (3,0) -> node 4 (0,3): eastbound goes rows first
        assert table.route(13, 4)[:4] == [13, 9, 5, 1]

    def test_odd_even_flushes_vertical_offset_at_odd_columns(self):
        mesh = MeshTopology(4, 4)
        table = build_policy_table("odd_even", mesh)
        # node 1 (0,0) -> node 14 (3,1): east to odd column 1, then south
        assert table.route(1, 14) == [1, 2, 6, 10, 14]
        # node 1 (0,0) -> node 15 (3,2): vertical offset flushed at column 1
        assert table.route(1, 15) == [1, 2, 6, 10, 14, 15]

    def test_grid_policies_work_on_grid_subclasses(self):
        for fabric in (TorusTopology(4, 4), LongRangeMeshTopology(4, 4)):
            table = build_policy_table("xy", fabric)
            pairs = _all_pairs(fabric)
            for source, destination in pairs:
                assert table.route(source, destination)[-1] == destination
            assert analyze_deadlock(table, pairs).is_deadlock_free


class TestDateline:
    def test_minimal_on_the_torus(self):
        torus = TorusTopology(4, 4)
        table = build_policy_table("dateline", torus)
        for source, destination in _all_pairs(torus):
            assert len(table.route(source, destination)) - 1 == torus.torus_hops(
                source, destination
            )

    def test_ring_shortest_direction(self):
        ring = RingTopology(list(range(8)))
        table = build_policy_table("dateline", ring)
        for source, destination in _all_pairs(ring):
            assert len(table.route(source, destination)) - 1 == ring.ring_hops(
                source, destination
            )

    def test_needs_vcs_on_full_wrap_traffic(self):
        torus = TorusTopology(4, 4)
        table = build_policy_table("dateline", torus)
        report = analyze_deadlock(table, _all_pairs(torus))
        assert not report.is_deadlock_free
        assert report.channels_needing_virtual_channels


class TestUpDownAndShortestPath:
    @pytest.mark.parametrize(
        "fabric_factory",
        [
            lambda: MeshTopology(4, 4),
            lambda: TorusTopology(3, 4),
            lambda: RingTopology(list(range(9))),
            lambda: SpidergonTopology(list(range(10))),
            lambda: FatTreeTopology(list(range(16))),
            lambda: LongRangeMeshTopology(4, 4),
        ],
    )
    def test_up_down_routes_everywhere_deadlock_free(self, fabric_factory):
        fabric = fabric_factory()
        table = build_policy_table("up_down", fabric)
        pairs = _all_pairs(fabric)
        for source, destination in pairs:
            path = table.route(source, destination)
            assert path[0] == source and path[-1] == destination
        assert analyze_deadlock(table, pairs).is_deadlock_free

    def test_up_down_is_minimal_on_trees(self):
        from repro.routing.shortest_path import bfs_shortest_path

        tree = FatTreeTopology(list(range(16)))
        table = build_policy_table("up_down", tree)
        for source, destination in _all_pairs(tree):
            got = len(table.route(source, destination)) - 1
            want = len(bfs_shortest_path(tree, source, destination)) - 1
            assert got == want

    def test_shortest_path_is_consistent_across_sources(self):
        """Destination-rooted trees: all sources agree on each router's hop."""
        fabric = SpidergonTopology(list(range(8)))
        table = build_policy_table("shortest_path", fabric)
        for source, destination in _all_pairs(fabric):
            path = table.route(source, destination)
            # every suffix of a routed path is itself the routed path
            for start in range(1, len(path) - 1):
                assert table.route(path[start], destination) == path[start:]

    def test_up_down_rejects_disconnected_fabrics(self):
        topology = Topology(name="islands")
        topology.add_channel(1, 2, bidirectional=True)
        topology.add_channel(3, 4, bidirectional=True)
        with pytest.raises(RoutingError):
            build_policy_table("up_down", topology)

    def test_partial_pairs_only_install_needed_routes(self):
        mesh = MeshTopology(3, 3)
        table = build_policy_table("shortest_path", mesh, pairs=[(1, 9)])
        assert table.route(1, 9)[-1] == 9
        assert not table.has_route(9, 1)
