"""Routing substrate: shortest paths, table routing, the routing-policy
registry (XY/YX, turn models, dateline, up*/down*, shortest path) and
deadlock analysis."""

from repro.routing.deadlock import (
    DeadlockReport,
    analyze_deadlock,
    assert_deadlock_free,
    build_channel_dependency_graph,
)
from repro.routing.policies import (
    POLICIES,
    PolicySpec,
    build_policy_table,
    register_policy,
    supported_policies,
)
from repro.routing.shortest_path import (
    all_pairs_shortest_paths,
    bfs_shortest_path,
    dijkstra_shortest_path,
    path_length_mm,
)
from repro.routing.table import RoutingTable

__all__ = [
    "RoutingTable",
    "POLICIES",
    "PolicySpec",
    "register_policy",
    "build_policy_table",
    "supported_policies",
    "bfs_shortest_path",
    "dijkstra_shortest_path",
    "all_pairs_shortest_paths",
    "path_length_mm",
    "DeadlockReport",
    "analyze_deadlock",
    "assert_deadlock_free",
    "build_channel_dependency_graph",
]
