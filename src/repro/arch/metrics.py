"""Topology metrics: diameter, average hop count, bisection bandwidth, wiring.

Section 4.2 of the paper checks the synthesized architecture against the
"availability of wiring resources" by comparing its bisection bandwidth with
the maximum the technology provides, and Section 4.3 argues about the maximum
and average hop counts.  This module computes those figures for any
:class:`~repro.arch.topology.Topology`.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Hashable
from dataclasses import dataclass

from repro.arch.topology import Topology
from repro.core.graph import ApplicationGraph
from repro.exceptions import SynthesisError

NodeId = Hashable


def hop_counts_from(topology: Topology, source: NodeId) -> dict[NodeId, int]:
    """BFS hop counts from ``source`` to every reachable router."""
    if not topology.has_router(source):
        raise SynthesisError(f"{source!r} is not a router of {topology.name!r}")
    distances: dict[NodeId, int] = {source: 0}
    queue: deque[NodeId] = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in topology.neighbors_out(node):
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                queue.append(neighbor)
    return distances


def all_pairs_hop_counts(topology: Topology) -> dict[tuple[NodeId, NodeId], int]:
    """Hop counts between every ordered pair of connected routers."""
    result: dict[tuple[NodeId, NodeId], int] = {}
    for source in topology.routers():
        for target, hops in hop_counts_from(topology, source).items():
            result[(source, target)] = hops
    return result


def is_strongly_connected(topology: Topology) -> bool:
    """True when every router can reach every other router over channels."""
    routers = topology.routers()
    if len(routers) <= 1:
        return True
    return all(len(hop_counts_from(topology, source)) == len(routers) for source in routers)


def diameter(topology: Topology, require_strongly_connected: bool = False) -> int:
    """Longest shortest-path hop count over all *reachable* ordered pairs.

    Customized topologies are not necessarily strongly connected (broadcast
    trees and loops are one-way structures), so by default the diameter is
    taken over reachable pairs only; pass ``require_strongly_connected=True``
    to instead raise when some pair is unreachable.
    """
    routers = topology.routers()
    if len(routers) <= 1:
        return 0
    worst = 0
    for source in routers:
        reachable = hop_counts_from(topology, source)
        if require_strongly_connected and len(reachable) != len(routers):
            raise SynthesisError(f"topology {topology.name!r} is not strongly connected")
        worst = max(worst, max(reachable.values()))
    return worst


def average_hop_count(
    topology: Topology, traffic: ApplicationGraph | None = None
) -> float:
    """Average hop count, uniformly or weighted by an ACG's traffic volumes.

    With ``traffic`` given, the average is weighted by communication volume
    (the quantity that "directly impacts the overall performance" per
    Section 4.3); otherwise all *reachable* ordered router pairs are weighted
    equally.
    """
    pairs = all_pairs_hop_counts(topology)
    if traffic is None:
        distances = [hops for (source, target), hops in pairs.items() if source != target]
        return sum(distances) / len(distances) if distances else 0.0
    weighted = 0.0
    volume_total = 0.0
    for source, target in traffic.edges():
        if (source, target) not in pairs:
            raise SynthesisError(
                f"traffic edge ({source!r} -> {target!r}) is not routable on {topology.name!r}"
            )
        volume = traffic.volume(source, target)
        weighted += volume * pairs[(source, target)]
        volume_total += volume
    return weighted / volume_total if volume_total else 0.0


@dataclass(frozen=True)
class BisectionResult:
    """Result of a bisection-bandwidth computation."""

    bandwidth_bits_per_cycle: float
    partition_a: frozenset
    partition_b: frozenset
    num_cut_channels: int
    exact: bool
    """True when every balanced bipartition was enumerated (at most
    ``exact_limit`` routers); False for the coordinate-sweep estimate."""


def bisection_bandwidth(topology: Topology, exact_limit: int = 16) -> BisectionResult:
    """Minimum bandwidth crossing a balanced bipartition of the routers.

    For up to ``exact_limit`` routers every balanced bipartition is
    enumerated (exact); beyond that a coordinate-sweep heuristic is used
    (sort by x then by y and cut in the middle), which is exact for meshes
    and a good estimate for floorplan-derived customized topologies.
    """
    routers = topology.routers()
    count = len(routers)
    if count < 2:
        raise SynthesisError("bisection bandwidth needs at least two routers")
    half = count // 2

    def cut_bandwidth(part_a: set[NodeId]) -> tuple[float, int]:
        bandwidth = 0.0
        cut_channels = 0
        for channel in topology.channels():
            if (channel.source in part_a) != (channel.target in part_a):
                bandwidth += float(channel.bandwidth_bits_per_cycle or 0.0)
                cut_channels += 1
        return bandwidth, cut_channels

    best: BisectionResult | None = None
    if count <= exact_limit:
        indexed = list(routers)
        for combo in itertools.combinations(indexed, half):
            part_a = set(combo)
            bandwidth, cut_channels = cut_bandwidth(part_a)
            if best is None or bandwidth < best.bandwidth_bits_per_cycle:
                best = BisectionResult(
                    bandwidth_bits_per_cycle=bandwidth,
                    partition_a=frozenset(part_a),
                    partition_b=frozenset(set(routers) - part_a),
                    num_cut_channels=cut_channels,
                    exact=True,
                )
        assert best is not None
        return best

    # heuristic: axis-aligned sweeps
    candidates: list[set[NodeId]] = []
    if all(topology.has_position(node) for node in routers):
        by_x = sorted(routers, key=lambda n: (topology.position(n).x, topology.position(n).y))
        by_y = sorted(routers, key=lambda n: (topology.position(n).y, topology.position(n).x))
        candidates.append(set(by_x[:half]))
        candidates.append(set(by_y[:half]))
    candidates.append(set(list(routers)[:half]))
    for part_a in candidates:
        bandwidth, cut_channels = cut_bandwidth(part_a)
        if best is None or bandwidth < best.bandwidth_bits_per_cycle:
            best = BisectionResult(
                bandwidth_bits_per_cycle=bandwidth,
                partition_a=frozenset(part_a),
                partition_b=frozenset(set(routers) - part_a),
                num_cut_channels=cut_channels,
                exact=False,
            )
    assert best is not None
    return best


@dataclass(frozen=True)
class TopologyReport:
    """Summary of the structural metrics of one architecture."""

    name: str
    num_routers: int
    num_channels: int
    num_physical_links: int
    max_degree: int
    diameter: int
    average_hops_uniform: float
    average_hops_weighted: float | None
    bisection_bandwidth: float
    total_wire_length_mm: float
    strongly_connected: bool

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "num_routers": self.num_routers,
            "num_channels": self.num_channels,
            "num_physical_links": self.num_physical_links,
            "max_degree": self.max_degree,
            "diameter": self.diameter,
            "average_hops_uniform": self.average_hops_uniform,
            "average_hops_weighted": self.average_hops_weighted,
            "bisection_bandwidth": self.bisection_bandwidth,
            "total_wire_length_mm": self.total_wire_length_mm,
            "strongly_connected": self.strongly_connected,
        }


def topology_report(
    topology: Topology, traffic: ApplicationGraph | None = None
) -> TopologyReport:
    """Compute the full structural report for one topology."""
    weighted = average_hop_count(topology, traffic) if traffic is not None else None
    return TopologyReport(
        name=topology.name,
        num_routers=topology.num_routers,
        num_channels=topology.num_channels,
        num_physical_links=topology.num_physical_links,
        max_degree=topology.max_degree(),
        diameter=diameter(topology),
        average_hops_uniform=average_hop_count(topology),
        average_hops_weighted=weighted,
        bisection_bandwidth=bisection_bandwidth(topology).bandwidth_bits_per_cycle,
        total_wire_length_mm=topology.total_wire_length_mm(),
        strongly_connected=is_strongly_connected(topology),
    )
