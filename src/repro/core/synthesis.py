"""Topology synthesis: from a decomposition to a customized architecture.

This is the "gluing" step of Section 3: the implementation graphs of all
chosen primitives are instantiated on the cores the matchings bound them to,
their links merged into a single customized topology, the remainder edges
added as direct point-to-point links, a routing table generated from the
primitives' optimal schedules (Section 4.5), and the design constraints of
Section 4.2 checked on the result.

The high-level entry point is :class:`TopologySynthesizer` (or the
:func:`synthesize_architecture` convenience function), which packages
everything a downstream user needs into a :class:`SynthesizedArchitecture`:
the topology, the routing table, the constraint report, the deadlock report,
and the decomposition it was built from.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass

from repro.arch.custom import ChannelOrigin, CustomTopology
from repro.core.constraints import ConstraintChecker, ConstraintReport, DesignConstraints
from repro.core.decomposition import DecompositionResult
from repro.core.graph import ApplicationGraph
from repro.core.routing_table import build_routing_table
from repro.exceptions import SynthesisError
from repro.routing.deadlock import DeadlockReport, analyze_deadlock
from repro.routing.table import RoutingTable

NodeId = Hashable

#: length of a link whose endpoints have no floorplan position
DEFAULT_LINK_LENGTH_MM = 2.0


@dataclass
class SynthesisOptions:
    """Options controlling how the customized architecture is assembled."""

    flit_width_bits: int = 32
    bidirectional_links: bool = False
    """Instantiate every primitive link as a full-duplex channel pair.

    The default (False) instantiates exactly the directed channels of the
    primitives' implementation graphs — gossip graphs already contain both
    directions (their schedules are exchanges) while loops, paths and
    broadcast trees are inherently one-way.  Setting this to True forces a
    full-duplex pair for every link, which adds wiring but makes every
    synthesized topology strongly connected.
    """
    fill_all_pairs_routing: bool = False


@dataclass
class SynthesizedArchitecture:
    """Everything the synthesis flow produces for one application."""

    acg: ApplicationGraph
    decomposition: DecompositionResult
    topology: CustomTopology
    routing_table: RoutingTable
    constraint_report: ConstraintReport
    deadlock_report: DeadlockReport

    @property
    def is_feasible(self) -> bool:
        """True when the design constraints hold and the routing is deadlock-free."""
        return self.constraint_report.satisfied and self.deadlock_report.is_deadlock_free

    def describe(self) -> str:
        """Multi-line human-readable summary of the synthesized design."""
        lines = [
            f"Synthesized architecture for {self.acg.name or 'application'!s}",
            f"  primitives used: {self.decomposition.primitives_used()}",
            f"  remainder edges: {self.decomposition.remainder.num_edges}",
            f"  routers: {self.topology.num_routers}, physical links: "
            f"{self.topology.num_physical_links}",
            f"  routing entries: {self.routing_table.num_entries}",
            f"  constraints: {self.constraint_report.describe()}",
            f"  deadlock: {self.deadlock_report.describe()}",
        ]
        return "\n".join(lines)


class TopologySynthesizer:
    """Glues a decomposition into a customized topology and routing table."""

    def __init__(
        self,
        options: SynthesisOptions | None = None,
        constraints: DesignConstraints | None = None,
    ) -> None:
        self.options = options or SynthesisOptions()
        self.constraints = constraints or DesignConstraints()

    # ------------------------------------------------------------------
    # individual steps
    # ------------------------------------------------------------------
    def build_topology(
        self, acg: ApplicationGraph, decomposition: DecompositionResult
    ) -> CustomTopology:
        """Instantiate primitive implementation links + remainder links."""
        name = f"custom_{acg.name}" if acg.name else "custom"
        topology = CustomTopology(name=name, flit_width_bits=self.options.flit_width_bits)

        for node in acg.nodes():
            if acg.has_position(node):
                position = acg.position(node)
                topology.add_router(node, position.x, position.y)
            else:
                topology.add_router(node)

        for index, matching in enumerate(decomposition.matchings):
            origin = ChannelOrigin(kind="primitive", label=f"{matching.primitive.name}#{index}")
            for source, target in matching.implementation_links():
                length = self._link_length(acg, source, target)
                topology.add_channel_with_origin(
                    source,
                    target,
                    origin,
                    length_mm=length,
                    bidirectional=self.options.bidirectional_links,
                )

        remainder_origin = ChannelOrigin(kind="remainder", label="remainder")
        for source, target in decomposition.remainder.edges():
            length = self._link_length(acg, source, target)
            topology.add_channel_with_origin(
                source, target, remainder_origin, length_mm=length, bidirectional=False
            )

        if topology.num_channels == 0 and acg.num_edges > 0:
            raise SynthesisError(
                "synthesis produced no channels although the application communicates"
            )
        return topology

    def _link_length(self, acg: ApplicationGraph, source: NodeId, target: NodeId) -> float:
        if acg.has_position(source) and acg.has_position(target):
            return acg.link_length(source, target)
        return DEFAULT_LINK_LENGTH_MM

    def route(
        self, acg: ApplicationGraph, decomposition: DecompositionResult, topology: CustomTopology
    ) -> SynthesizedArchitecture:
        """Routing table + constraint and deadlock checks over a built topology."""
        table = build_routing_table(
            decomposition, topology, fill_all_pairs=self.options.fill_all_pairs_routing
        )
        return SynthesizedArchitecture(
            acg=acg,
            decomposition=decomposition,
            topology=topology,
            routing_table=table,
            constraint_report=ConstraintChecker(self.constraints).check(topology, table, acg),
            deadlock_report=analyze_deadlock(table, acg.edges()),
        )

    # ------------------------------------------------------------------
    # full flow
    # ------------------------------------------------------------------
    def synthesize(
        self, acg: ApplicationGraph, decomposition: DecompositionResult
    ) -> SynthesizedArchitecture:
        """Topology + routing + constraint and deadlock checks."""
        return self.route(acg, decomposition, self.build_topology(acg, decomposition))


def synthesize_architecture(
    acg: ApplicationGraph,
    decomposition: DecompositionResult,
    options: SynthesisOptions | None = None,
    constraints: DesignConstraints | None = None,
) -> SynthesizedArchitecture:
    """Module-level convenience wrapper around :class:`TopologySynthesizer`."""
    return TopologySynthesizer(options=options, constraints=constraints).synthesize(
        acg, decomposition
    )
