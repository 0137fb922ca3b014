"""Architecture substrate: topology abstraction, standard fabric families
(mesh, torus, ring, spidergon, fat tree, long-range mesh), customized
topologies and structural metrics."""

from repro.arch.custom import ChannelOrigin, CustomTopology
from repro.arch.families import (
    FAMILIES,
    FamilySpec,
    FatTreeTopology,
    LongRangeMeshTopology,
    RingTopology,
    SpidergonTopology,
    TorusTopology,
    build_fabric,
    infrastructure_router,
    most_square_grid,
    pad_node_ids,
    register_family,
)
from repro.arch.mesh import MeshCoordinates, MeshTopology
from repro.arch.metrics import (
    BisectionResult,
    TopologyReport,
    all_pairs_hop_counts,
    average_hop_count,
    bisection_bandwidth,
    diameter,
    is_strongly_connected,
    topology_report,
)
from repro.arch.topology import Channel, Topology

__all__ = [
    "Topology",
    "FAMILIES",
    "Channel",
    "MeshTopology",
    "MeshCoordinates",
    "CustomTopology",
    "ChannelOrigin",
    "FamilySpec",
    "TorusTopology",
    "RingTopology",
    "SpidergonTopology",
    "FatTreeTopology",
    "LongRangeMeshTopology",
    "register_family",
    "build_fabric",
    "most_square_grid",
    "pad_node_ids",
    "infrastructure_router",
    "TopologyReport",
    "BisectionResult",
    "topology_report",
    "diameter",
    "average_hop_count",
    "all_pairs_hop_counts",
    "bisection_bandwidth",
    "is_strongly_connected",
]
