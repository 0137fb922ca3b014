"""Topology-family registry: declarative standard fabrics beyond the mesh.

The paper compares decomposition-synthesized custom NoCs against a
*standard* architecture; this module is what makes "standard" a family
axis rather than a hard-wired 2-D mesh.  A :class:`FamilySpec` names a
fabric family and knows how to instantiate it from a flat list of node
ids plus declarative parameters (tile pitch, flit width); the registry
(:data:`FAMILIES`, :func:`register_family`, :func:`build_fabric`)
is what :func:`repro.dse.pipeline.build_baseline_fabric` and the DSE
``topology`` axis consume.

Built-in families
-----------------
``mesh``
    The classic ``rows x columns`` grid (:class:`~repro.arch.mesh.MeshTopology`);
    the shape is the most-square grid that fits the node count.
``torus``
    The mesh plus per-row/per-column wraparound channels
    (:class:`TorusTopology`); wrap wires are modelled with length
    ``tile_pitch * (dimension - 1)``.
``ring``
    A bidirectional cycle (:class:`RingTopology`), the cheapest
    connected fabric (degree 2 everywhere).
``spidergon``
    The octagon/Spidergon layout (:class:`SpidergonTopology`): a ring
    plus cross links connecting diametrically opposite routers.
``fat_tree``
    An ``arity``-ary switch tree (:class:`FatTreeTopology`): cores sit
    at the leaves, internal ``__sw*`` switch routers aggregate upward
    with link bandwidth doubling per level.
``long_range_mesh``
    A mesh augmented with a few deterministic long-range shortcut links
    (:class:`LongRangeMeshTopology`), the small-world-insertion fabric.

All builders are deterministic: the same node ids and parameters always
produce the same channels in the same insertion order, which is what
keeps routing tables, CDG analyses and DSE cache keys reproducible.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass

from repro.arch.mesh import MeshTopology
from repro.arch.topology import Topology
from repro.exceptions import SynthesisError
from repro.plugins import Registry

NodeId = Hashable


def most_square_grid(count: int) -> tuple[int, int]:
    """The ``(rows, columns)`` of the most-square grid holding ``count`` nodes.

    16 -> 4x4, 12 -> 3x4, 10 -> 3x4 (with padding); this is the shape rule
    the mesh baseline has always used.
    """
    if count < 1:
        raise SynthesisError("a grid needs at least one node")
    columns = max(1, math.ceil(math.sqrt(count)))
    rows = max(1, math.ceil(count / columns))
    return rows, columns


# ----------------------------------------------------------------------
# topology classes
# ----------------------------------------------------------------------
class TorusTopology(MeshTopology):
    """A 2-D torus: the mesh plus wraparound channels per row and column.

    Dimensions shorter than three routers get no wrap channel (the wrap
    would duplicate an existing mesh link or form a self-loop), so small
    tori degenerate gracefully towards the mesh.  Wrap wires are charged
    ``tile_pitch * (dimension - 1)`` of physical length.
    """

    def __init__(
        self,
        rows: int,
        columns: int,
        tile_pitch_mm: float = 2.0,
        flit_width_bits: int = 32,
        node_ids: Sequence[NodeId] | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(
            rows,
            columns,
            tile_pitch_mm=tile_pitch_mm,
            flit_width_bits=flit_width_bits,
            node_ids=node_ids,
            name=name or f"torus_{rows}x{columns}",
        )
        if columns >= 3:
            for row in range(rows):
                self.add_channel(
                    self.node_at(row, columns - 1),
                    self.node_at(row, 0),
                    length_mm=tile_pitch_mm * (columns - 1),
                    bidirectional=True,
                )
        if rows >= 3:
            for column in range(columns):
                self.add_channel(
                    self.node_at(rows - 1, column),
                    self.node_at(0, column),
                    length_mm=tile_pitch_mm * (rows - 1),
                    bidirectional=True,
                )

    def torus_hops(self, source: NodeId, target: NodeId) -> int:
        """Minimum hop count with wraparound taken into account."""
        source_coords = self.coordinates(source)
        target_coords = self.coordinates(target)
        row_delta = abs(source_coords.row - target_coords.row)
        column_delta = abs(source_coords.column - target_coords.column)
        if self.rows >= 3:
            row_delta = min(row_delta, self.rows - row_delta)
        if self.columns >= 3:
            column_delta = min(column_delta, self.columns - column_delta)
        return row_delta + column_delta


class RingTopology(Topology):
    """A bidirectional ring of routers placed on a circle.

    Every ring link is charged one tile pitch of wire; router positions
    sit on a circle whose circumference is ``count * tile_pitch`` so the
    floorplan area scales like the grid fabrics'.
    """

    def __init__(
        self,
        node_ids: Sequence[NodeId],
        tile_pitch_mm: float = 2.0,
        flit_width_bits: int = 32,
        name: str | None = None,
    ) -> None:
        ids = list(node_ids)
        if len(ids) < 3:
            raise SynthesisError("a ring needs at least three routers")
        if len(set(ids)) != len(ids):
            raise SynthesisError("ring node ids must be unique")
        super().__init__(name=name or f"ring_{len(ids)}", flit_width_bits=flit_width_bits)
        self.tile_pitch_mm = tile_pitch_mm
        self._indices: dict[NodeId, int] = {}
        self._by_index: tuple[NodeId, ...] = tuple(ids)
        count = len(ids)
        radius = count * tile_pitch_mm / (2.0 * math.pi)
        for index, node in enumerate(ids):
            angle = 2.0 * math.pi * index / count
            self._indices[node] = index
            self.add_router(node, x=radius * math.cos(angle), y=radius * math.sin(angle))
        for index, node in enumerate(ids):
            self.add_channel(
                node, ids[(index + 1) % count], length_mm=tile_pitch_mm, bidirectional=True
            )

    @property
    def ring_size(self) -> int:
        return len(self._indices)

    def index_of(self, node: NodeId) -> int:
        try:
            return self._indices[node]
        except KeyError as error:
            raise SynthesisError(f"{node!r} is not a router of {self.name!r}") from error

    def node_at_index(self, index: int) -> NodeId:
        return self._by_index[index % self.ring_size]

    def ring_hops(self, source: NodeId, target: NodeId) -> int:
        """Minimum hop count around the ring (either direction)."""
        delta = abs(self.index_of(source) - self.index_of(target))
        return min(delta, self.ring_size - delta)


class SpidergonTopology(RingTopology):
    """Spidergon/octagon fabric: a ring plus diametral cross channels.

    Every router ``i`` additionally connects to router ``i + N/2`` (N
    even), halving the diameter relative to the plain ring at a cost of
    one long cross wire per router pair; cross wires are charged the
    circle diameter ``N * tile_pitch / pi``.
    """

    def __init__(
        self,
        node_ids: Sequence[NodeId],
        tile_pitch_mm: float = 2.0,
        flit_width_bits: int = 32,
        name: str | None = None,
    ) -> None:
        ids = list(node_ids)
        if len(ids) < 4 or len(ids) % 2:
            raise SynthesisError("a spidergon needs an even number (>= 4) of routers")
        super().__init__(
            ids,
            tile_pitch_mm=tile_pitch_mm,
            flit_width_bits=flit_width_bits,
            name=name or f"spidergon_{len(ids)}",
        )
        half = len(ids) // 2
        cross_length = len(ids) * tile_pitch_mm / math.pi
        for index in range(half):
            self.add_channel(
                ids[index], ids[index + half], length_mm=cross_length, bidirectional=True
            )


class FatTreeTopology(Topology):
    """An ``arity``-ary fat tree: cores at the leaves, switches above.

    Internal switch routers are named ``__sw<level>_<index>`` (the same
    double-underscore convention as the baseline's ``__pad*`` fillers,
    so reports can filter them).  Upward links double their bandwidth
    capacity per level — the "fat" in fat tree — while keeping the flit
    width constant; their wire length grows one tile pitch per level.
    """

    def __init__(
        self,
        node_ids: Sequence[NodeId],
        arity: int = 4,
        tile_pitch_mm: float = 2.0,
        flit_width_bits: int = 32,
        name: str | None = None,
    ) -> None:
        ids = list(node_ids)
        if not ids:
            raise SynthesisError("a fat tree needs at least one leaf")
        if len(set(ids)) != len(ids):
            raise SynthesisError("fat-tree node ids must be unique")
        if arity < 2:
            raise SynthesisError("fat-tree arity must be at least 2")
        super().__init__(
            name=name or f"fat_tree_{len(ids)}", flit_width_bits=flit_width_bits
        )
        self.tile_pitch_mm = tile_pitch_mm
        self.arity = arity
        self.leaves: tuple[NodeId, ...] = tuple(ids)
        for index, node in enumerate(ids):
            self.add_router(node, x=index * tile_pitch_mm, y=0.0)
        level = 1
        current = ids
        while len(current) > 1:
            parents: list[NodeId] = []
            for group_index in range(0, len(current), arity):
                group = current[group_index : group_index + arity]
                parent = f"__sw{level}_{group_index // arity}"
                center = sum(self.position(child).x for child in group) / len(group)
                self.add_router(parent, x=center, y=level * tile_pitch_mm)
                for child in group:
                    self.add_channel(
                        child,
                        parent,
                        length_mm=tile_pitch_mm * level,
                        bandwidth_bits_per_cycle=float(
                            flit_width_bits * (2 ** (level - 1))
                        ),
                        bidirectional=True,
                    )
                parents.append(parent)
            current = parents
            level += 1
        self.root: NodeId = current[0]
        self.num_levels = level


class LongRangeMeshTopology(MeshTopology):
    """A mesh augmented with deterministic long-range shortcut links.

    Long links are inserted greedily between the most distant router
    pairs (by grid hop count, ties broken by row-major order) whose
    endpoints do not already carry a shortcut, mirroring the long-range
    link insertion literature's "shrink the diameter with few wires"
    move without needing a random seed.  ``long_link_count`` defaults to
    one shortcut per eight routers.
    """

    def __init__(
        self,
        rows: int,
        columns: int,
        tile_pitch_mm: float = 2.0,
        flit_width_bits: int = 32,
        node_ids: Sequence[NodeId] | None = None,
        long_link_count: int | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(
            rows,
            columns,
            tile_pitch_mm=tile_pitch_mm,
            flit_width_bits=flit_width_bits,
            node_ids=node_ids,
            name=name or f"mesh_long_{rows}x{columns}",
        )
        if long_link_count is None:
            long_link_count = max(1, (rows * columns) // 8)
        ordered = self.routers()  # row-major construction order
        candidates = [
            (self.manhattan_hops(a, b), index_a, index_b, a, b)
            for index_a, a in enumerate(ordered)
            for index_b, b in enumerate(ordered)
            if index_a < index_b and self.manhattan_hops(a, b) >= 3
        ]
        candidates.sort(key=lambda item: (-item[0], item[1], item[2]))
        used: set[NodeId] = set()
        links: list[tuple[NodeId, NodeId]] = []
        for hops, _, _, a, b in candidates:
            if len(links) >= long_link_count:
                break
            if a in used or b in used:
                continue
            self.add_channel(
                a, b, length_mm=tile_pitch_mm * hops, bidirectional=True
            )
            used.update((a, b))
            links.append((a, b))
        self.long_links: tuple[tuple[NodeId, NodeId], ...] = tuple(links)


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FamilySpec:
    """One named topology family and how to instantiate it.

    ``builder(node_ids, tile_pitch_mm, flit_width_bits)`` receives a node
    list already padded to ``padded_size(count)`` ids; extra infrastructure
    routers (fat-tree switches) are the builder's own business.  ``grid``
    marks families whose routers carry mesh coordinates (dimension-ordered
    policies apply); ``wraparound`` marks families with dateline channels.
    """

    name: str
    description: str
    builder: Callable[..., Topology]
    padded_size: Callable[[int], int]
    grid: bool = False
    wraparound: bool = False

    def build(
        self,
        node_ids: Sequence[NodeId],
        tile_pitch_mm: float = 2.0,
        flit_width_bits: int = 32,
    ) -> Topology:
        """Instantiate the family over the given (pre-padded) node ids."""
        expected = self.padded_size(len(node_ids))
        if len(node_ids) != expected:
            raise SynthesisError(
                f"family {self.name!r} needs {expected} node ids for "
                f"{len(node_ids)} requested (pad with filler ids first)"
            )
        return self.builder(
            node_ids, tile_pitch_mm=tile_pitch_mm, flit_width_bits=flit_width_bits
        )


#: the topology-family registry: one :class:`repro.plugins.Registry` cell
#: of the plugin fabric (third-party families register here, directly or
#: through the ``repro.plugins`` entry-point group)
FAMILIES: Registry[FamilySpec] = Registry("topology family")


def register_family(spec: FamilySpec) -> FamilySpec:
    """Register (or replace) a topology family under its name."""
    return FAMILIES.register(spec.name, spec)


def build_fabric(
    family: str,
    node_ids: Sequence[NodeId],
    tile_pitch_mm: float = 2.0,
    flit_width_bits: int = 32,
) -> Topology:
    """Instantiate the named family over pre-padded node ids."""
    return FAMILIES.get(family).build(
        node_ids, tile_pitch_mm=tile_pitch_mm, flit_width_bits=flit_width_bits
    )


def pad_node_ids(family: str | FamilySpec, node_ids: Sequence[NodeId]) -> list[NodeId]:
    """The node list padded with ``__pad*`` fillers to the family's size.

    The canonical way to prepare a node list for :meth:`FamilySpec.build`:
    the ``__pad`` prefix is what :func:`infrastructure_router` (and report
    filters built on it) recognize, so every caller must pad through here
    rather than inventing its own filler ids.
    """
    spec = family if isinstance(family, FamilySpec) else FAMILIES.get(family)
    nodes = list(node_ids)
    total = spec.padded_size(len(nodes))
    return nodes + [f"__pad{index}" for index in range(total - len(nodes))]


def infrastructure_router(node: NodeId) -> bool:
    """True for filler/switch routers that carry no application core."""
    return isinstance(node, str) and node.startswith("__")


# ----------------------------------------------------------------------
# built-in families
# ----------------------------------------------------------------------
def _grid_padded(count: int) -> int:
    rows, columns = most_square_grid(count)
    return rows * columns


def _build_mesh(node_ids, tile_pitch_mm=2.0, flit_width_bits=32):
    rows, columns = most_square_grid(len(node_ids))
    return MeshTopology(
        rows,
        columns,
        tile_pitch_mm=tile_pitch_mm,
        flit_width_bits=flit_width_bits,
        node_ids=node_ids,
    )


def _build_torus(node_ids, tile_pitch_mm=2.0, flit_width_bits=32):
    rows, columns = most_square_grid(len(node_ids))
    return TorusTopology(
        rows,
        columns,
        tile_pitch_mm=tile_pitch_mm,
        flit_width_bits=flit_width_bits,
        node_ids=node_ids,
    )


def _build_ring(node_ids, tile_pitch_mm=2.0, flit_width_bits=32):
    return RingTopology(
        node_ids, tile_pitch_mm=tile_pitch_mm, flit_width_bits=flit_width_bits
    )


def _build_spidergon(node_ids, tile_pitch_mm=2.0, flit_width_bits=32):
    return SpidergonTopology(
        node_ids, tile_pitch_mm=tile_pitch_mm, flit_width_bits=flit_width_bits
    )


def _build_fat_tree(node_ids, tile_pitch_mm=2.0, flit_width_bits=32):
    return FatTreeTopology(
        node_ids, tile_pitch_mm=tile_pitch_mm, flit_width_bits=flit_width_bits
    )


def _build_long_range_mesh(node_ids, tile_pitch_mm=2.0, flit_width_bits=32):
    rows, columns = most_square_grid(len(node_ids))
    return LongRangeMeshTopology(
        rows,
        columns,
        tile_pitch_mm=tile_pitch_mm,
        flit_width_bits=flit_width_bits,
        node_ids=node_ids,
    )


register_family(
    FamilySpec(
        name="mesh",
        description="2-D mesh, most-square grid (the paper's standard baseline)",
        builder=_build_mesh,
        padded_size=_grid_padded,
        grid=True,
    )
)

register_family(
    FamilySpec(
        name="torus",
        description="2-D torus: mesh plus row/column wraparound channels",
        builder=_build_torus,
        padded_size=_grid_padded,
        grid=True,
        wraparound=True,
    )
)

register_family(
    FamilySpec(
        name="ring",
        description="bidirectional ring (degree-2 minimum-cost fabric)",
        builder=_build_ring,
        padded_size=lambda count: max(count, 3),
        wraparound=True,
    )
)

register_family(
    FamilySpec(
        name="spidergon",
        description="Spidergon/octagon: ring plus diametral cross links",
        builder=_build_spidergon,
        padded_size=lambda count: max(count + (count % 2), 4),
        wraparound=True,
    )
)

register_family(
    FamilySpec(
        name="fat_tree",
        description="4-ary fat tree: cores at leaves, __sw* switches above",
        builder=_build_fat_tree,
        padded_size=lambda count: max(count, 1),
    )
)

register_family(
    FamilySpec(
        name="long_range_mesh",
        description="mesh plus deterministic long-range shortcut links",
        builder=_build_long_range_mesh,
        padded_size=_grid_padded,
        grid=True,
    )
)
