"""Standard 2-D mesh architecture — the baseline the paper compares against.

The AES prototype of Section 5.2 uses a 4x4 mesh of identical nodes; this
module generates k x m meshes with configurable tile pitch (which determines
link lengths and therefore link energy) and provides the row/column helpers
the dimension-ordered routing policies need.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass

from repro.arch.topology import Topology
from repro.exceptions import SynthesisError

NodeId = Hashable


@dataclass(frozen=True)
class MeshCoordinates:
    """Grid coordinates of a router inside a mesh."""

    row: int
    column: int


class MeshTopology(Topology):
    """A ``rows x columns`` 2-D mesh with nearest-neighbour bidirectional links."""

    def __init__(
        self,
        rows: int,
        columns: int,
        tile_pitch_mm: float = 2.0,
        flit_width_bits: int = 32,
        node_ids: Sequence[NodeId] | None = None,
        name: str | None = None,
    ) -> None:
        if rows < 1 or columns < 1:
            raise SynthesisError("a mesh needs at least one row and one column")
        if tile_pitch_mm <= 0:
            raise SynthesisError("tile pitch must be positive")
        super().__init__(
            name=name or f"mesh_{rows}x{columns}", flit_width_bits=flit_width_bits
        )
        self.rows = rows
        self.columns = columns
        self.tile_pitch_mm = tile_pitch_mm
        self._coordinates: dict[NodeId, MeshCoordinates] = {}

        count = rows * columns
        if node_ids is None:
            ids: list[NodeId] = list(range(1, count + 1))
        else:
            ids = list(node_ids)
            if len(ids) != count:
                raise SynthesisError(
                    f"expected {count} node ids for a {rows}x{columns} mesh, got {len(ids)}"
                )
            if len(set(ids)) != count:
                raise SynthesisError("mesh node ids must be unique")

        for index, node in enumerate(ids):
            row, column = divmod(index, columns)
            self._coordinates[node] = MeshCoordinates(row=row, column=column)
            self.add_router(node, x=column * tile_pitch_mm, y=row * tile_pitch_mm)

        for node in ids:
            coords = self._coordinates[node]
            for delta_row, delta_column in ((0, 1), (1, 0)):
                neighbor_row = coords.row + delta_row
                neighbor_column = coords.column + delta_column
                if neighbor_row >= rows or neighbor_column >= columns:
                    continue
                neighbor = ids[neighbor_row * columns + neighbor_column]
                self.add_channel(
                    node,
                    neighbor,
                    length_mm=tile_pitch_mm,
                    bidirectional=True,
                )

    # ------------------------------------------------------------------
    # grid helpers
    # ------------------------------------------------------------------
    def coordinates(self, node: NodeId) -> MeshCoordinates:
        try:
            return self._coordinates[node]
        except KeyError as error:
            raise SynthesisError(f"{node!r} is not a router of {self.name!r}") from error

    def node_at(self, row: int, column: int) -> NodeId:
        if not (0 <= row < self.rows and 0 <= column < self.columns):
            raise SynthesisError(f"({row}, {column}) is outside the {self.rows}x{self.columns} mesh")
        for node, coords in self._coordinates.items():
            if coords.row == row and coords.column == column:
                return node
        raise SynthesisError("mesh coordinates table is corrupted")  # pragma: no cover

    def row_of(self, node: NodeId) -> int:
        return self.coordinates(node).row

    def column_of(self, node: NodeId) -> int:
        return self.coordinates(node).column

    def manhattan_hops(self, source: NodeId, target: NodeId) -> int:
        """Minimum hop count between two mesh routers."""
        source_coords = self.coordinates(source)
        target_coords = self.coordinates(target)
        return abs(source_coords.row - target_coords.row) + abs(
            source_coords.column - target_coords.column
        )
