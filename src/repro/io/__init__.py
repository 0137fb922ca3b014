"""Graph interchange: read/write workloads and fabrics in named formats.

The package round-trips the two graph kinds the flow works with —
:class:`~repro.core.graph.ApplicationGraph` workloads (ACGs) and
:class:`~repro.arch.topology.Topology` fabrics — through a registry of
:class:`~repro.io.base.GraphFormat` specs (Pajek ``.net``, Graphviz DOT,
weighted edge list out of the box; plugins add more through the
``repro.plugins`` entry-point group).  The facade functions here pick
the format by explicit name or by file extension and guarantee, for the
built-in formats, that export→import preserves the workload
``structural_fingerprint`` and the topology ``signature`` exactly.
"""

from __future__ import annotations

from pathlib import Path

from repro.arch.topology import Topology
from repro.core.graph import ApplicationGraph
from repro.io import dot, edgelist, pajek  # noqa: F401  (register the formats)
from repro.io.base import (
    FORMATS,
    GraphFormat,
    detect_format,
    register_format,
)

__all__ = [
    "FORMATS",
    "GraphFormat",
    "detect_format",
    "register_format",
    "read_workload",
    "write_workload",
    "read_topology",
    "write_topology",
]


def _resolve(path: str | Path, fmt: str | None) -> GraphFormat:
    """The format named ``fmt``, or the one claiming ``path``'s extension."""
    return FORMATS.get(fmt) if fmt else detect_format(path)


def read_workload(
    path: str | Path, fmt: str | None = None, name: str | None = None
) -> ApplicationGraph:
    """Read an ACG from ``path`` (format by name or file extension)."""
    acg = _resolve(path, fmt).read_workload(Path(path))
    if name:
        acg.name = name
    return acg


def write_workload(acg: ApplicationGraph, path: str | Path, fmt: str | None = None) -> None:
    """Write an ACG to ``path`` (format by name or file extension)."""
    _resolve(path, fmt).write_workload(acg, Path(path))


def read_topology(path: str | Path, fmt: str | None = None) -> Topology:
    """Read a fabric from ``path`` (format by name or file extension)."""
    return _resolve(path, fmt).read_topology(Path(path))


def write_topology(topology: Topology, path: str | Path, fmt: str | None = None) -> None:
    """Write a fabric to ``path`` (format by name or file extension)."""
    _resolve(path, fmt).write_topology(topology, Path(path))
