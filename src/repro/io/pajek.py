"""Pajek ``.net`` reader/writer for workloads and topologies.

The baseline dialect is the one Pajek itself accepts: a ``*Vertices``
section numbering the nodes (quoted labels, optional ``x y``
coordinates) followed by ``*Arcs`` lines ``source target weight``.
Repro extends it backward-compatibly:

* a leading ``% repro key=value ...`` directive records the payload kind
  (``workload`` or ``topology``) and, for topologies, the flit width —
  plain Pajek tools treat the line as a comment;
* workload arcs may carry a 4th column with the bandwidth requirement
  (written only when some edge has a non-zero bandwidth);
* topology arcs carry ``length_mm width_bits bandwidth`` columns.

Plain-Pajek conventions hold: ``*Edges`` sections are read as bidirectional arcs, ``%``
comment lines are skipped, and an arc line with fewer than two fields
raises :class:`~repro.exceptions.WorkloadError`.
"""

from __future__ import annotations

import shlex
from pathlib import Path

from repro.arch.topology import Topology
from repro.core.graph import ApplicationGraph
from repro.exceptions import WorkloadError
from repro.io.base import GraphFormat, format_float, parse_number, register_format

_DIRECTIVE_PREFIX = "% repro"


def _quote(label: object) -> str:
    """A Pajek vertex label: double-quoted, embedded quotes escaped."""
    text = str(label).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{text}"'


def _parse_directive(line: str) -> dict[str, str]:
    """``% repro key=value ...`` -> its key/value mapping (shlex-quoted)."""
    fields = shlex.split(line[len(_DIRECTIVE_PREFIX) :])
    directive: dict[str, str] = {}
    for field in fields:
        key, _, value = field.partition("=")
        directive[key] = value
    return directive


def _split_vertex_line(line: str, raw_line: str) -> tuple[int, str, tuple[float, float] | None]:
    """One ``*Vertices`` line -> (index, label, optional coordinates)."""
    try:
        tokens = shlex.split(line)
    except ValueError as error:
        raise WorkloadError(f"malformed Pajek vertex line: {raw_line!r}") from error
    if not tokens:
        raise WorkloadError(f"malformed Pajek vertex line: {raw_line!r}")
    try:
        index = int(tokens[0])
    except ValueError as error:
        raise WorkloadError(f"malformed Pajek vertex line: {raw_line!r}") from error
    rest = tokens[1:]
    coords: tuple[float, float] | None = None
    if len(rest) >= 3:
        try:
            coords = (float(rest[-2]), float(rest[-1]))
            rest = rest[:-2]
        except ValueError:
            coords = None
    label = " ".join(rest) if rest else str(index)
    return index, label, coords


def _iter_sections(text: str):
    """Yield ``(section, directive, line, raw_line)`` for payload lines."""
    section = None
    directive: dict[str, str] = {}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("%"):
            if line.startswith(_DIRECTIVE_PREFIX):
                directive.update(_parse_directive(line))
            continue
        lowered = line.lower()
        if lowered.startswith("*vertices"):
            section = "vertices"
            continue
        if lowered.startswith("*arcs"):
            section = "arcs"
            continue
        if lowered.startswith("*edges"):
            section = "edges"
            continue
        yield section, directive, line, raw_line


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def write_workload(acg: ApplicationGraph, path: str | Path) -> None:
    """Write an ACG as Pajek ``.net`` (volumes as arc weights)."""
    nodes = acg.nodes()
    index_of = {node: index + 1 for index, node in enumerate(nodes)}
    with_bandwidth = any(acg.bandwidth(s, t) != 0.0 for s, t in acg.edges())
    lines = [f"{_DIRECTIVE_PREFIX} kind=workload"]
    lines.append(f"*Vertices {len(nodes)}")
    for node in nodes:
        line = f"{index_of[node]} {_quote(node)}"
        if acg.has_position(node):
            position = acg.position(node)
            line += f" {format_float(position.x)} {format_float(position.y)}"
        lines.append(line)
    lines.append("*Arcs")
    for source, target in acg.edges():
        line = (
            f"{index_of[source]} {index_of[target]} "
            f"{format_float(acg.volume(source, target))}"
        )
        if with_bandwidth:
            line += f" {format_float(acg.bandwidth(source, target))}"
        lines.append(line)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_workload(path: str | Path) -> ApplicationGraph:
    """Read a Pajek ``.net`` file into an ACG.

    ``*Edges`` sections are treated as bidirectional arcs; labels default
    to the vertex index; coordinates become core positions.
    """
    text = Path(path).read_text(encoding="utf-8")
    acg = ApplicationGraph(name=Path(path).stem)
    labels: dict[int, str] = {}
    for section, _directive, line, raw_line in _iter_sections(text):
        if section == "vertices":
            index, label, coords = _split_vertex_line(line, raw_line)
            labels[index] = label
            acg.add_node(label, exist_ok=True)
            if coords is not None:
                acg.set_position(label, coords[0], coords[1])
        elif section in ("arcs", "edges"):
            parts = line.split()
            if len(parts) < 2:
                raise WorkloadError(f"malformed Pajek arc line: {raw_line!r}")
            source = labels.get(_as_index(parts[0]), parts[0])
            target = labels.get(_as_index(parts[1]), parts[1])
            volume = parse_number(parts[2]) if len(parts) > 2 else 1.0
            bandwidth = parse_number(parts[3]) if len(parts) > 3 else 0.0
            acg.add_communication(source, target, volume=volume, bandwidth=bandwidth)
            if section == "edges":
                acg.add_communication(target, source, volume=volume, bandwidth=bandwidth)
    return acg


def _as_index(token: str) -> int | None:
    """The vertex index a token names, or ``None`` for non-numeric tokens."""
    try:
        return int(token)
    except ValueError:
        return None


# ----------------------------------------------------------------------
# topologies
# ----------------------------------------------------------------------
def write_topology(topology: Topology, path: str | Path) -> None:
    """Write a fabric as Pajek ``.net`` with repro channel-attribute columns."""
    routers = topology.routers()
    index_of = {node: index + 1 for index, node in enumerate(routers)}
    lines = [
        f"{_DIRECTIVE_PREFIX} kind=topology "
        f"flit_width_bits={int(topology.flit_width_bits)} "
        f"name={shlex.quote(str(topology.name))}"
    ]
    lines.append(f"*Vertices {len(routers)}")
    for node in routers:
        line = f"{index_of[node]} {_quote(node)}"
        if topology.has_position(node):
            position = topology.position(node)
            line += f" {format_float(position.x)} {format_float(position.y)}"
        lines.append(line)
    lines.append("*Arcs")
    for channel in topology.channels():
        lines.append(
            f"{index_of[channel.source]} {index_of[channel.target]} "
            f"{format_float(channel.length_mm)} {int(channel.width_bits)} "
            f"{format_float(channel.bandwidth_bits_per_cycle)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_topology(path: str | Path) -> Topology:
    """Read a Pajek ``.net`` fabric written by :func:`write_topology`.

    Plain Pajek files (no repro directive) are accepted too: arcs become
    unit-length channels at the default flit width.
    """
    text = Path(path).read_text(encoding="utf-8")
    labels: dict[int, str] = {}
    vertices: list[tuple[str, tuple[float, float] | None]] = []
    arcs: list[tuple[str, str, list[str]]] = []
    flit_width = 32
    name = Path(path).stem
    for section, directive, line, raw_line in _iter_sections(text):
        if directive.get("kind") not in (None, "", "topology", "workload"):
            raise WorkloadError(f"unknown repro payload kind {directive['kind']!r}")
        if "flit_width_bits" in directive:
            flit_width = int(directive["flit_width_bits"])
        if directive.get("name"):
            name = directive["name"]
        if section == "vertices":
            index, label, coords = _split_vertex_line(line, raw_line)
            labels[index] = label
            vertices.append((label, coords))
        elif section in ("arcs", "edges"):
            parts = line.split()
            if len(parts) < 2:
                raise WorkloadError(f"malformed Pajek arc line: {raw_line!r}")
            source = labels.get(_as_index(parts[0]), parts[0])
            target = labels.get(_as_index(parts[1]), parts[1])
            arcs.append((source, target, parts[2:]))
            if section == "edges":
                arcs.append((target, source, parts[2:]))
    topology = Topology(name=name, flit_width_bits=flit_width)
    for label, coords in vertices:
        if coords is not None:
            topology.add_router(label, coords[0], coords[1])
        else:
            topology.add_router(label)
    for source, target, extra in arcs:
        length = parse_number(extra[0]) if len(extra) > 0 else None
        width = int(parse_number(extra[1])) if len(extra) > 1 else None
        bandwidth = parse_number(extra[2]) if len(extra) > 2 else None
        topology.add_channel(
            source,
            target,
            length_mm=length,
            width_bits=width,
            bandwidth_bits_per_cycle=bandwidth,
        )
    return topology


FORMAT = register_format(
    GraphFormat(
        name="pajek",
        description="Pajek .net (vertices/arcs; repro attribute columns)",
        extensions=(".net", ".pajek"),
        read_workload=read_workload,
        write_workload=write_workload,
        read_topology=read_topology,
        write_topology=write_topology,
        notes=(
            "Coordinates and the 4th/5th arc columns are repro extensions; "
            "plain Pajek tools read the files, repro reads plain Pajek files."
        ),
    )
)
