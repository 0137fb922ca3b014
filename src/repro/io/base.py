"""The interchange-format registry and the helpers every format shares.

A :class:`GraphFormat` bundles the four operations a format must support
— read/write an :class:`~repro.core.graph.ApplicationGraph` workload and
read/write a :class:`~repro.arch.topology.Topology` fabric — plus the
file extensions it claims.  Formats register in :data:`FORMATS` (one
:class:`repro.plugins.Registry` cell, so third-party formats arrive via
the ``repro.plugins`` entry-point group) and callers go through the
:mod:`repro.io` facade functions, which detect the format from the file
extension when it is not pinned.

Round-trip contract (asserted format-by-format in
``tests/io/test_roundtrip.py``): ``read(write(graph))`` preserves the
workload :meth:`~repro.dse.pipeline.Scenario.structural_fingerprint` and
the topology :meth:`~repro.arch.topology.Topology.signature` exactly —
node names are stringified, float attributes survive via ``repr`` (which
round-trips IEEE doubles), and isolated nodes are kept.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro.arch.topology import Topology
from repro.core.graph import ApplicationGraph
from repro.exceptions import WorkloadError
from repro.plugins import Registry


@dataclass(frozen=True)
class GraphFormat:
    """One named interchange format and its four read/write operations."""

    name: str
    description: str
    extensions: tuple[str, ...]
    """File suffixes (with the dot) this format claims for detection."""
    read_workload: Callable[[Path], ApplicationGraph]
    write_workload: Callable[[ApplicationGraph, Path], None]
    read_topology: Callable[[Path], Topology]
    write_topology: Callable[[Topology, Path], None]
    notes: str = ""
    """Interoperability caveats for the docs' format matrix (e.g. which
    attribute columns are repro extensions to the published format)."""


#: the interchange-format registry (plugin-fabric cell: third-party
#: formats register here, directly or via the entry-point group)
FORMATS: Registry[GraphFormat] = Registry("interchange format")


def register_format(spec: GraphFormat) -> GraphFormat:
    """Register (or replace) an interchange format under its name."""
    return FORMATS.register(spec.name, spec)


def detect_format(path: str | Path) -> GraphFormat:
    """The format claiming ``path``'s extension.

    Raises the registry's uniform unknown-name error (listing the
    registered formats and their extensions) when no format claims it.
    """
    suffix = Path(path).suffix.lower()
    for name in FORMATS.names():
        spec = FORMATS.get(name)
        if suffix in spec.extensions:
            return spec
    raise FORMATS.unknown(suffix or str(path))


# ----------------------------------------------------------------------
# shared serialization helpers
# ----------------------------------------------------------------------
def format_float(value: float) -> str:
    """A float as text that parses back to the identical double (``repr``)."""
    return repr(float(value))


def parse_number(text: str) -> float:
    """Parse a float field, raising :class:`WorkloadError` on garbage."""
    try:
        return float(text)
    except ValueError as error:
        raise WorkloadError(f"expected a number, got {text!r}") from error
