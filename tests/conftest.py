"""Shared fixtures for the test suite.

Expensive artefacts (the AES decomposition/synthesis, the default library)
are session-scoped so the several hundred tests stay fast.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden report fixtures under tests/fixtures/golden/ "
        "from the current reference engine instead of asserting against them",
    )

from repro.aes.acg import build_aes_acg
from repro.arch.mesh import MeshTopology
from repro.core.graph import ApplicationGraph, DiGraph
from repro.core.library import aes_library, default_library
from repro.experiments.aes_experiment import AesSynthesisResult, run_aes_synthesis
from repro.workloads.acg_builder import attach_grid_floorplan


@pytest.fixture(scope="session")
def library():
    """The default communication library (session-scoped, treat as read-only)."""
    return default_library()


@pytest.fixture(scope="session")
def aes_lib():
    """The compact AES library of Section 5.2."""
    return aes_library()


@pytest.fixture(scope="session")
def aes_acg() -> ApplicationGraph:
    """The Figure-6a AES application graph (floorplanned)."""
    return build_aes_acg()


@pytest.fixture(scope="session")
def aes_synthesis() -> AesSynthesisResult:
    """The full AES decomposition + synthesized architecture (Section 5.2)."""
    return run_aes_synthesis()


@pytest.fixture(scope="session")
def mesh_4x4():
    """The 4x4 mesh baseline with 2 mm tile pitch."""
    return MeshTopology(4, 4, tile_pitch_mm=2.0)


@pytest.fixture()
def triangle_graph() -> DiGraph:
    """A directed 3-cycle: 1 -> 2 -> 3 -> 1."""
    return DiGraph.from_edges([(1, 2), (2, 3), (3, 1)], name="triangle")


@pytest.fixture()
def k4_acg() -> ApplicationGraph:
    """Complete bidirectional traffic among 4 cores, 32 bits per edge."""
    traffic = {(i, j): 32.0 for i in range(1, 5) for j in range(1, 5) if i != j}
    acg = ApplicationGraph.from_traffic(traffic, name="k4")
    attach_grid_floorplan(acg, core_size_mm=2.0)
    return acg


@pytest.fixture()
def pipeline_acg() -> ApplicationGraph:
    """A simple 5-stage pipeline ACG (chain of point-to-point transfers)."""
    traffic = {(i, i + 1): 100.0 * i for i in range(1, 5)}
    acg = ApplicationGraph.from_traffic(traffic, name="pipeline")
    attach_grid_floorplan(acg, core_size_mm=2.0)
    return acg
