"""Property tests: Pajek round-trips preserve graph content (satellite 2).

Hypothesis drives ``read_workload(write_workload(acg, fmt="pajek"))``
through the canonical :mod:`repro.io` pajek format over generated ACGs with
adversarial node names, float volumes/bandwidths and partial floorplans,
asserting node names, the directed edge set, traffic weights and
positions all survive.  The published embedded ACGs are asserted too,
and the other two built-in formats get the same generated treatment
(they share the round-trip guarantee).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.graph import ApplicationGraph
from repro.io import get_format, read_workload, write_workload
from repro.workloads import embedded_benchmark_acg, embedded_benchmark_names

# names may contain spaces, quotes-adjacent punctuation and digits, but no
# double quote / backslash / newline (the documented label restrictions)
_NAME_ALPHABET = st.characters(
    codec="ascii",
    categories=("L", "N", "P", "S", "Zs"),
    exclude_characters='"\\',
)
_names = st.text(alphabet=_NAME_ALPHABET, min_size=1, max_size=12).map(str.strip).filter(bool)
_volumes = st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False)
_coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def acgs(draw):
    """A random ACG: unique names, random weighted edges, partial floorplan."""
    nodes = draw(st.lists(_names, min_size=2, max_size=10, unique=True))
    acg = ApplicationGraph(name="generated")
    for node in nodes:
        acg.add_node(node, exist_ok=True)
    pair_indices = [(i, j) for i in range(len(nodes)) for j in range(len(nodes)) if i != j]
    chosen = draw(st.lists(st.sampled_from(pair_indices), max_size=16, unique=True))
    for i, j in chosen:
        acg.add_communication(
            nodes[i], nodes[j], volume=draw(_volumes), bandwidth=draw(_volumes)
        )
    positioned = draw(st.lists(st.sampled_from(range(len(nodes))), max_size=4, unique=True))
    for index in positioned:
        acg.set_position(nodes[index], draw(_coords), draw(_coords))
    return acg


def _content(acg):
    """Node names, weighted edge set and positions — what must survive."""
    return (
        sorted(str(node) for node in acg.nodes()),
        sorted(
            (str(s), str(t), acg.volume(s, t), acg.bandwidth(s, t))
            for s, t in acg.edges()
        ),
        {
            str(node): (acg.position(node).x, acg.position(node).y)
            for node in acg.nodes()
            if acg.has_position(node)
        },
    )


def _roundtrip(acg, fmt, tmp_path):
    path = tmp_path / f"graph{get_format(fmt).extensions[0]}"
    write_workload(acg, path, fmt=fmt)
    return read_workload(path, fmt=fmt)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(acg=acgs())
def test_pajek_roundtrip_preserves_content(acg, tmp_path):
    assert _content(_roundtrip(acg, "pajek", tmp_path)) == _content(acg)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(acg=acgs())
def test_edgelist_roundtrip_preserves_content(acg, tmp_path):
    assert _content(_roundtrip(acg, "edgelist", tmp_path)) == _content(acg)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(acg=acgs())
def test_dot_roundtrip_preserves_content(acg, tmp_path):
    assert _content(_roundtrip(acg, "dot", tmp_path)) == _content(acg)


# NOTE: the parameter must not be called "benchmark" — that name belongs
# to the pytest-benchmark plugin's fixture and hijacking it breaks teardown
@pytest.mark.parametrize("bench_name", embedded_benchmark_names())
def test_published_embedded_acgs_roundtrip(bench_name, tmp_path):
    acg = embedded_benchmark_acg(bench_name)
    assert _content(_roundtrip(acg, "pajek", tmp_path)) == _content(acg)
