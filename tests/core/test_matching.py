"""Unit tests for matchings (Definition 4) and remainder graphs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import ApplicationGraph, DiGraph
from repro.core.isomorphism import find_all_subgraph_isomorphisms, find_subgraph_isomorphism
from repro.core.library import default_library
from repro.core.matching import Matching, RemainderGraph
from repro.core.primitives import make_gossip_primitive, make_path_primitive
from repro.exceptions import DecompositionError


@pytest.fixture()
def mgg4():
    return make_gossip_primitive(4)


@pytest.fixture()
def k4_matching(mgg4, k4_acg):
    mapping = {1: 1, 2: 2, 3: 3, 4: 4}
    return Matching.from_dict(mgg4, mapping)


class TestMatchingConstruction:
    def test_from_dict_requires_all_primitive_nodes(self, mgg4):
        with pytest.raises(DecompositionError):
            Matching.from_dict(mgg4, {1: 10, 2: 20})

    def test_from_dict_requires_injective_mapping(self, mgg4):
        with pytest.raises(DecompositionError):
            Matching.from_dict(mgg4, {1: 10, 2: 10, 3: 30, 4: 40})

    def test_from_mapping_via_isomorphism(self, mgg4, k4_acg):
        mapping = find_subgraph_isomorphism(mgg4.representation, k4_acg.structural_copy())
        assert mapping is not None
        matching = Matching.from_mapping(mgg4, mapping)
        assert set(matching.cores()) == {1, 2, 3, 4}

    def test_core_of_and_cores(self, k4_matching):
        assert k4_matching.core_of(1) == 1
        assert sorted(k4_matching.cores()) == [1, 2, 3, 4]
        with pytest.raises(DecompositionError):
            k4_matching.core_of(99)


class TestMatchingGeometry:
    def test_covered_edges_are_images_of_requirement_edges(self, k4_matching):
        covered = k4_matching.covered_edges()
        assert len(covered) == 12
        assert (1, 2) in covered and (4, 1) in covered

    def test_implementation_links_and_physical_links(self, k4_matching):
        directed = k4_matching.implementation_links()
        assert len(directed) == 8  # MGG-4: 4 full-duplex links
        assert len(k4_matching.physical_links()) == 4

    def test_route_in_cores_follows_primitive_routing(self, mgg4):
        matching = Matching.from_dict(mgg4, {1: 10, 2: 20, 3: 30, 4: 40})
        assert matching.route_in_cores(10, 40) == (10, 30, 40)
        with pytest.raises(DecompositionError):
            matching.route_in_cores(10, 99)

    def test_routes_in_cores_covers_every_edge(self, k4_matching):
        routes = k4_matching.routes_in_cores()
        assert set(routes) == k4_matching.covered_edges()
        for (source, target), route in routes.items():
            assert route[0] == source and route[-1] == target


class TestMatchingGraphOperations:
    def test_subtract_from_removes_exactly_covered_edges(self, k4_matching, k4_acg):
        residual = k4_matching.subtract_from(k4_acg.structural_copy())
        assert residual.num_edges == 0
        assert residual.num_nodes == 4  # vertices preserved (Definition 2)

    def test_verify_against_detects_missing_edges(self, mgg4):
        matching = Matching.from_dict(mgg4, {1: 1, 2: 2, 3: 3, 4: 4})
        sparse = DiGraph.from_edges([(1, 2)])
        with pytest.raises(DecompositionError):
            matching.verify_against(sparse)

    def test_covered_volume(self, k4_matching, k4_acg):
        assert k4_matching.covered_volume(k4_acg) == pytest.approx(12 * 32.0)


class TestMatchingReporting:
    def test_describe_uses_paper_format(self, mgg4):
        mgg4.primitive_id = 1
        matching = Matching.from_dict(mgg4, {1: 1, 2: 5, 3: 9, 4: 13})
        text = matching.describe()
        assert text.startswith("1: MGG4")
        assert "(1 1)" in text and "(4 13)" in text

    def test_sort_key_orders_matchings_deterministically(self, mgg4):
        path = make_path_primitive(3)
        mgg4.primitive_id = 1
        path.primitive_id = 7
        gossip_match = Matching.from_dict(mgg4, {1: 1, 2: 2, 3: 3, 4: 4})
        path_match = Matching.from_dict(path, {1: 1, 2: 2, 3: 3})
        assert gossip_match.sort_key() < path_match.sort_key()
        assert gossip_match.sort_key() == gossip_match.sort_key()


class TestRemainderGraph:
    def test_empty_remainder(self):
        remainder = RemainderGraph(DiGraph())
        assert remainder.is_empty
        assert remainder.num_edges == 0
        assert "empty" in remainder.describe()

    def test_nonempty_remainder_lists_edges(self):
        remainder = RemainderGraph(DiGraph.from_edges([(9, 11), (11, 9)]))
        assert not remainder.is_empty
        text = remainder.describe()
        assert text.startswith("0: Remaining Graph")
        assert "(9 11)" in text


_LIBRARY = default_library()


def reference_subtract(matching: Matching, graph: DiGraph) -> DiGraph:
    """Definition 2 through the graph operations: the covered edges as an
    edge-induced subgraph, subtracted with ``graph_difference``."""
    matching.verify_against(graph)
    return graph.graph_difference(graph.edge_induced_subgraph(matching.covered_edges()))


def assert_same_layout(actual: DiGraph, expected: DiGraph) -> None:
    assert type(actual) is type(expected)
    assert actual.name == expected.name
    assert actual.nodes() == expected.nodes()
    for node in expected.nodes():
        assert list(actual.successor_map(node)) == list(expected.successor_map(node))
        assert list(actual.predecessor_map(node)) == list(expected.predecessor_map(node))
        assert actual.out_degree(node) == expected.out_degree(node)
        assert actual.in_degree(node) == expected.in_degree(node)
    assert actual.edges(data=True) == expected.edges(data=True)
    assert actual.edge_signature() == expected.edge_signature()
    assert actual.structural_fingerprint() == expected.structural_fingerprint()


def random_acgs():
    nodes = st.integers(min_value=1, max_value=7)
    edges = st.tuples(nodes, nodes).filter(lambda edge: edge[0] != edge[1])

    def build(edge_list):
        acg = ApplicationGraph(name="hyp")
        for index, (source, target) in enumerate(edge_list):
            acg.add_communication(source, target, volume=float(8 * (index + 1)))
        acg.set_position(edge_list[0][0], 1.0, 1.0)
        return acg

    return st.lists(edges, min_size=2, max_size=20, unique=True).map(build)


class TestSubtractionMatchesGraphDifference:
    @settings(max_examples=40, deadline=None)
    @given(acg=random_acgs(), structural=st.booleans())
    def test_every_matching_subtracts_like_graph_difference(self, acg, structural):
        graph = acg.structural_copy() if structural else acg
        for entry in _LIBRARY.entries():
            primitive = entry.primitive
            for mapping in find_all_subgraph_isomorphisms(
                primitive.representation, graph, limit=3
            ):
                matching = Matching.from_mapping(primitive, mapping)
                residual = matching.subtract_from(graph)
                assert_same_layout(residual, reference_subtract(matching, graph))
                assert residual.num_edges == graph.num_edges - len(matching.covered_edges())
                if not structural:
                    assert residual.positions() == acg.positions()

    def test_subtraction_leaves_the_input_untouched(self, k4_matching, k4_acg):
        before = k4_acg.edges(data=True)
        signature = k4_acg.edge_signature()
        k4_matching.subtract_from(k4_acg)
        assert k4_acg.edges(data=True) == before
        assert k4_acg.edge_signature() == signature
