"""Unit tests for the directed-graph substrate (Definitions 1-2 of the paper)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import ApplicationGraph, CorePosition, DiGraph, GraphStatistics
from repro.exceptions import (
    DuplicateEdgeError,
    DuplicateNodeError,
    EdgeNotFoundError,
    GraphError,
    NodeNotFoundError,
    NotASubgraphError,
)


class TestDiGraphBasics:
    def test_empty_graph(self):
        graph = DiGraph(name="empty")
        assert graph.num_nodes == 0
        assert graph.num_edges == 0
        assert graph.nodes() == []
        assert graph.edges() == []
        assert graph.is_weakly_connected()  # vacuously

    def test_add_nodes_and_edges(self):
        graph = DiGraph()
        graph.add_node("a")
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        assert graph.num_nodes == 3
        assert graph.num_edges == 2
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("b", "a")

    def test_duplicate_node_raises(self):
        graph = DiGraph()
        graph.add_node(1)
        with pytest.raises(DuplicateNodeError):
            graph.add_node(1)
        graph.add_node(1, exist_ok=True)  # no raise

    def test_duplicate_edge_raises(self):
        graph = DiGraph()
        graph.add_edge(1, 2)
        with pytest.raises(DuplicateEdgeError):
            graph.add_edge(1, 2)
        graph.add_edge(1, 2, exist_ok=True)

    def test_self_loop_rejected(self):
        graph = DiGraph()
        with pytest.raises(GraphError):
            graph.add_edge(1, 1)

    def test_remove_edge_and_node(self):
        graph = DiGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        graph.remove_edge(1, 2)
        assert not graph.has_edge(1, 2)
        graph.remove_node(3)
        assert not graph.has_node(3)
        assert graph.num_edges == 0  # (2,3) and (3,1) removed with node 3

    def test_remove_missing_raises(self):
        graph = DiGraph()
        with pytest.raises(NodeNotFoundError):
            graph.remove_node(1)
        graph.add_node(1)
        graph.add_node(2)
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edge(1, 2)

    def test_degrees_and_neighbors(self):
        graph = DiGraph.from_edges([(1, 2), (1, 3), (3, 1)])
        assert graph.out_degree(1) == 2
        assert graph.in_degree(1) == 1
        assert graph.degree(1) == 3
        assert set(graph.successors(1)) == {2, 3}
        assert graph.predecessors(1) == [3]
        assert set(graph.neighbors(1)) == {2, 3}

    def test_degree_of_unknown_node_raises(self):
        graph = DiGraph()
        with pytest.raises(NodeNotFoundError):
            graph.out_degree(42)

    def test_edge_attributes(self):
        graph = DiGraph()
        graph.add_edge(1, 2, weight=5)
        assert graph.edge_attributes(1, 2)["weight"] == 5
        with pytest.raises(EdgeNotFoundError):
            graph.edge_attributes(2, 1)

    def test_contains_len_iter(self):
        graph = DiGraph.from_edges([(1, 2)])
        assert 1 in graph and 2 in graph and 3 not in graph
        assert len(graph) == 2
        assert list(iter(graph)) == [1, 2]

    def test_copy_is_independent(self):
        graph = DiGraph.from_edges([(1, 2)])
        clone = graph.copy()
        clone.add_edge(2, 3)
        assert not graph.has_edge(2, 3)
        assert graph == DiGraph.from_edges([(1, 2)])

    def test_equality_is_structural(self):
        first = DiGraph.from_edges([(1, 2), (2, 3)])
        second = DiGraph.from_edges([(2, 3), (1, 2)])
        assert first == second
        assert first != DiGraph.from_edges([(1, 2)])

    def test_graphs_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(DiGraph())


class TestGraphOperations:
    def test_graph_sum_definition1(self):
        first = DiGraph.from_edges([(1, 2)])
        second = DiGraph.from_edges([(2, 3)])
        total = first.graph_sum(second)
        assert set(total.nodes()) == {1, 2, 3}
        assert set(total.edges()) == {(1, 2), (2, 3)}
        # operands untouched
        assert first.num_edges == 1 and second.num_edges == 1

    def test_graph_difference_definition2_keeps_vertices(self):
        graph = DiGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        subgraph = DiGraph.from_edges([(1, 2)])
        remainder = graph.graph_difference(subgraph)
        assert set(remainder.nodes()) == {1, 2, 3}
        assert set(remainder.edges()) == {(2, 3), (3, 1)}

    def test_graph_difference_requires_subgraph(self):
        graph = DiGraph.from_edges([(1, 2)])
        with pytest.raises(NotASubgraphError):
            graph.graph_difference(DiGraph.from_edges([(2, 1)]))

    def test_edge_induced_subgraph(self):
        graph = DiGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        sub = graph.edge_induced_subgraph([(1, 2), (2, 3)])
        assert set(sub.nodes()) == {1, 2, 3}
        assert set(sub.edges()) == {(1, 2), (2, 3)}
        with pytest.raises(EdgeNotFoundError):
            graph.edge_induced_subgraph([(9, 9)])

    def test_node_induced_subgraph(self):
        graph = DiGraph.from_edges([(1, 2), (2, 3), (3, 1), (1, 4)])
        sub = graph.node_induced_subgraph([1, 2, 3])
        assert set(sub.edges()) == {(1, 2), (2, 3), (3, 1)}
        with pytest.raises(NodeNotFoundError):
            graph.node_induced_subgraph([1, 99])

    def test_relabeled(self):
        graph = DiGraph.from_edges([(1, 2)])
        renamed = graph.relabeled({1: "a", 2: "b"})
        assert renamed.has_edge("a", "b")
        with pytest.raises(GraphError):
            graph.relabeled({1: 2})  # merge forbidden

    def test_is_edge_subgraph_of(self):
        big = DiGraph.from_edges([(1, 2), (2, 3)])
        small = DiGraph.from_edges([(1, 2)])
        assert small.is_edge_subgraph_of(big)
        assert not big.is_edge_subgraph_of(small)

    def test_isolated_nodes(self):
        graph = DiGraph.from_edges([(1, 2)], nodes=[3, 4])
        assert set(graph.isolated_nodes()) == {3, 4}
        cleaned = graph.without_isolated_nodes()
        assert set(cleaned.nodes()) == {1, 2}

    def test_weakly_connected_components(self):
        graph = DiGraph.from_edges([(1, 2), (3, 4)])
        components = graph.weakly_connected_components()
        assert sorted(sorted(c) for c in components) == [[1, 2], [3, 4]]
        assert not graph.is_weakly_connected()

    def test_find_cycle_on_cyclic_graph(self, triangle_graph):
        cycle = triangle_graph.find_cycle()
        assert cycle is not None
        assert set(cycle) == {1, 2, 3}
        assert not triangle_graph.is_acyclic()

    def test_find_cycle_on_dag(self):
        dag = DiGraph.from_edges([(1, 2), (1, 3), (2, 3)])
        assert dag.find_cycle() is None
        assert dag.is_acyclic()


class TestApplicationGraph:
    def test_from_traffic_mapping(self):
        acg = ApplicationGraph.from_traffic({(1, 2): 100.0, (2, 3): 50.0}, name="t")
        assert acg.volume(1, 2) == 100.0
        assert acg.total_volume() == 150.0

    def test_from_traffic_triples_with_bandwidth_fraction(self):
        acg = ApplicationGraph.from_traffic([(1, 2, 100.0)], bandwidth_fraction=0.1)
        assert acg.bandwidth(1, 2) == pytest.approx(10.0)

    def test_add_communication_accumulates(self):
        acg = ApplicationGraph()
        acg.add_communication(1, 2, volume=10, bandwidth=1)
        acg.add_communication(1, 2, volume=5, bandwidth=2)
        assert acg.volume(1, 2) == 15
        assert acg.bandwidth(1, 2) == 3

    def test_add_communication_rejects_negative(self):
        acg = ApplicationGraph()
        with pytest.raises(GraphError):
            acg.add_communication(1, 2, volume=-1)

    def test_positions_and_link_length(self):
        acg = ApplicationGraph.from_traffic({(1, 2): 1.0})
        acg.set_position(1, 0.0, 0.0)
        acg.set_position(2, 3.0, 4.0)
        assert acg.link_length(1, 2) == pytest.approx(7.0)  # Manhattan
        assert acg.position(1) == CorePosition(0.0, 0.0)
        assert acg.has_position(1) and not acg.has_position(99) is True

    def test_set_position_unknown_node_raises(self):
        acg = ApplicationGraph()
        with pytest.raises(NodeNotFoundError):
            acg.set_position(1, 0, 0)

    def test_apply_floorplan_ignores_unknown_cores(self):
        acg = ApplicationGraph.from_traffic({(1, 2): 1.0})
        acg.apply_floorplan({1: (0, 0), 2: (1, 1), 99: (5, 5)})
        assert acg.has_position(1) and acg.has_position(2)
        assert not acg.has_position(99)

    def test_copy_preserves_positions_and_volumes(self):
        acg = ApplicationGraph.from_traffic({(1, 2): 7.0})
        acg.set_position(1, 1, 1)
        clone = acg.copy()
        assert clone.volume(1, 2) == 7.0
        assert clone.position(1) == acg.position(1)
        clone.add_communication(2, 1, volume=3)
        assert not acg.has_edge(2, 1)

    def test_structural_copy_is_plain_digraph(self):
        acg = ApplicationGraph.from_traffic({(1, 2): 7.0})
        structural = acg.structural_copy()
        assert isinstance(structural, DiGraph)
        assert not isinstance(structural, ApplicationGraph)
        assert structural.has_edge(1, 2)


class TestCorePosition:
    def test_distances(self):
        a = CorePosition(0.0, 0.0)
        b = CorePosition(3.0, 4.0)
        assert a.manhattan_distance(b) == pytest.approx(7.0)
        assert a.euclidean_distance(b) == pytest.approx(5.0)


class TestGraphStatistics:
    def test_statistics_of_acg(self, k4_acg):
        stats = GraphStatistics.of(k4_acg)
        assert stats.num_nodes == 4
        assert stats.num_edges == 12
        assert stats.density == pytest.approx(1.0)
        assert stats.is_connected
        assert stats.total_volume == pytest.approx(12 * 32.0)

    def test_statistics_of_empty_graph(self):
        stats = GraphStatistics.of(DiGraph())
        assert stats.num_nodes == 0
        assert stats.density == 0.0


class TestCachedStructuralCounters:
    """num_edges / degrees are maintained incrementally and must never drift."""

    @staticmethod
    def _assert_counters_consistent(graph: DiGraph) -> None:
        recomputed_edges = sum(len(graph.successors(node)) for node in graph.nodes())
        assert graph.num_edges == recomputed_edges
        for node in graph.nodes():
            assert graph.out_degree(node) == len(graph.successors(node))
            assert graph.in_degree(node) == len(graph.predecessors(node))
            assert graph.degree(node) == len(graph.successors(node)) + len(
                graph.predecessors(node)
            )

    def test_counters_after_interleaved_add_remove(self):
        graph = DiGraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        graph.add_edge(3, 1)
        graph.add_edge(1, 3)
        self._assert_counters_consistent(graph)
        graph.remove_edge(2, 3)
        graph.add_edge(2, 3)
        graph.remove_node(3)  # removes (3, 1), (1, 3) and (2, 3)
        self._assert_counters_consistent(graph)
        assert graph.num_edges == 1
        assert graph.degree(1) == 1

    def test_counters_survive_copy_and_difference(self):
        graph = DiGraph.from_edges([(1, 2), (2, 3), (3, 4), (4, 1)])
        clone = graph.copy()
        self._assert_counters_consistent(clone)
        remainder = graph.graph_difference(graph.edge_induced_subgraph([(1, 2), (2, 3)]))
        self._assert_counters_consistent(remainder)
        assert remainder.num_edges == 2

    def test_degree_queries_raise_for_missing_nodes(self):
        graph = DiGraph.from_edges([(1, 2)])
        with pytest.raises(NodeNotFoundError):
            graph.out_degree(99)
        with pytest.raises(NodeNotFoundError):
            graph.in_degree(99)

    def test_adjacency_map_accessors(self):
        graph = DiGraph.from_edges([(1, 2), (1, 3), (3, 1)])
        assert set(graph.successor_map(1)) == {2, 3}
        assert set(graph.predecessor_map(1)) == {3}
        with pytest.raises(NodeNotFoundError):
            graph.successor_map(99)


class TestEdgeSignature:
    def test_signature_is_insertion_order_independent(self):
        first = DiGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        second = DiGraph.from_edges([(3, 1), (1, 2), (2, 3)])
        assert first.edge_signature() == second.edge_signature()

    def test_signature_changes_and_restores_with_edge_set(self):
        graph = DiGraph.from_edges([(1, 2), (2, 3)])
        original = graph.edge_signature()
        graph.remove_edge(1, 2)
        assert graph.edge_signature() != original
        graph.add_edge(1, 2)
        assert graph.edge_signature() == original

    def test_signature_distinguishes_direction(self):
        forward = DiGraph.from_edges([(1, 2)])
        backward = DiGraph.from_edges([(2, 1)])
        assert forward.edge_signature() != backward.edge_signature()

    def test_signature_on_empty_graph(self):
        graph = DiGraph()
        graph.add_node(1)
        assert graph.edge_signature() == (0, 0)


def replay_copy(graph: DiGraph) -> DiGraph:
    """Reference copy: replay every node and edge through the public adders."""
    clone = type(graph)(name=graph.name)
    for node in graph.nodes():
        clone.add_node(node, **dict(graph.node_attributes(node)))
    for source, target, attrs in graph.edges(data=True):
        clone.add_edge(source, target, **dict(attrs))
    return clone


def assert_same_layout(actual: DiGraph, expected: DiGraph) -> None:
    """Same nodes, adjacency iteration order, degrees, attributes and identity."""
    assert actual.name == expected.name
    assert actual.nodes() == expected.nodes()
    for node in expected.nodes():
        assert list(actual.successor_map(node)) == list(expected.successor_map(node))
        assert list(actual.predecessor_map(node)) == list(expected.predecessor_map(node))
        assert actual.out_degree(node) == expected.out_degree(node)
        assert actual.in_degree(node) == expected.in_degree(node)
        assert actual.node_attributes(node) == expected.node_attributes(node)
    assert actual.edges(data=True) == expected.edges(data=True)
    assert actual.num_edges == expected.num_edges
    assert actual.edge_signature() == expected.edge_signature()
    assert actual.structural_fingerprint() == expected.structural_fingerprint()


@st.composite
def edited_graphs(draw) -> DiGraph:
    """Graphs built by adds *and* removals, so predecessor maps are not in
    source-major order the way a fresh replay would lay them out."""
    nodes = st.integers(min_value=0, max_value=7)
    graph = DiGraph(name=draw(st.sampled_from(["", "g"])))
    for node in draw(st.lists(nodes, max_size=4, unique=True)):
        graph.add_node(node, weight=node)
    operations = st.tuples(st.booleans(), nodes, nodes, st.integers(1, 9))
    for add, source, target, volume in draw(st.lists(operations, max_size=30)):
        if source == target:
            continue
        if add:
            graph.add_edge(source, target, exist_ok=True, volume=float(volume))
        elif graph.has_edge(source, target):
            graph.remove_edge(source, target)
    return graph


class TestDirectCopy:
    """``DiGraph.copy`` builds its dicts directly; it must equal a replay."""

    @settings(max_examples=60, deadline=None)
    @given(graph=edited_graphs())
    def test_copy_matches_an_add_replay(self, graph):
        assert_same_layout(graph.copy(), replay_copy(graph))

    @settings(max_examples=30, deadline=None)
    @given(graph=edited_graphs())
    def test_edge_attributes_are_shared_within_the_clone_only(self, graph):
        clone = graph.copy()
        for source, target in graph.edges():
            attrs = clone.successor_map(source)[target]
            assert attrs is clone.predecessor_map(target)[source]
            assert attrs is not graph.successor_map(source)[target]
        for node in graph.nodes():
            assert clone.node_attributes(node) is not graph.node_attributes(node)

    def test_clone_edits_leave_the_original_alone(self):
        graph = DiGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        graph.edge_attributes(1, 2)["volume"] = 4.0
        clone = graph.copy()
        clone.edge_attributes(1, 2)["volume"] = 9.0
        clone.remove_edge(2, 3)
        clone.add_edge(3, 2)
        assert graph.edge_attributes(1, 2) == {"volume": 4.0}
        assert graph.has_edge(2, 3) and not graph.has_edge(3, 2)
        assert graph.edge_signature() != clone.edge_signature()

    def test_application_graph_copy_keeps_positions_and_volumes(self):
        acg = ApplicationGraph.from_traffic({(1, 2): 7.0, (2, 3): 5.0, (3, 1): 2.0})
        acg.remove_edge(2, 3)
        acg.add_communication(3, 2, volume=4.0, bandwidth=1.0)
        acg.set_position(1, 0, 0)
        acg.set_position(3, 2, 4)
        clone = acg.copy()
        assert isinstance(clone, ApplicationGraph)
        assert_same_layout(clone, replay_copy(acg))
        assert clone.positions() == acg.positions()
        assert clone.volume(3, 2) == 4.0 and clone.bandwidth(3, 2) == 1.0
        assert clone.link_length(1, 3) == acg.link_length(1, 3)

    def test_adjacency_pairs_each_node_with_its_maps(self):
        graph = DiGraph.from_edges([(1, 2), (3, 1), (2, 3)])
        graph.remove_edge(3, 1)
        graph.add_edge(3, 1)
        for clone in (graph, graph.copy()):
            assert [
                (node, dict(outgoing), dict(incoming))
                for node, outgoing, incoming in clone.adjacency()
            ] == [
                (node, dict(clone.successor_map(node)), dict(clone.predecessor_map(node)))
                for node in clone.nodes()
            ]
