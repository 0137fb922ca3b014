"""Unit tests for the VF2 subgraph-isomorphism engine (Definition 3/4)."""

from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import DiGraph
from repro.core.isomorphism import (
    IsomorphismMapping,
    MatcherOptions,
    VF2Matcher,
    are_isomorphic,
    find_all_subgraph_isomorphisms,
    find_subgraph_isomorphism,
    has_subgraph_isomorphic_to,
)


def complete_digraph(n: int) -> DiGraph:
    graph = DiGraph()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                graph.add_edge(i, j)
    return graph


def directed_cycle(n: int, offset: int = 0) -> DiGraph:
    graph = DiGraph()
    nodes = [offset + i for i in range(1, n + 1)]
    for a, b in zip(nodes, nodes[1:] + nodes[:1]):
        graph.add_edge(a, b)
    return graph


class TestBasicMatching:
    def test_single_edge_pattern(self):
        pattern = DiGraph.from_edges([("a", "b")])
        target = DiGraph.from_edges([(1, 2), (2, 3)])
        mapping = find_subgraph_isomorphism(pattern, target)
        assert mapping is not None
        as_dict = mapping.as_dict()
        assert target.has_edge(as_dict["a"], as_dict["b"])

    def test_no_match_when_pattern_larger(self):
        pattern = complete_digraph(4)
        target = complete_digraph(3)
        assert find_subgraph_isomorphism(pattern, target) is None

    def test_no_match_when_edges_insufficient(self):
        pattern = DiGraph.from_edges([(1, 2), (2, 3)])
        target = DiGraph.from_edges([(1, 2)], nodes=[3])
        assert not has_subgraph_isomorphic_to(pattern, target)

    def test_directed_edge_orientation_matters(self):
        pattern = DiGraph.from_edges([(1, 2)])
        reversed_target = DiGraph.from_edges([(2, 1)])
        # a single directed edge matches any directed edge (relabeling is free)
        assert has_subgraph_isomorphic_to(pattern, reversed_target)
        # but a 2-cycle pattern needs both directions in the target
        two_cycle = DiGraph.from_edges([(1, 2), (2, 1)])
        assert not has_subgraph_isomorphic_to(two_cycle, reversed_target)

    def test_cycle_in_cycle(self):
        assert has_subgraph_isomorphic_to(directed_cycle(3), directed_cycle(3, offset=10))
        assert not has_subgraph_isomorphic_to(directed_cycle(4), directed_cycle(3))

    def test_cycle_within_complete_graph(self):
        assert has_subgraph_isomorphic_to(directed_cycle(4), complete_digraph(4))

    def test_star_pattern_in_dense_graph(self):
        star = DiGraph.from_edges([(0, 1), (0, 2), (0, 3)])
        target = complete_digraph(4)
        mapping = find_subgraph_isomorphism(star, target)
        assert mapping is not None
        assert len(mapping.target_nodes()) == 4

    def test_empty_pattern_yields_nothing(self):
        matcher = VF2Matcher(DiGraph(), complete_digraph(3))
        assert matcher.find_one() is None


class TestMonomorphismVsInduced:
    def test_monomorphism_allows_extra_target_edges(self):
        pattern = DiGraph.from_edges([(1, 2), (2, 3)])  # a path
        target = complete_digraph(3)  # plenty of extra edges
        assert find_subgraph_isomorphism(pattern, target, induced=False) is not None

    def test_induced_forbids_extra_target_edges(self):
        path = DiGraph.from_edges([(1, 2), (2, 3)])
        target = complete_digraph(3)
        assert find_subgraph_isomorphism(path, target, induced=True) is None

    def test_induced_matches_exact_structure(self):
        pattern = directed_cycle(4)
        target = directed_cycle(4, offset=5)
        assert find_subgraph_isomorphism(pattern, target, induced=True) is not None


class TestEnumeration:
    def test_deduplication_by_edge_set(self):
        # the 4-cycle has 4 automorphisms; with edge-set dedup only 1 result
        matches = find_all_subgraph_isomorphisms(directed_cycle(4), directed_cycle(4))
        assert len(matches) == 1

    def test_enumeration_without_dedup_counts_automorphisms(self):
        matcher = VF2Matcher(
            directed_cycle(4),
            directed_cycle(4),
            MatcherOptions(deduplicate_by_edges=False),
        )
        assert len(matcher.find_all()) == 4

    def test_multiple_distinct_matches(self):
        pattern = DiGraph.from_edges([(1, 2)])
        target = DiGraph.from_edges([(1, 2), (3, 4)])
        matches = find_all_subgraph_isomorphisms(pattern, target)
        covered = {match.covered_edges(pattern) for match in matches}
        assert covered == {frozenset({(1, 2)}), frozenset({(3, 4)})}

    def test_limit_respected(self):
        pattern = DiGraph.from_edges([(1, 2)])
        target = complete_digraph(5)
        matches = find_all_subgraph_isomorphisms(pattern, target, limit=3)
        assert len(matches) == 3

    def test_states_explored_counter(self):
        matcher = VF2Matcher(directed_cycle(3), complete_digraph(4))
        matcher.find_one()
        assert matcher.states_explored > 0


class TestNodeCompatibilityAndTimeout:
    def test_node_compatibility_filter(self):
        pattern = DiGraph.from_edges([(1, 2)])
        target = DiGraph.from_edges([("a", "b"), ("c", "d")])
        options = MatcherOptions(node_compatible=lambda p, t: t in ("c", "d"))
        matcher = VF2Matcher(pattern, target, options)
        mapping = matcher.find_one()
        assert mapping is not None
        assert mapping.target_nodes() == {"c", "d"}

    def test_timeout_returns_gracefully(self):
        pattern = complete_digraph(6)
        target = complete_digraph(12)
        options = MatcherOptions(timeout_seconds=0.0)
        matcher = VF2Matcher(pattern, target, options)
        assert matcher.find_all() == []
        # the truncation is observable, so callers (e.g. the decomposition's
        # matching cache) can tell a complete enumeration from a cut-off one
        assert matcher.timed_out

    def test_complete_enumeration_reports_no_timeout(self):
        pattern = DiGraph.from_edges([(1, 2)])
        target = DiGraph.from_edges([("a", "b"), ("b", "c")])
        matcher = VF2Matcher(pattern, target, MatcherOptions(timeout_seconds=30.0))
        assert len(matcher.find_all()) == 2
        assert not matcher.timed_out


class TestGraphIsomorphism:
    def test_isomorphic_cycles(self):
        assert are_isomorphic(directed_cycle(5), directed_cycle(5, offset=100))

    def test_non_isomorphic_different_sizes(self):
        assert not are_isomorphic(directed_cycle(4), directed_cycle(5))

    def test_non_isomorphic_same_size_different_structure(self):
        cycle = directed_cycle(4)
        path_plus = DiGraph.from_edges([(1, 2), (2, 3), (3, 4), (1, 3)])
        assert not are_isomorphic(cycle, path_plus)

    def test_degree_signature_shortcut(self):
        star_out = DiGraph.from_edges([(0, 1), (0, 2), (0, 3)])
        star_in = DiGraph.from_edges([(1, 0), (2, 0), (3, 0)])
        assert not are_isomorphic(star_out, star_in)


class TestIsomorphismMapping:
    def test_mapping_accessors(self):
        mapping = IsomorphismMapping.from_dict({1: "x", 2: "y"})
        assert mapping.as_dict() == {1: "x", 2: "y"}
        assert mapping.image(1) == "x"
        assert mapping.target_nodes() == {"x", "y"}
        assert len(mapping) == 2
        with pytest.raises(KeyError):
            mapping.image(3)

    def test_covered_edges(self):
        pattern = DiGraph.from_edges([(1, 2)])
        mapping = IsomorphismMapping.from_dict({1: "x", 2: "y"})
        assert mapping.covered_edges(pattern) == frozenset({("x", "y")})


def brute_force_mappings(pattern: DiGraph, target: DiGraph, induced: bool) -> set:
    """Every injective node map that is a monomorphism (``induced``: an
    induced subgraph isomorphism), by trying all of them."""
    pattern_nodes = pattern.nodes()
    found = set()
    for image in permutations(target.nodes(), len(pattern_nodes)):
        mapping = dict(zip(pattern_nodes, image))
        if not all(target.has_edge(mapping[s], mapping[t]) for s, t in pattern.edges()):
            continue
        if induced and any(
            target.has_edge(mapping[a], mapping[b]) and not pattern.has_edge(a, b)
            for a in pattern_nodes
            for b in pattern_nodes
            if a != b
        ):
            continue
        found.add(IsomorphismMapping.from_dict(mapping))
    return found


def small_digraphs(max_nodes: int, max_edges: int):
    nodes = st.integers(min_value=0, max_value=max_nodes - 1)
    edges = st.tuples(nodes, nodes).filter(lambda edge: edge[0] != edge[1])
    return st.lists(edges, min_size=1, max_size=max_edges, unique=True).map(DiGraph.from_edges)


class TestBruteForceOracle:
    """VF2 against exhaustive enumeration on small random digraphs."""

    @pytest.mark.parametrize("induced", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(pattern=small_digraphs(4, 6), target=small_digraphs(6, 14))
    def test_find_all_enumerates_exactly_the_brute_force_set(self, induced, pattern, target):
        matcher = VF2Matcher(
            pattern, target, MatcherOptions(induced=induced, deduplicate_by_edges=False)
        )
        found = matcher.find_all(limit=None)
        assert len(found) == len(set(found))
        assert set(found) == brute_force_mappings(pattern, target, induced)

    @settings(max_examples=40, deadline=None)
    @given(pattern=small_digraphs(4, 6), target=small_digraphs(6, 14))
    def test_deduplication_keeps_one_mapping_per_covered_edge_set(self, pattern, target):
        found = VF2Matcher(pattern, target).find_all(limit=None)
        edge_sets = [mapping.covered_edges(pattern) for mapping in found]
        assert len(edge_sets) == len(set(edge_sets))
        assert set(edge_sets) == {
            mapping.covered_edges(pattern)
            for mapping in brute_force_mappings(pattern, target, induced=False)
        }
