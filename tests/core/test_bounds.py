"""Unit tests for the residual lower-bound family (``repro.core.bounds``).

The admissibility *property* (every bound below the brute-force optimum)
lives in ``tests/property/test_bound_admissibility.py``; here we pin the
mechanics: offer tables, dual packing prices, the exact-small solver and
its memo, the per-search bound cache counters, and the factory surface.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    BOUND_NAMES,
    STACKED_PARTS,
    CheapestEdgeBound,
    CostModelBound,
    CoverOffer,
    ExactSmallBound,
    PackingBound,
    StackedBound,
    bound_tables,
    build_lower_bound,
)
from repro.core.cost import EnergyCostModel, LinkCountCostModel, UnitCostModel
from repro.core.decomposition import DecompositionConfig, SearchStatistics, decompose
from repro.core.graph import ApplicationGraph, DiGraph
from repro.core.library import default_library, extended_library
from repro.exceptions import DecompositionError

LINK = LinkCountCostModel()
UNIT = UnitCostModel()


def acg_from_edges(edges, name="unit") -> ApplicationGraph:
    acg = ApplicationGraph(name=name)
    for index, (source, target) in enumerate(edges):
        acg.add_communication(source, target, volume=float(8 * (index + 1)))
    return acg


def star_acg(leaves: int) -> ApplicationGraph:
    """A broadcast hub: node 0 sends to every leaf."""
    return acg_from_edges([(0, leaf) for leaf in range(1, leaves + 1)], name="star")


class TestStructuralFingerprint:
    def test_order_independent_and_exact(self):
        forward = DiGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        shuffled = DiGraph.from_edges([(3, 1), (1, 2), (2, 3)])
        assert forward.structural_fingerprint() == shuffled.structural_fingerprint()
        other = DiGraph.from_edges([(1, 2), (2, 3), (1, 3)])
        assert forward.structural_fingerprint() != other.structural_fingerprint()

    def test_isolated_nodes_do_not_enter_the_fingerprint(self):
        graph = DiGraph.from_edges([(1, 2)])
        with_isolate = DiGraph.from_edges([(1, 2)])
        with_isolate.add_node(99)
        assert graph.structural_fingerprint() == with_isolate.structural_fingerprint()


class TestBoundTables:
    def test_flat_model_yields_offers_and_prices(self):
        tables = bound_tables(default_library(), LINK)
        assert tables.flat
        assert tables.offers
        assert tables.out_prices and tables.in_prices
        # link count distributes the matching cost evenly over rep edges
        assert all(offer.flat_share is not None for offer in tables.offers)
        # the library's full-duplex primitives contribute paired offers
        assert any(offer.paired for offer in tables.offers)

    def test_additive_model_has_no_packing_prices(self):
        tables = bound_tables(default_library(), UNIT)
        assert not tables.flat
        assert tables.offers
        assert tables.out_prices == () and tables.in_prices == ()
        assert all(offer.flat_share is None for offer in tables.offers)

    def test_tables_are_memoized_per_library_and_cost_model(self):
        library = default_library()
        assert bound_tables(library, LINK) is bound_tables(library, LinkCountCostModel())
        assert bound_tables(library, LINK) is not bound_tables(library, UNIT)
        assert bound_tables(library, LINK) is not bound_tables(default_library(), LINK)

    def test_dual_prices_are_feasible_against_every_offer(self):
        tables = bound_tables(extended_library(), LINK)
        remainder = LINK.flat_remainder_edge_cost()
        for prices in (tables.out_prices, tables.in_prices):
            for y_bi, y_uni in prices:
                assert y_bi >= 0 and y_uni >= 0
                # the remainder link is always an offer: one flexible slot
                assert max(y_bi, y_uni) <= remainder + 1e-9


class TestCoverOffer:
    OFFER = CoverOffer(
        primitive_name="p",
        paired=True,
        source_out=2,
        source_in=0,
        source_bi=1,
        target_out=1,
        target_in=1,
        target_bi=1,
        hops=1,
        flat_share=1.0,
    )

    def test_paired_offer_rejects_unidirectional_edges(self):
        assert not self.OFFER.feasible(False, (9, 9, 9), (9, 9, 9))
        assert self.OFFER.feasible(True, (9, 9, 9), (9, 9, 9))

    def test_endpoint_degree_requirements_gate_feasibility(self):
        assert self.OFFER.feasible(True, (2, 0, 1), (1, 1, 1))
        assert not self.OFFER.feasible(True, (1, 0, 1), (1, 1, 1))  # source out
        assert not self.OFFER.feasible(True, (2, 0, 0), (1, 1, 1))  # source bi
        assert not self.OFFER.feasible(True, (2, 0, 1), (1, 0, 1))  # target in


class TestCheapestEdgeBound:
    def test_single_edge_never_beats_the_remainder_charge(self):
        acg = acg_from_edges([(1, 2)])
        bound = CheapestEdgeBound(bound_tables(default_library(), LINK), LINK, acg)
        value = bound.value(acg)
        assert 0 < value <= LINK.edge_remainder_cost(acg, (1, 2)) + 1e-9

    def test_empty_residual_is_free(self):
        acg = acg_from_edges([(1, 2)])
        bound = CheapestEdgeBound(bound_tables(default_library(), LINK), LINK, acg)
        assert bound.value(acg.graph_difference(acg)) == 0.0


def reference_cheapest_edge(tables, cost_model, acg, residual) -> float:
    """The per-offer loop the memoized bound replaced, kept as its oracle:
    every residual edge scans every offer of the table."""

    def paired_degree(node):
        return sum(1 for other in residual.successors(node) if residual.has_edge(other, node))

    offers = tables.offers
    degrees = {}

    def degrees_of(node):
        cached = degrees.get(node)
        if cached is None:
            cached = (residual.out_degree(node), residual.in_degree(node), paired_degree(node))
            degrees[node] = cached
        return cached

    total = 0.0
    for source, target in residual.edges():
        edge = (source, target)
        is_bidirectional = residual.has_edge(target, source)
        source_degrees = degrees_of(source)
        target_degrees = degrees_of(target)
        cheapest = cost_model.edge_remainder_cost(acg, edge)
        for offer in offers:
            if not offer.feasible(is_bidirectional, source_degrees, target_degrees):
                continue
            if offer.flat_share is not None:
                charge = offer.flat_share
            else:
                charge = cost_model.edge_cover_cost(acg, edge, offer.hops)
            if charge < cheapest:
                cheapest = charge
        total += cheapest
    return total


_LIBRARIES = {"default": default_library(), "extended": extended_library()}
_MODELS = {
    "link_count": LINK,
    "unit": UNIT,
    "unit_penalized": UnitCostModel(remainder_penalty=2.0),
    "energy": EnergyCostModel(),
}


@st.composite
def acg_with_residuals(draw):
    """A random ACG (partly floorplanned) and a few of its residuals."""
    nodes = st.integers(min_value=1, max_value=8)
    pairs = st.tuples(nodes, nodes, st.booleans()).filter(lambda pair: pair[0] != pair[1])
    edge_list = []
    # full-duplex pairs are what the paired (gossip) offers feed on
    for source, target, duplex in draw(st.lists(pairs, min_size=1, max_size=16)):
        for edge in ((source, target), (target, source)) if duplex else ((source, target),):
            if edge not in edge_list:
                edge_list.append(edge)
    acg = acg_from_edges(edge_list, name="hyp")
    for node in acg.nodes():
        if draw(st.booleans()):
            acg.set_position(node, draw(st.integers(0, 6)) * 1.5, draw(st.integers(0, 6)))
    residuals = []
    for keep in draw(
        st.lists(st.lists(st.booleans(), min_size=len(edge_list), max_size=len(edge_list)),
                 min_size=1, max_size=4)
    ):
        residual = acg.structural_copy()
        for edge, kept in zip(edge_list, keep):
            if not kept:
                residual.remove_edge(*edge)
        residuals.append(residual)
    return acg, residuals


class TestCheapestEdgeMemo:
    """The offer memo must reproduce the per-offer loop bit for bit."""

    @pytest.mark.parametrize("library_name", sorted(_LIBRARIES))
    @pytest.mark.parametrize("model_name", sorted(_MODELS))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=acg_with_residuals())
    def test_memoized_value_equals_the_per_offer_loop(self, library_name, model_name, case):
        acg, residuals = case
        library, cost_model = _LIBRARIES[library_name], _MODELS[model_name]
        tables = bound_tables(library, cost_model)
        bound = CheapestEdgeBound(tables, cost_model, acg)
        # one instance over the whole graph and its residuals, as in a search
        for residual in [acg, *residuals]:
            expected = reference_cheapest_edge(tables, cost_model, acg, residual)
            assert bound.value(residual) == expected

    def test_each_search_gets_its_own_memo(self):
        acg = acg_from_edges([(1, 2), (2, 1), (2, 3), (3, 4), (4, 1)])
        first = build_lower_bound("cheapest_edge", default_library(), LINK, acg)
        second = build_lower_bound("cheapest_edge", default_library(), LINK, acg)
        first.value(acg)
        assert first._offer_memo
        assert not second._offer_memo
        assert first._offer_memo is not second._offer_memo
        stacked = build_lower_bound("stacked", default_library(), LINK, acg)
        assert stacked.parts[0]._offer_memo is not first._offer_memo


class TestPackingBound:
    def test_abstains_for_additive_cost_models(self):
        acg = star_acg(6)
        assert PackingBound(bound_tables(default_library(), UNIT)).value(acg) == 0.0

    def test_positive_on_any_nonempty_flat_residual(self):
        acg = star_acg(6)
        assert PackingBound(bound_tables(default_library(), LINK)).value(acg) > 0.0

    def test_hub_demand_scales_with_out_degree(self):
        tables = bound_tables(default_library(), LINK)
        narrow = PackingBound(tables).value(star_acg(3))
        wide = PackingBound(tables).value(star_acg(9))
        assert wide > narrow


class TestExactSmallBound:
    def exhaustive_cost(self, acg, library, cost_model) -> float:
        config = DecompositionConfig(
            max_matchings_per_primitive=None,
            isomorphism_timeout_seconds=None,
            total_timeout_seconds=None,
            max_leaves=None,
            use_lower_bound=False,
        )
        return decompose(acg, library, cost_model, config).total_cost

    def test_matches_the_exhaustive_optimum_within_threshold(self):
        library = default_library()
        acg = acg_from_edges([(1, 2), (2, 1), (2, 3), (3, 2), (1, 4)])
        bound = ExactSmallBound(library, LINK, acg, max_edges=8)
        assert bound.value(acg) == pytest.approx(self.exhaustive_cost(acg, library, LINK))

    def test_abstains_above_the_edge_threshold(self):
        acg = star_acg(5)
        bound = ExactSmallBound(default_library(), LINK, acg, max_edges=2)
        assert bound.value(acg) == 0.0

    def test_memo_counts_hits_and_solves(self):
        statistics = SearchStatistics()
        acg = acg_from_edges([(1, 2), (2, 1), (2, 3)])
        bound = ExactSmallBound(default_library(), LINK, acg, 8, statistics=statistics)
        first = bound.value(acg)
        solved_once = statistics.exact_residuals_solved
        assert solved_once >= 1
        hits_before = statistics.bound_cache_hits
        assert bound.value(acg) == first
        assert statistics.bound_cache_hits == hits_before + 1
        assert statistics.exact_residuals_solved == solved_once


class TestStackedBound:
    def build(self, acg):
        return build_lower_bound("stacked", default_library(), LINK, acg)

    def test_parts_follow_the_documented_lazy_order(self):
        stacked = self.build(star_acg(4))
        assert isinstance(stacked, StackedBound)
        assert tuple(part.name for part in stacked.parts) == STACKED_PARTS

    def test_value_is_the_max_of_the_parts(self):
        acg = acg_from_edges([(1, 2), (2, 1), (1, 3), (3, 4)])
        stacked = self.build(acg)
        assert stacked.value(acg) == max(part.value(acg) for part in stacked.parts)

    def test_prune_reason_names_the_firing_part(self):
        acg = acg_from_edges([(1, 2), (2, 1), (1, 3), (3, 4)])
        stacked = self.build(acg)
        value = stacked.value(acg)
        assert value > 0
        reason = stacked.prune_reason(acg, value)
        assert reason in STACKED_PARTS
        assert stacked.prune_reason(acg, value + 1.0) is None

    def test_infinite_target_never_prunes(self):
        acg = acg_from_edges([(1, 2)])
        stacked = self.build(acg)
        assert stacked.prune_reason(acg, float("inf")) is None


class TestBuildLowerBound:
    def test_unknown_name_raises(self):
        acg = acg_from_edges([(1, 2)])
        with pytest.raises(DecompositionError, match="unknown lower bound"):
            build_lower_bound("nope", default_library(), LINK, acg)

    @pytest.mark.parametrize(
        "name, kind",
        [
            ("cost_model", CostModelBound),
            ("cheapest_edge", CheapestEdgeBound),
            ("packing", PackingBound),
            ("exact_small", ExactSmallBound),
            ("stacked", StackedBound),
        ],
    )
    def test_every_name_builds_its_kind(self, name, kind):
        assert name in BOUND_NAMES
        bound = build_lower_bound(name, default_library(), LINK, acg_from_edges([(1, 2)]))
        assert isinstance(bound, kind)

    def test_exact_small_threshold_is_forwarded(self):
        bound = build_lower_bound(
            "exact_small", default_library(), LINK, acg_from_edges([(1, 2)]),
            exact_small_max_edges=3,
        )
        assert bound.max_edges == 3


class TestSearchIntegration:
    CONFIG = dict(
        isomorphism_timeout_seconds=None,
        total_timeout_seconds=None,
        max_leaves=None,
    )

    def test_search_records_bound_cache_and_provenance(self):
        acg = acg_from_edges(
            [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3), (1, 4), (4, 1), (1, 3)],
            name="ring",
        )
        config = DecompositionConfig(
            max_matchings_per_primitive=3, lower_bound="stacked", **self.CONFIG
        )
        statistics = decompose(acg, default_library(), LINK, config).statistics
        assert statistics.branches_pruned > 0
        pruned_by_bounds = {
            reason: count
            for reason, count in statistics.branches_pruned_by.items()
            if reason != "transposition"
        }
        assert sum(pruned_by_bounds.values()) == statistics.branches_pruned
        assert set(pruned_by_bounds) <= set(STACKED_PARTS)
        assert statistics.bound_cache_misses > 0
        as_dict = statistics.as_dict()
        assert as_dict["branches_pruned_by"] == statistics.branches_pruned_by
        assert as_dict["bound_cache_hits"] == statistics.bound_cache_hits

    def test_disabling_the_bound_short_circuits(self):
        acg = acg_from_edges([(1, 2), (2, 1), (2, 3)])
        config = DecompositionConfig(
            max_matchings_per_primitive=3, use_lower_bound=False, **self.CONFIG
        )
        statistics = decompose(acg, default_library(), LINK, config).statistics
        assert statistics.bound_cache_hits == 0
        assert statistics.bound_cache_misses == 0
        assert set(statistics.branches_pruned_by) <= {"transposition"}
