"""Unit tests for topology synthesis (gluing + routing + checks)."""

from __future__ import annotations

import pytest

from repro.arch.custom import CustomTopology
from repro.core.cost import LinkCountCostModel
from repro.core.decomposition import DecompositionConfig, decompose
from repro.core.synthesis import (
    SynthesisOptions,
    TopologySynthesizer,
    synthesize_architecture,
)
from repro.exceptions import RoutingError


def quick_config() -> DecompositionConfig:
    return DecompositionConfig(max_matchings_per_primitive=4, total_timeout_seconds=20.0)


@pytest.fixture()
def k4_result(k4_acg, library):
    return decompose(k4_acg, library, cost_model=LinkCountCostModel(), config=quick_config())


class TestBuildTopology:
    def test_k4_topology_is_mgg4(self, k4_acg, k4_result):
        architecture = synthesize_architecture(k4_acg, k4_result)
        topology = architecture.topology
        assert isinstance(topology, CustomTopology)
        assert topology.num_routers == 4
        assert topology.num_physical_links == 4  # the MGG-4 ring
        assert topology.num_channels == 8  # full duplex

    def test_router_positions_copied_from_floorplan(self, k4_acg, k4_result):
        architecture = synthesize_architecture(k4_acg, k4_result)
        for node in k4_acg.nodes():
            assert architecture.topology.has_position(node)
            assert architecture.topology.position(node) == k4_acg.position(node)

    def test_channel_lengths_follow_floorplan(self, k4_acg, k4_result):
        architecture = synthesize_architecture(k4_acg, k4_result)
        for channel in architecture.topology.channels():
            expected = k4_acg.link_length(channel.source, channel.target)
            assert channel.length_mm == pytest.approx(expected)

    def test_provenance_labels(self, k4_acg, k4_result):
        architecture = synthesize_architecture(k4_acg, k4_result)
        summary = architecture.topology.provenance_summary()
        assert any(label.startswith("MGG4#") for label in summary)

    def test_remainder_edges_become_direct_links(self, pipeline_acg, library):
        result = decompose(
            pipeline_acg, library, cost_model=LinkCountCostModel(), config=quick_config()
        )
        architecture = synthesize_architecture(pipeline_acg, result)
        for source, target in result.remainder.edges():
            assert architecture.topology.has_channel(source, target)

    def test_bidirectional_option_doubles_channels(self, k4_acg, k4_result):
        unidirectional = TopologySynthesizer(
            SynthesisOptions(bidirectional_links=False)
        ).build_topology(k4_acg, k4_result)
        bidirectional = TopologySynthesizer(
            SynthesisOptions(bidirectional_links=True)
        ).build_topology(k4_acg, k4_result)
        assert bidirectional.num_channels >= unidirectional.num_channels
        # MGG-4 already contains both directions, so physical links are equal
        assert bidirectional.num_physical_links == unidirectional.num_physical_links


class TestRoutingTableGeneration:
    def test_every_acg_edge_is_routable(self, k4_acg, k4_result):
        architecture = synthesize_architecture(k4_acg, k4_result)
        for source, target in k4_acg.edges():
            route = architecture.routing_table.route(source, target)
            assert route[0] == source and route[-1] == target

    def test_routes_follow_primitive_schedules(self, k4_acg, k4_result):
        """Two-hop gossip routes must go through the intermediate node the
        MGG-4 schedule prescribes, not an arbitrary neighbour."""
        architecture = synthesize_architecture(k4_acg, k4_result)
        matching = k4_result.matchings[0]
        for edge, expected_route in matching.routes_in_cores().items():
            assert tuple(architecture.routing_table.route(*edge)) == expected_route

    def test_fill_all_pairs_option(self, k4_acg, k4_result):
        architecture = synthesize_architecture(
            k4_acg, k4_result, options=SynthesisOptions(fill_all_pairs_routing=True)
        )
        for source in k4_acg.nodes():
            for target in k4_acg.nodes():
                if source != target:
                    assert architecture.routing_table.has_route(source, target)

    def test_unrelated_pairs_not_routed_by_default(self, pipeline_acg, library):
        result = decompose(
            pipeline_acg, library, cost_model=LinkCountCostModel(), config=quick_config()
        )
        architecture = synthesize_architecture(pipeline_acg, result)
        with pytest.raises(RoutingError):
            architecture.routing_table.route(5, 1)  # reverse of the pipeline


class TestArchitectureChecks:
    def test_constraint_and_deadlock_reports_present(self, k4_acg, k4_result):
        architecture = synthesize_architecture(k4_acg, k4_result)
        assert architecture.constraint_report is not None
        assert architecture.deadlock_report is not None
        assert architecture.is_feasible

    def test_describe_mentions_primitives_and_links(self, k4_acg, k4_result):
        architecture = synthesize_architecture(k4_acg, k4_result)
        text = architecture.describe()
        assert "MGG4" in text
        assert "physical links" in text


class TestAesSynthesisStructure:
    def test_aes_topology_contains_column_rings(self, aes_synthesis):
        """Every AES state column must be connected by the MGG-4 ring links."""
        topology = aes_synthesis.architecture.topology
        for column_start in (1, 2, 3, 4):
            column = [column_start, column_start + 4, column_start + 8, column_start + 12]
            internal_links = {
                frozenset((s, t))
                for s, t in ((a, b) for a in column for b in column if a != b)
                if topology.has_channel(s, t)
            }
            assert len(internal_links) == 4  # the MGG-4 ring

    def test_aes_topology_router_count(self, aes_synthesis):
        assert aes_synthesis.architecture.topology.num_routers == 16

    def test_aes_architecture_feasible(self, aes_synthesis):
        assert aes_synthesis.architecture.is_feasible
