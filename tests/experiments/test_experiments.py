"""Tests for the experiment drivers behind every figure and table."""

from __future__ import annotations

import pytest

from repro.dse.pipeline import EvaluationSettings, evaluate
from repro.dse.scenarios import aes_scenario
from repro.experiments.ablation import run_library_ablation, run_strategy_ablation
from repro.experiments.aes_experiment import (
    PAPER_AES_COST,
    PAPER_AES_PRIMITIVES,
    PAPER_AES_REMAINDER_EDGES,
)
from repro.experiments.comparison import (
    DEFAULT_PIPELINE_DELAY_CYCLES,
    PAPER_RESULTS,
    evaluate_custom,
    evaluate_fabric,
    export_comparison_topologies,
    run_prototype_comparison,
)
from repro.experiments.example_decomposition import EXPECTED_PRIMITIVE_COUNTS, run_figure5_example
from repro.experiments.reporting import (
    format_series,
    format_table,
    improvement_factor,
    percentage_change,
    rows_to_csv,
)
from repro.experiments.runtime_sweep import run_pajek_runtime_sweep, run_tgff_runtime_sweep
from repro.workloads.random_acg import figure5_example_acg


class TestReportingHelpers:
    def test_format_table_alignment_and_title(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}]
        text = format_table(rows, title="demo")
        assert text.splitlines()[0] == "demo"
        assert "a" in text and "0.125" in text

    def test_format_table_empty(self):
        assert format_table([], title="nothing") == "nothing"

    def test_format_table_unions_heterogeneous_rows(self):
        """Columns come from all rows, not just rows[0] (mesh records lack the
        decomposition columns that custom records carry)."""
        rows = [{"a": 1}, {"a": 2, "b": "late"}, {"c": 3.5}]
        text = format_table(rows)
        header = text.splitlines()[0]
        assert "a" in header and "b" in header and "c" in header
        assert "late" in text and "3.500" in text

    def test_rows_to_csv_unions_heterogeneous_rows(self):
        rows = [{"x": 1}, {"x": 2, "y": "extra"}]
        text = rows_to_csv(rows)
        assert text.splitlines()[0] == "x,y"
        assert "extra" in text

    def test_percentage_change_and_factor(self):
        assert percentage_change(100, 136) == pytest.approx(36.0)
        assert percentage_change(5.1, 2.5) == pytest.approx(-50.98, abs=0.01)
        assert improvement_factor(5.1, 2.5) == pytest.approx(2.04, abs=0.01)
        with pytest.raises(ValueError):
            percentage_change(0, 1)
        with pytest.raises(ValueError):
            improvement_factor(1, 0)

    def test_rows_to_csv(self, tmp_path):
        rows = [{"x": 1, "y": "a"}, {"x": 2, "y": "b"}]
        path = tmp_path / "out.csv"
        text = rows_to_csv(rows, path)
        assert "x,y" in text
        assert path.read_text(encoding="utf-8") == text
        assert rows_to_csv([]) == ""

    def test_format_series(self):
        text = format_series([(10, 0.1), (20, 0.4)], x_label="nodes", y_label="runtime")
        assert "nodes" in text and "runtime" in text


class TestFigure4Sweeps:
    def test_tgff_sweep_small(self):
        result = run_tgff_runtime_sweep(sizes=(5, 8))
        assert len(result.points) == 2
        assert all(point.runtime_seconds >= 0 for point in result.points)
        assert all(point.covered_fraction > 0 for point in result.points)
        series = result.average_runtime_by_size()
        assert [size for size, _ in series] == [5, 8]
        assert "avg_runtime_s" in result.describe("t")

    def test_tgff_sweep_includes_automotive_benchmark(self):
        result = run_tgff_runtime_sweep(sizes=(18,))
        assert result.points[0].num_nodes == 18
        assert result.points[0].name == "tgff_automotive_18"

    def test_pajek_sweep_runtime_grows_with_size(self):
        result = run_pajek_runtime_sweep(sizes=(10, 20), instances_per_size=2)
        series = dict(result.average_runtime_by_size())
        assert set(series) == {10, 20}
        assert result.max_runtime() >= max(series.values()) - 1e-9
        assert len(result.to_rows()) == 4

    def test_sweep_points_carry_search_statistics(self):
        result = run_tgff_runtime_sweep(sizes=(5, 8))
        assert all("matchings_tried" in point.search_statistics for point in result.points)
        summary = result.cache_summary()
        assert summary["matchings_tried"] > 0
        assert summary["matching_cache_hits"] >= 0



class TestFigure5Example:
    def test_matches_paper_listing(self):
        result = run_figure5_example()
        assert result.matches_paper_listing
        assert result.primitive_counts == EXPECTED_PRIMITIVE_COUNTS
        assert result.runtime_seconds < 5.0
        assert "MGG4" in result.describe()


class TestAesExperiment:
    def test_decomposition_matches_paper(self, aes_synthesis):
        assert aes_synthesis.matches_paper_primitives, aes_synthesis.primitive_counts
        assert aes_synthesis.matches_paper_cost
        assert aes_synthesis.decomposition.total_cost == pytest.approx(PAPER_AES_COST)
        assert aes_synthesis.matches_paper_remainder
        assert aes_synthesis.decomposition.remainder.num_edges == PAPER_AES_REMAINDER_EDGES

    def test_columns_and_rows_mapped_as_in_paper(self, aes_synthesis):
        assert aes_synthesis.columns_mapped_to_gossip
        assert aes_synthesis.shift_rows_mapped_to_loops
        assert aes_synthesis.matches_paper
        assert aes_synthesis.primitive_counts == PAPER_AES_PRIMITIVES

    def test_listing_format(self, aes_synthesis):
        text = aes_synthesis.decomposition.describe()
        assert "COST: 28" in text
        assert "MGG4,  Mapping: (1 1), (2 5), (3 9), (4 13)" in text

    def test_describe_mentions_paper_reference(self, aes_synthesis):
        assert "paper" in aes_synthesis.describe()


#: DSE record metric -> the prototype comparison's ArchitectureMetrics field
RECORD_FIELDS = {
    "cycles_per_iteration": "cycles_per_block",
    "throughput_mbps": "throughput_mbps",
    "avg_latency_cycles": "average_latency_cycles",
    "avg_hops": "average_hops",
    "avg_power_mw": "average_power_mw",
    "energy_per_iteration_uj": "energy_per_block_uj",
    "physical_links": "num_physical_links",
    "max_channel_utilization": "max_channel_utilization",
    "total_cycles": "total_cycles",
}


@pytest.fixture(scope="module")
def comparison(aes_synthesis):
    return run_prototype_comparison(blocks=1, synthesis=aes_synthesis)


class TestPrototypeComparison:
    def test_custom_wins_on_performance(self, comparison):
        assert comparison.custom.cycles_per_block < comparison.mesh.cycles_per_block
        assert comparison.custom.throughput_mbps > comparison.mesh.throughput_mbps
        assert comparison.custom.average_latency_cycles < comparison.mesh.average_latency_cycles
        assert comparison.custom_wins_everywhere

    def test_custom_wins_on_energy(self, comparison):
        assert comparison.custom.energy_per_block_uj < comparison.mesh.energy_per_block_uj

    def test_improvement_factors_in_paper_ballpark(self, comparison):
        """Shape criterion: who wins and by roughly what factor (paper: +36%
        throughput, -17% latency, -51% energy)."""
        assert 15.0 <= comparison.throughput_increase_percent <= 90.0
        assert 5.0 <= comparison.latency_reduction_percent <= 40.0
        assert 10.0 <= comparison.energy_reduction_percent <= 70.0
        assert 15.0 <= comparison.cycles_reduction_percent <= 50.0

    def test_mesh_operating_point_close_to_paper(self, comparison):
        """The mesh baseline lands near the paper's 271 cycles/block."""
        paper = PAPER_RESULTS["mesh"]["cycles_per_block"]
        assert 0.5 * paper <= comparison.mesh.cycles_per_block <= 1.5 * paper

    def test_all_traffic_delivered(self, comparison):
        assert comparison.mesh.total_cycles > 0
        assert comparison.custom.total_cycles > 0
        assert comparison.mesh.num_physical_links == 24

    def test_describe_reports_paper_deltas(self, comparison):
        text = comparison.describe()
        assert "paper: +36%" in text
        assert "paper: -51%" in text

    def test_evaluate_helpers_reject_invalid_blocks(self, aes_synthesis):
        from repro.exceptions import ConfigurationError, SimulationError

        with pytest.raises(ConfigurationError):
            evaluate_fabric(blocks=0)
        with pytest.raises(ConfigurationError):
            evaluate_custom(aes_synthesis.architecture, blocks=0)
        with pytest.raises(SimulationError):
            evaluate_fabric(blocks=1, computation_cycles_per_phase=-1)

    @pytest.mark.parametrize("architecture", ["mesh", "custom"])
    def test_matches_the_dse_aes_scenario(self, comparison, architecture):
        """The Section-5.2 tables and the DSE ``aes`` scenario are one
        measurement: every figure agrees bit for bit."""
        record = evaluate(
            aes_scenario(1),
            EvaluationSettings(
                architecture=architecture,
                router_pipeline_delay_cycles=DEFAULT_PIPELINE_DELAY_CYCLES,
            ),
        )
        assert record.succeeded, record.error
        side = getattr(comparison, architecture)
        assert {name: record.metrics[name] for name in RECORD_FIELDS} == {
            name: float(getattr(side, field)) for name, field in RECORD_FIELDS.items()
        }

    def test_rows_export(self, comparison):
        rows = comparison.to_rows()
        assert len(rows) == 2
        assert rows[0]["architecture"] == "mesh_4x4"


class TestExportComparisonTopologies:
    def test_writes_both_fabrics_exactly(self, aes_synthesis, tmp_path):
        from repro.io import read_topology

        paths = export_comparison_topologies(tmp_path, synthesis=aes_synthesis)
        assert sorted(paths) == ["custom", "mesh"]
        assert read_topology(paths["mesh"]).num_routers == 16
        custom = read_topology(paths["custom"])
        assert custom.signature() == aes_synthesis.architecture.topology.signature()

    def test_any_registered_format_works(self, aes_synthesis, tmp_path):
        paths = export_comparison_topologies(tmp_path, synthesis=aes_synthesis,
                                             fmt="pajek")
        assert paths["mesh"].suffix == ".net"


class TestAblations:
    def test_strategy_ablation_bnb_not_worse(self):
        acgs = [figure5_example_acg()]
        result = run_strategy_ablation(acgs=acgs, timeout_seconds=15)
        bnb = result.cost_of("figure5_example", "branch_and_bound")
        greedy = result.cost_of("figure5_example", "greedy")
        assert bnb <= greedy + 1e-9
        assert len(result.rows_for("figure5_example")) == 2
        with pytest.raises(KeyError):
            result.cost_of("figure5_example", "bogus")

    def test_library_ablation_richer_library_not_worse(self):
        acgs = [figure5_example_acg()]
        result = run_library_ablation(acgs=acgs, timeout_seconds=15)
        minimal = result.cost_of("figure5_example", "minimal_library")
        default = result.cost_of("figure5_example", "default_library")
        assert default <= minimal + 1e-9
        assert "configuration" in result.describe("lib")
