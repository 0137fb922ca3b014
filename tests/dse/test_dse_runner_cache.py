"""Tests for grid expansion, the JSONL result cache and the sweep runner."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dse.cache import ResultCache, cache_key
from repro.dse.pipeline import EvaluationSettings
from repro.dse.records import EvaluationRecord
from repro.dse.runner import axis_label, expand_grid, plan_sweep, run_sweep
from repro.dse.scenarios import aes_scenario, planted_scenario, tgff_scenario
from repro.exceptions import ConfigurationError


class TestGridExpansion:
    def test_no_axes_yields_base_cell(self):
        cells = expand_grid(EvaluationSettings(architecture="mesh"))
        assert len(cells) == 1
        assert cells[0][0] == {}
        assert cells[0][1].architecture == "mesh"

    def test_cartesian_product(self):
        cells = expand_grid(
            axes={
                "architecture": ("mesh", "custom"),
                "router_pipeline_delay_cycles": (1, 2, 3),
            }
        )
        assert len(cells) == 6
        labels = {axis_label(axes) for axes, _ in cells}
        assert "architecture=mesh,router_pipeline_delay_cycles=3" in labels
        for axes, settings in cells:
            assert settings.architecture == axes["architecture"]

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            expand_grid(axes={"architecture": ()})

    @pytest.mark.parametrize(
        "field", ["buffer_capacity_packets", "router_pipeline_delay_cycles"]
    )
    def test_invalid_simulator_knob_rejected_at_plan_time(self, field):
        with pytest.raises(ConfigurationError):
            expand_grid(axes={field: (2, 0)})
        with pytest.raises(ConfigurationError):
            EvaluationSettings().merged({field: 0})  # the search rung override path


class TestCacheKey:
    def test_key_stable_for_equal_content(self):
        scenario_a = planted_scenario(num_nodes=12, seed=11)
        scenario_b = planted_scenario(num_nodes=12, seed=11)
        settings = EvaluationSettings(architecture="custom")
        assert cache_key(scenario_a, settings) == cache_key(scenario_b, settings)

    def test_key_changes_with_seed_and_settings(self):
        settings = EvaluationSettings(architecture="custom")
        base = cache_key(planted_scenario(12, 11), settings)
        assert base != cache_key(planted_scenario(12, 12), settings)
        assert base != cache_key(
            planted_scenario(12, 11), EvaluationSettings(architecture="mesh")
        )

    def test_mesh_key_ignores_decomposition_axes(self):
        scenario = tgff_scenario(num_tasks=10, seed=7)
        first = cache_key(scenario, EvaluationSettings(architecture="mesh", library="aes"))
        second = cache_key(
            scenario, EvaluationSettings(architecture="mesh", library="extended")
        )
        assert first == second

    def test_key_stable_across_processes(self):
        """The whole point of content hashing: another interpreter (fresh
        PYTHONHASHSEED) must derive the identical key."""
        scenario = planted_scenario(num_nodes=12, seed=11)
        settings = EvaluationSettings(architecture="custom")
        script = (
            "from repro.dse.cache import cache_key\n"
            "from repro.dse.pipeline import EvaluationSettings\n"
            "from repro.dse.scenarios import planted_scenario\n"
            "print(cache_key(planted_scenario(num_nodes=12, seed=11), "
            "EvaluationSettings(architecture='custom')))\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "12345"},
            check=True,
        )
        assert completed.stdout.strip() == cache_key(scenario, settings)


class TestResultCache:
    def _record(self, key: str) -> EvaluationRecord:
        return EvaluationRecord(
            scenario="s",
            architecture="mesh",
            config_label="base",
            cache_key=key,
            metrics={"total_cycles": 10.0},
        )

    def test_round_trip_and_newest_wins(self, tmp_path):
        path = tmp_path / "results.jsonl"
        cache = ResultCache(path)
        cache.store(self._record("k1"))
        updated = self._record("k1")
        updated.metrics["total_cycles"] = 20.0
        cache.store(updated)
        cache.store(self._record("k2"))

        fresh = ResultCache(path)
        assert len(fresh) == 2
        assert fresh.get("k1").metrics["total_cycles"] == 20.0
        assert fresh.get("k1").from_cache is True
        assert "k2" in fresh

    def test_corrupt_and_foreign_lines_are_skipped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        cache = ResultCache(path)
        cache.store(self._record("k1"))
        with path.open("a", encoding="utf-8") as stream:
            stream.write('{"scenario": "trunca\n')  # simulated crash mid-write
            stream.write("[1, 2, 3]\n")  # valid JSON, not a record object
            stream.write('"just a string"\n')
            stream.write('{"unexpected": "shape"}\n')  # object without a key
        assert len(ResultCache(path)) == 1

    def test_keyless_record_rejected(self, tmp_path):
        cache = ResultCache(tmp_path / "results.jsonl")
        with pytest.raises(ValueError):
            cache.store(self._record(""))


class TestRunSweep:
    AXES = {"architecture": ("mesh", "custom")}

    def test_second_run_is_all_cache_hits(self, tmp_path):
        scenarios = [planted_scenario(num_nodes=12, seed=11)]
        cache = ResultCache(tmp_path / "results.jsonl")
        first = run_sweep(scenarios, axes=self.AXES, cache=cache)
        assert first.num_cells == 2
        assert first.cache_misses == 2 and first.cache_hits == 0

        second = run_sweep(scenarios, axes=self.AXES, cache=ResultCache(cache.path))
        assert second.cache_hits == 2 and second.cache_misses == 0
        assert second.cache_hit_fraction == 1.0
        assert [r.cache_key for r in first.records] == [r.cache_key for r in second.records]

    def test_records_come_back_in_plan_order(self):
        scenarios = [tgff_scenario(10, 7), planted_scenario(12, 11)]
        result = run_sweep(scenarios, axes=self.AXES)
        cells = plan_sweep(scenarios, axes=self.AXES)
        assert [record.cache_key for record in result.records] == [
            cell.key for cell in cells
        ]
        assert [record.scenario for record in result.records] == [
            "tgff_10_s7",
            "tgff_10_s7",
            "planted_12_s11",
            "planted_12_s11",
        ]

    def test_parallel_matches_serial(self):
        scenarios = [planted_scenario(num_nodes=12, seed=11), tgff_scenario(10, 7)]
        serial = run_sweep(scenarios, axes=self.AXES)
        parallel = run_sweep(scenarios, axes=self.AXES, parallel=True, max_workers=2)
        assert [record.cache_key for record in serial.records] == [
            record.cache_key for record in parallel.records
        ]
        for left, right in zip(serial.records, parallel.records):
            assert left.status == right.status
            assert left.metrics["total_cycles"] == right.metrics["total_cycles"]

    def test_per_scenario_pins_collapse_duplicate_cells(self):
        # the AES scenario pins library='aes'; sweeping the library axis must
        # therefore collapse to one custom evaluation shared by all cells
        result = run_sweep(
            [aes_scenario()],
            axes={"library": ("minimal", "default", "extended")},
        )
        assert result.num_cells == 3
        assert result.num_evaluations == 1
        assert result.cache_misses == 3  # no disk cache: every cell missed
        assert result.cache_hits == 0
        assert "2 duplicate cells shared an evaluation" in result.describe()
        assert len({record.cache_key for record in result.records}) == 1
        # each cell still reports under its own label and axes
        assert [record.config_label for record in result.records] == [
            "library=minimal",
            "library=default",
            "library=extended",
        ]
        assert [record.axes["library"] for record in result.records] == [
            "minimal",
            "default",
            "extended",
        ]

    def test_fabric_axes_collapse_for_custom_cells(self):
        # custom cells never read the fabric axes, so a topology x policy
        # sweep runs the expensive flow once and fans the fabric variants
        result = run_sweep(
            [planted_scenario(num_nodes=12, seed=11)],
            axes={
                "architecture": ("mesh", "custom"),
                "topology": ("mesh", "torus"),
                "routing_policy": ("xy", "up_down"),
            },
        )
        assert result.num_cells == 8
        # 4 distinct fabric cells + 1 shared custom evaluation
        assert result.num_evaluations == 5
        custom = [r for r in result.records if r.architecture == "custom"]
        assert len({record.cache_key for record in custom}) == 1
        fabric = [r for r in result.records if r.architecture == "mesh"]
        assert len({record.cache_key for record in fabric}) == 4
        # the deadlock gate stamped every routed cell
        assert all(record.deadlock_free is not None for record in result.records)

    def test_renamed_scenario_reuses_cache_under_new_name(self, tmp_path):
        # the content hash excludes the display name: a rename must hit the
        # cache, and the shared record must be re-labeled per cell
        cache = ResultCache(tmp_path / "results.jsonl")
        original = planted_scenario(num_nodes=12, seed=11)
        run_sweep([original], axes=self.AXES, cache=cache)

        renamed = planted_scenario(num_nodes=12, seed=11)
        renamed.name = "renamed_workload"
        rerun = run_sweep([renamed], axes=self.AXES, cache=ResultCache(cache.path))
        assert rerun.cache_hits == 2 and rerun.num_evaluations == 0
        assert all(record.scenario == "renamed_workload" for record in rerun.records)
