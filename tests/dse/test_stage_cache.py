"""Tests for stage sub-key derivation, the artifact store and stage reuse.

The property tests pin the tentpole invariant of the stage-granular cache:
two settings that differ only in simulator-stage fields must share a
decomposition sub-key (so a simulator-axis sweep runs the search once),
while a change to any decomposition-stage field must alter it.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings as hypothesis_settings
from hypothesis import strategies as st

from repro.dse.cache import (
    StageArtifactStore,
    StageContext,
    decomposition_stage_key,
    rebuild_decomposition,
    serialize_decomposition,
    synthesis_stage_key,
)
from repro.dse.pipeline import (
    EvaluationSettings,
    evaluate,
    run_decomposition_search,
)
from repro.dse.records import (
    STAGE_COMPUTED,
    STAGE_REUSED_MEMORY,
    STAGE_REUSED_STORE,
)
from repro.dse.runner import plan_sweep, run_sweep
from repro.dse.scenarios import planted_scenario, tgff_scenario

#: one deterministic workload per module: key derivation is settings-driven
SCENARIO = tgff_scenario(num_tasks=10, seed=7)

#: generators for simulator-stage field values (anything the stage accepts)
_SIMULATOR_AXES = {
    "technology": st.sampled_from(
        ["cmos_100nm", "cmos_130nm", "cmos_180nm", "fpga_virtex2"]
    ),
    "router_pipeline_delay_cycles": st.integers(min_value=1, max_value=5),
    "buffer_capacity_packets": st.integers(min_value=1, max_value=16),
    "max_cycles": st.integers(min_value=1_000, max_value=500_000),
}

#: decomposition-stage fields with two distinct valid values each
_DECOMPOSITION_VARIANTS = {
    "strategy": ("branch_and_bound", "greedy"),
    "library": ("default", "extended"),
    "max_matchings_per_primitive": (3, 4),
    "isomorphism_timeout_seconds": (2.0, 4.0),
    "decomposition_timeout_seconds": (20.0, 40.0),
    "max_nodes_expanded": (400, 800),
    "lower_bound": ("stacked", "cost_model"),
}


class TestSubKeyDerivation:
    @hypothesis_settings(
        max_examples=50, suppress_health_check=[HealthCheck.too_slow], deadline=None
    )
    @given(
        overrides=st.fixed_dictionaries(
            {},
            optional={
                name: strategy for name, strategy in _SIMULATOR_AXES.items()
            },
        )
    )
    def test_simulator_only_changes_share_decomposition_sub_key(self, overrides):
        base = EvaluationSettings(architecture="custom")
        varied = base.merged(overrides)
        assert decomposition_stage_key(SCENARIO, base) == decomposition_stage_key(
            SCENARIO, varied
        )
        # the synthesis sub-key is simulator-independent too
        assert synthesis_stage_key(SCENARIO, base) == synthesis_stage_key(
            SCENARIO, varied
        )
        # ... but the cell key is not (unless nothing was overridden)
        if any(
            getattr(varied, name) != getattr(base, name) for name in _SIMULATOR_AXES
        ):
            from repro.dse.cache import cache_key

            assert cache_key(SCENARIO, base) != cache_key(SCENARIO, varied)

    @pytest.mark.parametrize("field_name", sorted(_DECOMPOSITION_VARIANTS))
    def test_any_decomposition_field_change_alters_sub_key(self, field_name):
        first, second = _DECOMPOSITION_VARIANTS[field_name]
        key_a = decomposition_stage_key(
            SCENARIO, EvaluationSettings(architecture="custom", **{field_name: first})
        )
        key_b = decomposition_stage_key(
            SCENARIO, EvaluationSettings(architecture="custom", **{field_name: second})
        )
        assert key_a != key_b

    def test_synthesis_key_layers_on_decomposition_key(self):
        base = EvaluationSettings(architecture="custom")
        wider_flits = base.merged({"flit_width_bits": 64})
        # synthesis fields leave the decomposition sub-key alone ...
        assert decomposition_stage_key(SCENARIO, base) == decomposition_stage_key(
            SCENARIO, wider_flits
        )
        # ... but distinguish the synthesis sub-key
        assert synthesis_stage_key(SCENARIO, base) != synthesis_stage_key(
            SCENARIO, wider_flits
        )

    def test_workload_structure_enters_the_key(self):
        other = tgff_scenario(num_tasks=10, seed=8)
        settings = EvaluationSettings(architecture="custom")
        assert decomposition_stage_key(SCENARIO, settings) != decomposition_stage_key(
            other, settings
        )

    def test_lower_bound_is_normalized_away_for_mesh(self):
        # the bound only steers the decomposition search, which mesh
        # baselines never run: canonical_dict must null it out so a
        # lower_bound sweep collapses onto one mesh cell
        mesh_stacked = EvaluationSettings(architecture="mesh", lower_bound="stacked")
        mesh_legacy = EvaluationSettings(architecture="mesh", lower_bound="cost_model")
        assert mesh_stacked.canonical_dict() == mesh_legacy.canonical_dict()
        custom_stacked = EvaluationSettings(architecture="custom", lower_bound="stacked")
        custom_legacy = EvaluationSettings(architecture="custom", lower_bound="cost_model")
        assert custom_stacked.canonical_dict() != custom_legacy.canonical_dict()

    def test_traffic_knobs_do_not_enter_the_key(self):
        driven_harder = tgff_scenario(num_tasks=10, seed=7)
        driven_harder.repetitions = 3
        driven_harder.packet_size_bits = 64
        settings = EvaluationSettings(architecture="custom")
        assert decomposition_stage_key(SCENARIO, settings) == decomposition_stage_key(
            driven_harder, settings
        )


class TestStageArtifactStore:
    def test_round_trip_preserves_the_decomposition(self, tmp_path):
        settings = EvaluationSettings(architecture="custom")
        decomposition = run_decomposition_search(SCENARIO, settings, settings.build_library())
        store = StageArtifactStore(tmp_path)
        key = decomposition_stage_key(SCENARIO, settings)
        store.store_decomposition(key, decomposition)
        assert len(store) == 1

        loaded = store.load_decomposition(key, SCENARIO.acg, settings.build_library())
        assert loaded is not None
        assert loaded.total_cost == decomposition.total_cost
        assert [m.assignment for m in loaded.matchings] == [
            m.assignment for m in decomposition.matchings
        ]
        assert sorted(loaded.remainder.edges()) == sorted(
            decomposition.remainder.edges()
        )
        assert loaded.statistics.truncated == decomposition.statistics.truncated
        loaded.validate_cover()

    def test_missing_and_corrupt_artifacts_are_absent_not_errors(self, tmp_path):
        store = StageArtifactStore(tmp_path)
        settings = EvaluationSettings(architecture="custom")
        library = settings.build_library()
        assert store.load_decomposition("nope", SCENARIO.acg, library) is None
        (tmp_path / "decompose_bad.json").write_text("{ truncated", encoding="utf-8")
        assert store.load_decomposition("bad", SCENARIO.acg, library) is None

    def test_stale_artifact_is_rejected_by_cost_check(self, tmp_path):
        settings = EvaluationSettings(architecture="custom")
        decomposition = run_decomposition_search(SCENARIO, settings, settings.build_library())
        payload = serialize_decomposition(decomposition)
        payload["total_cost"] = float(payload["total_cost"]) + 1.0
        assert (
            rebuild_decomposition(payload, SCENARIO.acg, settings.build_library())
            is None
        )

    def test_artifact_against_wrong_workload_is_rejected(self, tmp_path):
        settings = EvaluationSettings(architecture="custom")
        decomposition = run_decomposition_search(SCENARIO, settings, settings.build_library())
        payload = serialize_decomposition(decomposition)
        other = planted_scenario(num_nodes=12, seed=11)
        assert (
            rebuild_decomposition(payload, other.acg, settings.build_library()) is None
        )


class TestStageContext:
    def test_memory_then_store_provenance(self, tmp_path):
        settings = EvaluationSettings(architecture="custom")
        store = StageArtifactStore(tmp_path)
        context = StageContext(store)
        first, provenance = context.decomposition_for(SCENARIO, settings)
        assert provenance == STAGE_COMPUTED
        again, provenance = context.decomposition_for(SCENARIO, settings)
        assert provenance == STAGE_REUSED_MEMORY
        assert again is first
        # a fresh context (fresh process) finds the artifact on disk
        from_disk, provenance = StageContext(store).decomposition_for(SCENARIO, settings)
        assert provenance == STAGE_REUSED_STORE
        assert from_disk.total_cost == first.total_cost

    def test_one_library_build_per_memo_miss(self, tmp_path):
        """A memo miss builds one library, shared by the artifact load and
        the search; a memo hit builds none."""
        from repro.core.library import default_library
        from repro.dse.pipeline import LIBRARIES

        builds = []

        def counting_library():
            builds.append(None)
            return default_library()

        LIBRARIES.register("counting", counting_library)
        try:
            settings = EvaluationSettings(architecture="custom", library="counting")
            store = StageArtifactStore(tmp_path)
            context = StageContext(store)
            _, provenance = context.decomposition_for(SCENARIO, settings)
            assert provenance == STAGE_COMPUTED and len(builds) == 1
            _, provenance = context.decomposition_for(SCENARIO, settings)
            assert provenance == STAGE_REUSED_MEMORY and len(builds) == 1
            _, provenance = StageContext(store).decomposition_for(SCENARIO, settings)
            assert provenance == STAGE_REUSED_STORE and len(builds) == 2
        finally:
            LIBRARIES.unregister("counting")

    def test_evaluate_records_stage_provenance(self):
        settings = EvaluationSettings(architecture="custom")
        context = StageContext()
        first = evaluate(SCENARIO, settings, context=context)
        second = evaluate(
            SCENARIO, settings.merged({"buffer_capacity_packets": 8}), context=context
        )
        assert first.stage_reuse == {"decompose": "computed", "synthesize": "computed"}
        assert second.stage_reuse == {"decompose": "memory", "synthesize": "memory"}
        # identical decomposition metrics, independently simulated metrics
        assert (
            first.metrics["decomposition_cost"] == second.metrics["decomposition_cost"]
        )
        assert first.settings["buffer_capacity_packets"] == 4
        assert second.settings["buffer_capacity_packets"] == 8

    def test_mesh_cells_have_no_stage_reuse(self):
        record = evaluate(
            SCENARIO, EvaluationSettings(architecture="mesh"), context=StageContext()
        )
        assert record.stage_reuse == {}

    def test_scenario_pins_are_honored_for_raw_grid_settings(self, tmp_path):
        """Regression: calling the stage API with raw (pre-pin) settings must
        resolve the scenario's settings_overrides before searching, or the
        artifact under the pinned key would hold a wrong-library cover."""
        from repro.dse.pipeline import decompose_stage
        from repro.dse.scenarios import aes_scenario

        scenario = aes_scenario()  # pins library='aes' via settings_overrides
        context = StageContext(StageArtifactStore(tmp_path))
        raw = EvaluationSettings()  # library='default'
        decomposition, provenance = decompose_stage(scenario, raw, context)
        assert provenance == STAGE_COMPUTED
        # the paper's AES decomposition only falls out of the aes library
        assert decomposition.total_cost == 28.0
        assert set(decomposition.primitives_used()) <= {"MGG4", "L4"}
        # a proper evaluate() through the same context and store reuses it
        record = evaluate(scenario, raw, context=context)
        assert record.stage_reuse["decompose"] == "memory"
        assert record.metrics["decomposition_cost"] == 28.0
        fresh = evaluate(scenario, raw, context=StageContext(StageArtifactStore(tmp_path)))
        assert fresh.stage_reuse["decompose"] == "store"
        assert fresh.metrics["decomposition_cost"] == 28.0


class TestRunnerGrouping:
    AXES = {"architecture": ("mesh", "custom"), "buffer_capacity_packets": (2, 4, 8)}

    def test_plan_groups_custom_cells_by_decomposition_sub_key(self):
        cells = plan_sweep([SCENARIO], axes=self.AXES)
        custom = [cell for cell in cells if cell.settings.architecture == "custom"]
        mesh = [cell for cell in cells if cell.settings.architecture == "mesh"]
        assert len({cell.stage_group for cell in custom}) == 1
        # mesh cells do not decompose: each is its own single-cell group
        assert len({cell.stage_group for cell in mesh}) == len(mesh)
        assert custom[0].stage_group == decomposition_stage_key(
            SCENARIO, custom[0].settings
        )

    def test_sweep_runs_decomposition_once_per_group(self, tmp_path):
        result = run_sweep([SCENARIO], axes=self.AXES, artifacts=tmp_path / "stage")
        assert result.decomposition_searches == 1
        assert result.decomposition_reuses == 2
        assert result.synthesis_builds == 1
        assert result.synthesis_reuses == 2
        assert "1 decomposition search(es)" in result.describe()
        # the artifact landed on disk for the next run
        follow_up = run_sweep([SCENARIO], axes=self.AXES, artifacts=tmp_path / "stage")
        assert follow_up.decomposition_searches == 0
        assert follow_up.decomposition_reuses == 3

    def test_parallel_group_fanout_matches_serial(self, tmp_path):
        scenarios = [SCENARIO, planted_scenario(num_nodes=12, seed=11)]
        serial = run_sweep(scenarios, axes=self.AXES)
        parallel = run_sweep(scenarios, axes=self.AXES, parallel=True, max_workers=2)
        assert [r.cache_key for r in serial.records] == [
            r.cache_key for r in parallel.records
        ]
        assert parallel.decomposition_searches == serial.decomposition_searches == 2
        assert parallel.decomposition_reuses == serial.decomposition_reuses == 4
        for left, right in zip(serial.records, parallel.records):
            assert left.metrics.get("total_cycles") == right.metrics.get("total_cycles")

    def test_stage_reuse_round_trips_through_the_result_cache(self, tmp_path):
        from repro.dse.cache import ResultCache

        cache = ResultCache(tmp_path / "results.jsonl")
        run_sweep([SCENARIO], axes=self.AXES, cache=cache)
        reloaded = ResultCache(cache.path).all_records()
        stamped = [record for record in reloaded if record.stage_reuse]
        assert len(stamped) == 3  # the custom cells
        payload = json.loads(stamped[0].to_json())
        assert "stage_reuse" in payload
