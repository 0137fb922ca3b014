"""Tests for the shared evaluation pipeline (repro.dse.pipeline)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.dse.pipeline import (
    EvaluationSettings,
    Scenario,
    baseline_route_stage,
    build_baseline_fabric,
    evaluate,
    simulate_stage,
)
from repro.dse.records import (
    STATUS_OK,
    STATUS_ROUTING_FAILED,
    STATUS_SIMULATION_FAILED,
    EvaluationRecord,
)
from repro.dse.scenarios import (
    aes_scenario,
    embedded_scenario,
    planted_scenario,
    tgff_scenario,
)
from repro.dse.search import run_search
from repro.exceptions import ConfigurationError, UnknownPluginError
from repro.routing.policies import POLICIES


class TestEvaluationSettings:
    def test_dict_round_trip(self):
        settings = EvaluationSettings(architecture="mesh", router_pipeline_delay_cycles=3)
        assert EvaluationSettings.from_dict(settings.as_dict()) == settings

    def test_merged_overrides_and_rejects_unknown(self):
        settings = EvaluationSettings()
        merged = settings.merged({"library": "aes", "flit_width_bits": 64})
        assert merged.library == "aes"
        assert merged.flit_width_bits == 64
        assert settings.library == "default"  # original untouched
        with pytest.raises(ConfigurationError):
            settings.merged({"not_a_field": 1})

    def test_invalid_enums_rejected(self):
        with pytest.raises(ConfigurationError):
            EvaluationSettings(architecture="torus")
        with pytest.raises(ConfigurationError):
            EvaluationSettings(strategy="simulated_annealing")
        with pytest.raises(ConfigurationError):
            EvaluationSettings(library="imaginary")
        with pytest.raises(ConfigurationError):
            EvaluationSettings(lower_bound="tightest")

    def test_canonical_dict_normalizes_irrelevant_axes(self):
        mesh_a = EvaluationSettings(architecture="mesh", library="aes")
        mesh_b = EvaluationSettings(architecture="mesh", library="extended")
        assert mesh_a.canonical_dict() == mesh_b.canonical_dict()
        custom_a = EvaluationSettings(architecture="custom", mesh_tile_pitch_mm=1.0)
        custom_b = EvaluationSettings(architecture="custom", mesh_tile_pitch_mm=3.0)
        assert custom_a.canonical_dict() == custom_b.canonical_dict()
        assert custom_a.canonical_dict() != mesh_a.canonical_dict()

    def test_canonical_dict_normalizes_fabric_axes_for_custom(self):
        """A custom cell never reads the fabric family or routing policy, so
        a topology/routing_policy sweep collapses onto one custom key."""
        torus = EvaluationSettings(
            architecture="custom", topology="torus", routing_policy="up_down"
        )
        ring = EvaluationSettings(
            architecture="custom", topology="ring", routing_policy="dateline"
        )
        assert torus.canonical_dict() == ring.canonical_dict()
        mesh_torus = EvaluationSettings(architecture="mesh", topology="torus")
        mesh_ring = EvaluationSettings(architecture="mesh", topology="ring")
        assert mesh_torus.canonical_dict() != mesh_ring.canonical_dict()

    def test_invalid_fabric_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            EvaluationSettings(topology="hypercube")
        with pytest.raises(ConfigurationError):
            EvaluationSettings(routing_policy="fully_adaptive")

    def test_gate_knob_stays_out_of_stage_keys(self):
        """The deadlock gate never changes the decomposition/synthesis
        artifacts, so it must not fragment the stage caches."""
        lax = EvaluationSettings(architecture="custom")
        strict = EvaluationSettings(architecture="custom", require_deadlock_free=True)
        assert lax.synthesis_stage_dict() == strict.synthesis_stage_dict()
        assert lax.decomposition_stage_dict() == strict.decomposition_stage_dict()


class TestScenario:
    def test_fingerprint_is_deterministic_across_builds(self):
        first = planted_scenario(num_nodes=12, seed=11).fingerprint()
        second = planted_scenario(num_nodes=12, seed=11).fingerprint()
        assert first == second

    def test_fingerprint_depends_on_seed_and_volumes(self):
        base = planted_scenario(num_nodes=12, seed=11).fingerprint()
        other_seed = planted_scenario(num_nodes=12, seed=12).fingerprint()
        assert base != other_seed

    def test_fingerprint_excludes_the_display_name(self):
        scenario = planted_scenario(num_nodes=12, seed=11)
        renamed = planted_scenario(num_nodes=12, seed=11)
        renamed.name = "some_other_label"
        assert scenario.fingerprint() == renamed.fingerprint()

    def test_settings_overrides_pin_cells(self):
        scenario = aes_scenario()
        settings = scenario.effective_settings(EvaluationSettings())
        assert settings.library == "aes"
        assert settings.bidirectional_links is True

    def test_invalid_traffic_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="x", acg=planted_scenario(12, 1).acg, traffic="gravity")

    def test_negative_computation_allowance_rejected_at_construction(self):
        """A caller error, not a ``simulation_failed`` result to cache."""
        with pytest.raises(ConfigurationError, match="computation_cycles_per_phase"):
            dataclasses.replace(aes_scenario(1), computation_cycles_per_phase=-1)

    def test_empty_packets_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="packet_size_bits"):
            dataclasses.replace(planted_scenario(12, 1), packet_size_bits=0)


class TestBaselineMesh:
    def test_square_count_gets_exact_grid(self):
        mesh = build_baseline_fabric(aes_scenario().acg, family="mesh")
        assert mesh.rows == 4 and mesh.columns == 4
        assert mesh.num_routers == 16

    def test_non_square_count_is_padded(self):
        scenario = tgff_scenario(num_tasks=10, seed=7)
        mesh = build_baseline_fabric(scenario.acg, family="mesh")
        assert mesh.num_routers == mesh.rows * mesh.columns >= 10
        pads = [node for node in mesh.routers() if str(node).startswith("__pad")]
        assert len(pads) == mesh.num_routers - 10


class TestBaselineFabric:
    def test_every_family_builds_from_an_acg(self):
        from repro.arch.families import FAMILIES

        acg = tgff_scenario(num_tasks=10, seed=7).acg
        for family in FAMILIES.names():
            fabric = build_baseline_fabric(acg, family=family)
            for node in acg.nodes():
                assert fabric.has_router(node), (family, node)

    def test_route_stage_gate_reports_on_traffic_pairs(self):
        scenario = tgff_scenario(num_tasks=12, seed=7)
        settings = EvaluationSettings(
            architecture="mesh", topology="torus", routing_policy="dateline"
        )
        fabric, table, report = baseline_route_stage(scenario, settings)
        for source, target in scenario.acg.edges():
            assert table.route(source, target)[-1] == target
        assert report.num_channels > 0

    def test_unsupported_policy_raises_routing_error(self):
        from repro.exceptions import RoutingError

        scenario = tgff_scenario(num_tasks=12, seed=7)
        settings = EvaluationSettings(
            architecture="mesh", topology="fat_tree", routing_policy="xy"
        )
        with pytest.raises(RoutingError):
            baseline_route_stage(scenario, settings)


class TestEvaluate:
    def test_mesh_and_custom_records(self):
        scenario = planted_scenario(num_nodes=12, seed=11)
        mesh = evaluate(scenario, EvaluationSettings(architecture="mesh"))
        custom = evaluate(scenario, EvaluationSettings(architecture="custom"))
        for record in (mesh, custom):
            assert record.status == STATUS_OK
            assert record.metrics["total_cycles"] > 0
            assert record.metrics["avg_latency_cycles"] > 0
            assert record.metrics["energy_per_iteration_uj"] > 0
            assert record.metrics["throughput_mbps"] > 0
        # only the custom flow decomposes and checks constraints
        assert "decomposition_cost" in custom.metrics
        assert "decomposition_cost" not in mesh.metrics
        # ... but the CDG deadlock gate now covers every routed cell
        assert custom.deadlock_free is not None
        assert mesh.deadlock_free is True
        assert mesh.metrics["vc_channels_needed"] == 0.0
        assert custom.search_statistics.get("nodes_expanded", 0) > 0

    def test_aes_phase_traffic(self):
        record = evaluate(
            aes_scenario(),
            EvaluationSettings(architecture="custom", router_pipeline_delay_cycles=2),
        )
        assert record.status == STATUS_OK
        # the paper's decomposition: cost 28, 6 matchings, 4 remainder edges
        assert record.metrics["decomposition_cost"] == pytest.approx(28.0)
        assert record.metrics["num_matchings"] == 6
        assert record.metrics["remainder_edges"] == 4

    def test_fabric_cells_evaluate_end_to_end(self):
        scenario = planted_scenario(num_nodes=12, seed=11)
        for topology, policy in (
            ("torus", "xy"),
            ("ring", "up_down"),
            ("spidergon", "shortest_path"),
            ("fat_tree", "up_down"),
        ):
            record = evaluate(
                scenario,
                EvaluationSettings(
                    architecture="mesh", topology=topology, routing_policy=policy
                ),
            )
            assert record.status == STATUS_OK, (topology, policy, record.error)
            assert record.deadlock_free is not None
            assert "vc_channels_needed" in record.metrics
            assert record.metrics["total_cycles"] > 0

    def test_unsupported_fabric_policy_pair_is_a_result(self):
        record = evaluate(
            planted_scenario(num_nodes=12, seed=11),
            EvaluationSettings(architecture="mesh", topology="ring", routing_policy="xy"),
        )
        assert record.status == STATUS_ROUTING_FAILED
        assert "does not support" in record.error

    def test_require_deadlock_free_gates_cyclic_tables(self):
        """A ring whose traffic closes the full rotation cycle deadlocks
        under shortest-path routing; the strict gate must fail the cell
        while the default gate records provenance and simulates."""
        from repro.core.graph import ApplicationGraph

        acg = ApplicationGraph(name="rotation")
        nodes = list(range(1, 7))
        for index, node in enumerate(nodes):
            two_ahead = nodes[(index + 2) % len(nodes)]
            acg.add_communication(node, two_ahead, volume=32.0)
        scenario = Scenario(name="rotation", acg=acg)
        base = EvaluationSettings(
            architecture="mesh", topology="ring", routing_policy="shortest_path"
        )
        lax = evaluate(scenario, base)
        assert lax.deadlock_free is False
        assert lax.metrics["vc_channels_needed"] >= 1
        strict = evaluate(scenario, base.merged({"require_deadlock_free": True}))
        assert strict.status == STATUS_ROUTING_FAILED
        assert strict.deadlock_free is False
        assert "deadlock" in strict.error

    def test_pair_restricted_mesh_table_simulates_like_the_all_pairs_table(self):
        """The baseline routes only the scenario's traffic pairs; the cell
        must measure exactly what the all-pairs XY table measures."""
        scenario = planted_scenario(num_nodes=12, seed=11)
        settings = EvaluationSettings(architecture="mesh")
        fabric, table, _ = baseline_route_stage(scenario, settings)
        full = POLICIES.get("xy").build(fabric)
        assert table.num_entries < full.num_entries
        restricted = simulate_stage(scenario, settings, "m", fabric, table.frozen_next_hop())
        all_pairs = simulate_stage(scenario, settings, "m", fabric, full.frozen_next_hop())
        assert dataclasses.asdict(restricted) == dataclasses.asdict(all_pairs)

    def test_failure_becomes_data_not_exception(self):
        scenario = embedded_scenario("vopd")
        # a one-cycle budget cannot drain any traffic: simulation must fail
        record = evaluate(
            scenario, EvaluationSettings(architecture="mesh", max_cycles=1)
        )
        assert record.status == STATUS_SIMULATION_FAILED
        assert record.error
        assert not record.succeeded

    def test_caller_bugs_still_raise(self):
        """Workload failures are data; misconfiguration is an exception —
        a typo'd technology must not be cached as a simulation failure.
        Settings reject it when built, with the nearest known name; a
        scenario pin carrying it raises out of evaluate."""
        with pytest.raises(UnknownPluginError, match="did you mean 'fpga_virtex2'"):
            EvaluationSettings(architecture="mesh", technology="fpga_virtex")
        scenario = embedded_scenario("vopd")
        scenario.settings_overrides = {"technology": "bogus"}
        with pytest.raises(UnknownPluginError):
            evaluate(scenario, EvaluationSettings(architecture="mesh"))

    def test_record_json_round_trip(self):
        record = evaluate(
            planted_scenario(num_nodes=12, seed=11),
            EvaluationSettings(architecture="mesh"),
            cache_key="abc123",
            config_label="arch=mesh",
            axes={"architecture": "mesh"},
        )
        clone = EvaluationRecord.from_json(record.to_json())
        assert clone.scenario == record.scenario
        assert clone.metrics == record.metrics
        assert clone.cache_key == "abc123"
        assert clone.axes == {"architecture": "mesh"}

    def test_to_json_matches_the_deep_asdict_serialization(self):
        """``to_json`` serializes a shallow field dict; the deep
        ``dataclasses.asdict`` copy it replaced is the oracle, byte for byte,
        on a custom cell (nested search statistics, stage provenance and
        timings) and on guided-search records."""

        def oracle(record: EvaluationRecord) -> str:
            payload = dataclasses.asdict(record)
            payload.pop("from_cache", None)
            return json.dumps(payload, sort_keys=True)

        custom = evaluate(
            planted_scenario(num_nodes=12, seed=11),
            EvaluationSettings(architecture="custom"),
            cache_key="abc123",
            config_label="arch=custom",
            axes={"architecture": "custom"},
        )
        assert custom.search_statistics["branches_pruned_by"]
        assert custom.stage_reuse and custom.stage_seconds
        searched = run_search(
            [aes_scenario()], axes={"architecture": ("mesh", "custom")}
        ).records
        assert searched and all(record.search for record in searched)
        for record in [custom, *searched]:
            assert record.to_json() == oracle(record)
