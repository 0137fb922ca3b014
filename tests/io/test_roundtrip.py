"""Round-trip guarantees of the interchange registry (repro.io).

The acceptance criterion is asserted for every (object, format) pair:
each built-in scenario's ACG and each built-in family's 16-core fabric
must survive export→import with an identical structural fingerprint /
signature in every registered built-in format.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.arch.families import FAMILIES, pad_node_ids
from repro.dse.pipeline import Scenario
from repro.dse.scenarios import SUITES, build_suite
from repro.exceptions import WorkloadError
from repro.io import (
    FORMATS,
    detect_format,
    read_topology,
    read_workload,
    write_topology,
    write_workload,
)

BUILTIN_FORMATS = ("pajek", "edgelist", "dot")
BUILTIN_FAMILIES = ("mesh", "torus", "ring", "spidergon", "fat_tree", "long_range_mesh")


def _builtin_scenarios():
    """One scenario list per built-in suite, deduplicated by name."""
    seen = {}
    for suite in ("smoke", "paper", "embedded", "random", "fabrics"):
        for scenario in build_suite(suite):
            seen.setdefault(scenario.name, scenario)
    return list(seen.values())


def _fingerprint(acg, name="probe"):
    return Scenario(name=name, acg=acg, description="probe").structural_fingerprint()


SCENARIOS = _builtin_scenarios()


class TestWorkloadRoundTrip:
    @pytest.mark.parametrize("fmt", BUILTIN_FORMATS)
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    def test_scenario_acg_roundtrips(self, scenario, fmt, tmp_path):
        spec = FORMATS.get(fmt)
        path = tmp_path / f"graph{spec.extensions[0]}"
        write_workload(scenario.acg, path, fmt=fmt)
        back = read_workload(path, fmt=fmt)
        assert _fingerprint(back) == _fingerprint(scenario.acg)

    @pytest.mark.parametrize("fmt", BUILTIN_FORMATS)
    def test_extension_detection_picks_the_writer_back_up(self, fmt, tmp_path):
        spec = FORMATS.get(fmt)
        scenario = SCENARIOS[0]
        path = tmp_path / f"graph{spec.extensions[0]}"
        write_workload(scenario.acg, path)  # format detected from extension
        assert detect_format(path).name == fmt
        back = read_workload(path)
        assert _fingerprint(back) == _fingerprint(scenario.acg)


class TestTopologyRoundTrip:
    @pytest.mark.parametrize("fmt", BUILTIN_FORMATS)
    @pytest.mark.parametrize("family", BUILTIN_FAMILIES)
    def test_family_fabric_roundtrips(self, family, fmt, tmp_path):
        spec = FAMILIES.get(family)
        fabric = spec.build(pad_node_ids(spec, range(1, 17)), tile_pitch_mm=1.75)
        path = tmp_path / f"fabric{FORMATS.get(fmt).extensions[0]}"
        write_topology(fabric, path, fmt=fmt)
        back = read_topology(path, fmt=fmt)
        assert back.signature() == fabric.signature()

    @pytest.mark.parametrize("fmt", BUILTIN_FORMATS)
    def test_flit_width_survives(self, fmt, tmp_path):
        spec = FAMILIES.get("mesh")
        fabric = spec.build(pad_node_ids(spec, range(1, 5)), flit_width_bits=64)
        path = tmp_path / f"fabric{FORMATS.get(fmt).extensions[0]}"
        write_topology(fabric, path, fmt=fmt)
        assert read_topology(path, fmt=fmt).flit_width_bits == 64


class TestFormatRegistry:
    def test_builtin_formats_registered(self):
        assert set(BUILTIN_FORMATS) <= set(FORMATS.names())

    def test_every_format_claims_disjoint_extensions(self):
        claimed: dict[str, str] = {}
        for name in FORMATS.names():
            for extension in FORMATS.get(name).extensions:
                assert extension not in claimed, (
                    f"{extension} claimed by both {claimed[extension]} and {name}"
                )
                claimed[extension] = name

    def test_formats_are_complete_specs(self):
        for name in FORMATS.names():
            spec = FORMATS.get(name)
            for field in ("read_workload", "write_workload", "read_topology", "write_topology"):
                assert callable(getattr(spec, field)), (name, field)

    def test_builtin_registries_cover_the_fabric(self):
        """The refactor's registries are Registry-kernel instances."""
        from repro.plugins import Registry

        for registry in (FORMATS, FAMILIES, SUITES):
            assert isinstance(registry, Registry)


class TestMalformedInputs:
    def test_dot_rejects_non_digraph(self, tmp_path):
        path = tmp_path / "bad.dot"
        path.write_text("graph { a -- b }\n", encoding="utf-8")
        with pytest.raises(WorkloadError):
            read_workload(path)

    def test_dot_rejects_unsupported_statement(self, tmp_path):
        path = tmp_path / "bad.dot"
        path.write_text('digraph g { subgraph cluster_0 { "a" } }\n', encoding="utf-8")
        with pytest.raises(WorkloadError):
            read_workload(path)

    def test_edgelist_rejects_one_field_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("lonely\n", encoding="utf-8")
        with pytest.raises(WorkloadError):
            read_workload(path)

    def test_pajek_rejects_garbage_weight(self, tmp_path):
        path = tmp_path / "bad.net"
        path.write_text("*Vertices 2\n1 \"a\"\n2 \"b\"\n*Arcs\n1 2 not-a-number\n",
                        encoding="utf-8")
        with pytest.raises(WorkloadError):
            read_workload(path)


class TestDataclassShape:
    def test_graphformat_is_frozen(self):
        spec = FORMATS.get("pajek")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.name = "other"
