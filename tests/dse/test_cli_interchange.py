"""CLI tests for the interchange commands and ``file:`` suite sources
(``import-workload``, ``export-topology``, ``run --suite file:PATH``)."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.dse.__main__ import main
from repro.dse.scenarios import FILE_SUITE_PREFIX, file_scenario, resolve_suite
from repro.exceptions import ConfigurationError
from repro.io import read_topology, read_workload, write_workload
from repro.workloads import planted_primitive_acg

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLE = REPO_ROOT / "examples" / "graphs" / "pipeline8.net"


@pytest.fixture()
def workload_file(tmp_path):
    acg = planted_primitive_acg(num_nodes=8, seed=5)
    path = tmp_path / "workload.net"
    write_workload(acg, path)
    return path


class TestImportWorkloadCommand:
    def test_summarizes(self, workload_file, capsys):
        assert main(["import-workload", str(workload_file)]) == 0
        out = capsys.readouterr().out
        assert "8 nodes" in out
        assert "file:" in out  # points at the sweep entry point

    def test_converts_between_formats(self, workload_file, tmp_path, capsys):
        out_path = tmp_path / "converted.dot"
        assert main(["import-workload", str(workload_file), "--out", str(out_path)]) == 0
        converted = read_workload(out_path)
        original = read_workload(workload_file)
        assert sorted(map(str, converted.nodes())) == sorted(map(str, original.nodes()))
        assert converted.num_edges == original.num_edges

    def test_unknown_format_exits_2(self, workload_file, capsys):
        assert main(["import-workload", str(workload_file), "--format", "nope"]) == 2
        assert "unknown interchange format" in capsys.readouterr().err

    def test_committed_example_imports(self, capsys):
        assert main(["import-workload", str(EXAMPLE)]) == 0
        assert "pipeline8" in capsys.readouterr().out


class TestExportTopologyCommand:
    def test_exports_and_reimports_identically(self, tmp_path, capsys):
        out_path = tmp_path / "torus.edges"
        assert main([
            "export-topology", "--family", "torus", "--cores", "9",
            "--out", str(out_path),
        ]) == 0
        fabric = read_topology(out_path)
        assert fabric.num_routers == 9
        assert "9 routers" in capsys.readouterr().out

    def test_unknown_family_exits_2(self, tmp_path, capsys):
        assert main([
            "export-topology", "--family", "mesj",
            "--out", str(tmp_path / "x.net"),
        ]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'mesh'" in err


class TestFileSuites:
    def test_resolve_suite_accepts_file_prefix(self, workload_file):
        spec = resolve_suite(f"{FILE_SUITE_PREFIX}{workload_file}")
        scenarios = spec.build()
        assert len(scenarios) == 1
        assert scenarios[0].params.get("origin") == "file"

    def test_file_scenario_attaches_floorplan(self, workload_file):
        scenario = file_scenario(workload_file)
        assert all(scenario.acg.has_position(node) for node in scenario.acg.nodes())

    def test_file_scenario_keeps_existing_positions(self, tmp_path):
        acg = planted_primitive_acg(num_nodes=4, seed=1)
        for index, node in enumerate(acg.nodes()):
            acg.set_position(node, float(index), 0.25)
        path = tmp_path / "placed.net"
        write_workload(acg, path)
        scenario = file_scenario(path)
        # node ids stringify on round-trip; positions must survive verbatim
        assert scenario.acg.position(str(acg.nodes()[1])).x == 1.0

    def test_missing_file_raises_repro_error(self):
        with pytest.raises((ConfigurationError, FileNotFoundError)):
            resolve_suite("file:/nonexistent/path.net").build()

    def test_run_and_report_on_file_suite(self, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        suite = f"{FILE_SUITE_PREFIX}{EXAMPLE}"
        assert main([
            "run", "--suite", suite,
            "--axis", "architecture=mesh",
            "--results", str(results),
        ]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out
        assert main(["report", "--results", str(results)]) == 0
        assert "pipeline8" in capsys.readouterr().out

    def test_list_scenarios_accepts_file_suite(self, workload_file, capsys):
        assert main(["list-scenarios", "--suite",
                     f"{FILE_SUITE_PREFIX}{workload_file}"]) == 0
        assert "workload" in capsys.readouterr().out


class TestCliMisuse:
    """Caller errors exit non-zero with one ``error:`` line, no traceback."""

    @staticmethod
    def _one_error_line(capsys) -> str:
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        return err

    def test_missing_trace_log(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "missing.jsonl")]) != 0
        assert "missing.jsonl" in self._one_error_line(capsys)

    def test_missing_file_suite(self, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        assert main([
            "run", "--suite", f"{FILE_SUITE_PREFIX}{tmp_path / 'missing.net'}",
            "--results", str(results),
        ]) != 0
        assert "missing.net" in self._one_error_line(capsys)
        assert not results.exists()

    @pytest.mark.parametrize(
        "axis", ["buffer_capacity_packets=0", "router_pipeline_delay_cycles=0"]
    )
    def test_invalid_simulator_axis_rejected_before_any_evaluation(
        self, axis, tmp_path, capsys
    ):
        results = tmp_path / "results.jsonl"
        assert main([
            "run", "--suite", "smoke", "--axis", axis, "--results", str(results),
        ]) != 0
        self._one_error_line(capsys)
        assert not results.exists()

    @pytest.mark.parametrize("command", ["run", "search"])
    def test_non_positive_workers_rejected_before_any_evaluation(
        self, command, tmp_path, capsys
    ):
        results = tmp_path / "results.jsonl"
        assert main([
            command, "--suite", "smoke", "--parallel", "--workers", "0",
            "--results", str(results),
        ]) == 2
        assert "--workers" in self._one_error_line(capsys)
        assert not results.exists()

    def test_unknown_technology_rejected_before_any_evaluation(self, tmp_path, capsys):
        """A technology typo fails at plan time, with the registry's
        suggestion, before the AES decomposition runs or writes its stage
        artifact."""
        results = tmp_path / "results.jsonl"
        assert main([
            "run", "--suite", "embedded", "--axis", "architecture=custom",
            "--axis", "technology=fpga_virtex", "--results", str(results),
        ]) == 2
        assert "did you mean 'fpga_virtex2'" in self._one_error_line(capsys)
        assert not results.exists()
        assert not (tmp_path / "stage_artifacts").exists()

    @pytest.mark.parametrize(
        "command,own_flags",
        [("run", set()), ("search", {"--rung", "--margin", "--seed"})],
    )
    def test_grid_axes_have_one_spelling(self, command, own_flags, capsys):
        """Every grid axis (topology, routing policy, engine, ...) is set
        through ``--axis``; no flag is a second spelling of one."""
        with pytest.raises(SystemExit):
            main([command, "--help"])
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        shared = {"--help", "--suite", "--results", "--artifacts", "--no-artifacts",
                  "--parallel", "--workers", "--axis", "--trace"}
        assert flags == shared | own_flags
