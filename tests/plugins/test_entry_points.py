"""Entry-point discovery tests: the toy plugin in ``tests/fixtures/``
registers a topology family and a routing policy with no edit inside
``src/repro/`` (the acceptance criterion of the plugin fabric).

Locally the plugin is made discoverable by putting its directory — which
carries a hand-written ``*.dist-info`` — on ``sys.path``; CI additionally
pip-installs the same directory and drives the CLI (plugin-smoke job).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
PLUGIN_DIR = REPO_ROOT / "tests" / "fixtures" / "toy_plugin"


@pytest.fixture()
def toy_plugin():
    """Make the toy plugin discoverable, then restore a pristine state."""
    from repro.arch.families import FAMILIES
    from repro.plugins import reset_discovery
    from repro.routing.policies import POLICIES

    sys.path.insert(0, str(PLUGIN_DIR))
    reset_discovery()
    try:
        yield
    finally:
        sys.path.remove(str(PLUGIN_DIR))
        sys.modules.pop("repro_toy_plugin", None)
        for registry, name in ((FAMILIES, "toy_star"), (POLICIES, "toy_hub")):
            if name in registry:
                registry.unregister(name)
        reset_discovery()


class TestDiscovery:
    def test_family_and_policy_arrive_via_entry_points(self, toy_plugin):
        from repro.arch.families import FAMILIES, pad_node_ids
        from repro.arch.metrics import is_strongly_connected
        from repro.plugins import discover, discovered_plugins, plugin_failures
        from repro.routing.policies import POLICIES

        discover(force=True)
        assert "toy" in discovered_plugins()
        assert plugin_failures() == []

        spec = FAMILIES.get("toy_star")
        assert FAMILIES.provider("toy_star") == "repro-toy-plugin"
        fabric = spec.build(pad_node_ids(spec, range(1, 9)))
        assert is_strongly_connected(fabric)

        table = POLICIES.get("toy_hub").build(fabric)
        assert table.route(1, 5) == [1, "__hub0", 5]

    def test_lookup_miss_triggers_discovery(self, toy_plugin):
        from repro.arch.families import FAMILIES

        # no explicit discover() call: the miss on 'toy_star' must run it
        assert FAMILIES.get("toy_star").name == "toy_star"

    def test_names_listing_triggers_discovery(self, toy_plugin):
        from repro.routing.policies import POLICIES

        assert "toy_hub" in POLICIES.names()

    def test_discovery_is_idempotent(self, toy_plugin):
        from repro.plugins import discover, discovered_plugins

        discover(force=True)
        discover()
        discover()
        assert discovered_plugins().count("toy") == 1

    def test_broken_plugin_is_recorded_not_fatal(self, tmp_path):
        from repro.plugins import discover, plugin_failures, reset_discovery

        (tmp_path / "broken_plugin.py").write_text(
            "raise RuntimeError('exploded on import')\n", encoding="utf-8"
        )
        dist_info = tmp_path / "broken_plugin-0.1.0.dist-info"
        dist_info.mkdir()
        (dist_info / "METADATA").write_text(
            "Metadata-Version: 2.1\nName: broken-plugin\nVersion: 0.1.0\n",
            encoding="utf-8",
        )
        (dist_info / "entry_points.txt").write_text(
            "[repro.plugins]\nboom = broken_plugin:register\n", encoding="utf-8"
        )
        sys.path.insert(0, str(tmp_path))
        reset_discovery()
        try:
            with pytest.warns(UserWarning, match="boom"):
                discover(force=True)  # must not raise
            failures = plugin_failures()
            assert any(failure.entry_point == "boom" for failure in failures)
            assert any("exploded" in failure.error for failure in failures)
        finally:
            sys.path.remove(str(tmp_path))
            sys.modules.pop("broken_plugin", None)
            reset_discovery()


class TestEndToEnd:
    def test_cli_sweeps_plugin_fabric(self, tmp_path):
        """`run --axis topology=toy_star --axis routing_policy=toy_hub` end to end,
        with the plugin present only through its entry point."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(PLUGIN_DIR)]
        )
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.dse",
                "run",
                "--suite",
                f"file:{REPO_ROOT / 'examples' / 'graphs' / 'pipeline8.net'}",
                "--axis",
                "topology=toy_star",
                "--axis",
                "routing_policy=toy_hub",
                "--axis",
                "architecture=mesh",
                "--results",
                str(tmp_path / "results.jsonl"),
            ],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "0 failures" in result.stdout
