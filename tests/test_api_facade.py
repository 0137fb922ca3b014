"""Tests for the stable lazy facade (repro.api).

The import-budget test runs in a subprocess so this test module's own
imports cannot contaminate ``sys.modules``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO_SRC = Path(__file__).resolve().parents[1] / "src"


class TestImportBudget:
    def test_import_is_light(self):
        """Satellite 3: `import repro.api` must not pull in the simulator,
        the DSE machinery, numpy (a batch-engine-only dependency) or
        hypothesis-sized test dependencies."""
        script = (
            "import sys; import repro.api; "
            "heavy = sorted(m for m in sys.modules if m.startswith("
            "('repro.noc', 'repro.dse', 'hypothesis', 'numpy'))); "
            "print(','.join(heavy) or 'CLEAN')"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_SRC)},
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "CLEAN", (
            f"import repro.api eagerly imported: {result.stdout.strip()}"
        )

    def test_cli_import_skips_entry_point_metadata(self):
        """Plugin discovery (and with it ``importlib.metadata``) waits for a
        registry miss or listing, so importing the CLI must not load it.
        ``-S`` keeps the ``site`` machinery from importing it first."""
        script = (
            "import sys; import repro.dse.__main__; "
            "print('importlib.metadata' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_SRC)},
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_access_pulls_heavy_modules_on_demand(self):
        """The same names do resolve — lazily — after attribute access."""
        script = (
            "import sys; import repro.api; "
            "settings = repro.api.EvaluationSettings(); "
            "assert 'repro.dse.pipeline' in sys.modules; "
            "print(settings.strategy)"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_SRC)},
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "branch_and_bound"


class TestFacadeSurface:
    def test_every_advertised_name_resolves(self):
        import repro.api as api

        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_dir_covers_all(self):
        import repro.api as api

        assert set(api.__all__) <= set(dir(api))

    def test_unknown_attribute_raises(self):
        import repro.api as api

        with pytest.raises(AttributeError):
            api.no_such_symbol

    def test_resolution_is_cached(self):
        import repro.api as api

        first = api.FAMILIES
        assert "FAMILIES" in vars(api)  # cached into module globals
        assert api.FAMILIES is first

    def test_core_flow_through_facade(self):
        from repro import api

        acg = api.ApplicationGraph.from_traffic({(1, 2): 128, (2, 3): 64})
        result = api.decompose(acg, api.default_library())
        assert result is not None

    def test_registries_reachable(self):
        from repro import api

        assert "mesh" in api.FAMILIES
        assert "xy" in api.POLICIES
        assert "pajek" in api.FORMATS
