"""Unit tests for the generic registry kernel (repro.plugins.registry)
and the uniform unknown-name behaviour at every migrated call site."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, PluginError, UnknownPluginError
from repro.plugins import BUILTIN_PROVIDER, Registry, providing


@pytest.fixture()
def registry():
    """A fresh registry with discovery disabled (pure kernel behaviour)."""
    return Registry("widget", discover=False)


class TestKernel:
    def test_register_get_names(self, registry):
        registry.register("alpha", 1)
        registry.register("beta", 2)
        assert registry.get("alpha") == 1
        assert registry.names() == ["alpha", "beta"]
        assert registry.items() == {"alpha": 1, "beta": 2}
        assert "alpha" in registry and len(registry) == 2
        assert sorted(registry) == ["alpha", "beta"]

    def test_last_registration_wins(self, registry):
        registry.register("alpha", 1)
        registry.register("alpha", 10)
        assert registry.get("alpha") == 10

    def test_unregister(self, registry):
        registry.register("alpha", 1)
        assert registry.unregister("alpha") == 1
        with pytest.raises(UnknownPluginError):
            registry.unregister("alpha")

    def test_bad_names_rejected(self, registry):
        with pytest.raises(PluginError):
            registry.register("", 1)
        with pytest.raises(PluginError):
            registry.register(None, 1)

    def test_unknown_error_lists_names_and_suggests(self, registry):
        registry.register("alpha", 1)
        registry.register("beta", 2)
        with pytest.raises(UnknownPluginError) as excinfo:
            registry.get("alpa")
        error = excinfo.value
        assert error.kind == "widget"
        assert error.name == "alpa"
        assert error.available == ["alpha", "beta"]
        assert error.suggestion == "alpha"
        assert "alpha" in str(error) and "did you mean" in str(error)

    def test_unknown_error_without_close_match(self, registry):
        registry.register("alpha", 1)
        with pytest.raises(UnknownPluginError) as excinfo:
            registry.get("zzzzzz")
        assert excinfo.value.suggestion is None
        assert "did you mean" not in str(excinfo.value)

    def test_unknown_is_a_configuration_error(self, registry):
        """Pre-refactor call sites caught ConfigurationError; still true."""
        with pytest.raises(ConfigurationError):
            registry.get("missing")

    def test_provider_tagging(self, registry):
        registry.register("mine", 1)
        with providing("some-dist"):
            registry.register("theirs", 2)
        assert registry.provider("mine") == BUILTIN_PROVIDER
        assert registry.provider("theirs") == "some-dist"


class TestUniformErrorsAcrossCallSites:
    """Satellite 1: every migrated registry raises the same error shape."""

    CASES = [
        # (lookup, bad name, a name that must be listed, expected suggestion)
        ("family", "mesj", "mesh", "mesh"),
        ("policy", "xyy", "xy", "xy"),
        ("suite", "smokke", "smoke", "smoke"),
        ("format", "pajekk", "pajek", "pajek"),
        ("library", "defualt", "default", "default"),
        ("strategy", "greedyy", "greedy", "greedy"),
        ("traffic", "agc", "acg", "acg"),
        ("technology", "fpga_virtx2", "fpga_virtex2", "fpga_virtex2"),
        ("exporter", "promethus", "prometheus", "prometheus"),
    ]

    def _lookup(self, kind):
        from repro.arch.families import FAMILIES
        from repro.dse.pipeline import LIBRARIES, STRATEGIES, TRAFFIC_MODES
        from repro.dse.scenarios import SUITES
        from repro.energy.technology import TECHNOLOGIES
        from repro.io import FORMATS
        from repro.obs import EXPORTERS
        from repro.routing.policies import POLICIES

        return {
            "family": FAMILIES.get,
            "policy": POLICIES.get,
            "suite": SUITES.get,
            "format": FORMATS.get,
            "library": LIBRARIES.get,
            "strategy": STRATEGIES.get,
            "traffic": TRAFFIC_MODES.get,
            "technology": TECHNOLOGIES.get,
            "exporter": EXPORTERS.get,
        }[kind]

    @pytest.mark.parametrize("kind,bad,known,suggestion", CASES)
    def test_unknown_name_error_shape(self, kind, bad, known, suggestion):
        lookup = self._lookup(kind)
        with pytest.raises(UnknownPluginError) as excinfo:
            lookup(bad)
        error = excinfo.value
        assert isinstance(error, ConfigurationError)
        assert known in error.available
        assert error.suggestion == suggestion
        assert known in str(error)

    @pytest.mark.parametrize("kind,bad,known,suggestion", CASES)
    def test_known_name_resolves(self, kind, bad, known, suggestion):
        assert self._lookup(kind)(known) is not None

    def test_settings_validation_uses_uniform_errors(self):
        from repro.dse.pipeline import EvaluationSettings

        with pytest.raises(UnknownPluginError):
            EvaluationSettings(strategy="branch_and_bound", library="nope")
        with pytest.raises(UnknownPluginError):
            EvaluationSettings(strategy="nope")
        with pytest.raises(UnknownPluginError):
            EvaluationSettings(technology="nope")

    def test_detect_format_unknown_extension(self, tmp_path):
        from repro.io import detect_format

        with pytest.raises(UnknownPluginError):
            detect_format(tmp_path / "graph.xyz")
