"""Entry-point discovery: load third-party registrations exactly once.

External packages extend repro by declaring an entry point in the
``repro.plugins`` group::

    [project.entry-points."repro.plugins"]
    my_fabrics = "my_package.repro_plugin:register"

The target must be a callable taking no arguments (or a module, whose
import is its registration).  When any registry lookup misses — or any
``names()`` listing runs — :func:`discover` loads every entry point in
the group, so a family, policy, suite, traffic mode or interchange
format registered by an installed package becomes sweepable
without touching ``repro.*``.

A broken plugin must not take the CLI down with it: load failures are
captured as :class:`PluginFailure` rows (queryable via
:func:`plugin_failures`) and reported as a :class:`UserWarning` once,
instead of raising.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.plugins.registry import providing

if TYPE_CHECKING:
    from importlib import metadata

#: the one entry-point group every extension registers through
ENTRY_POINT_GROUP = "repro.plugins"

_discovered = False
_in_progress = False
_loaded: list[str] = []
_failures: list["PluginFailure"] = []


@dataclass(frozen=True)
class PluginFailure:
    """One entry point that failed to load, with the captured error."""

    entry_point: str
    distribution: str
    error: str


def discover(force: bool = False) -> list[str]:
    """Load every ``repro.plugins`` entry point (idempotent).

    Returns the names of the entry points loaded so far.  ``force`` re-runs
    the scan (used by tests that add metadata to ``sys.path`` mid-process);
    re-entrant calls — a plugin whose registration itself triggers a
    registry lookup — are no-ops, so plugins may freely use the public API
    while registering.
    """
    global _discovered, _in_progress
    if (_discovered and not force) or _in_progress:
        return list(_loaded)
    # imported here, not at module level: importlib.metadata costs more
    # than the rest of the plugin kernel, and most runs never discover
    from importlib import metadata

    _in_progress = True
    try:
        if force:
            _loaded.clear()
            _failures.clear()
        try:
            entry_points = sorted(
                metadata.entry_points(group=ENTRY_POINT_GROUP), key=lambda ep: ep.name
            )
        except Exception as error:  # metadata backends can fail arbitrarily
            warnings.warn(f"repro.plugins entry-point scan failed: {error}", stacklevel=2)
            entry_points = []
        for entry_point in entry_points:
            _load_entry_point(entry_point)
        _discovered = True
    finally:
        _in_progress = False
    return list(_loaded)


def _load_entry_point(entry_point: metadata.EntryPoint) -> None:
    distribution = _distribution_name(entry_point)
    try:
        with providing(distribution):
            target = entry_point.load()
            if callable(target):
                target()
    except Exception as error:
        _failures.append(
            PluginFailure(
                entry_point=entry_point.name,
                distribution=distribution,
                error=f"{type(error).__name__}: {error}",
            )
        )
        warnings.warn(
            f"repro plugin {entry_point.name!r} ({distribution}) failed to "
            f"load and was skipped: {error}",
            stacklevel=3,
        )
        return
    _loaded.append(entry_point.name)


def _distribution_name(entry_point: metadata.EntryPoint) -> str:
    dist = getattr(entry_point, "dist", None)
    if dist is not None:
        try:
            return dist.name
        except Exception:
            pass
    return entry_point.value.partition(":")[0].partition(".")[0]


def discovered_plugins() -> list[str]:
    """Entry points loaded so far (empty before the first lookup)."""
    return list(_loaded)


def plugin_failures() -> list[PluginFailure]:
    """Entry points that failed to load, with their captured errors."""
    return list(_failures)


def reset_discovery() -> None:
    """Forget the discovery state so the next lookup rescans (test helper)."""
    global _discovered
    _discovered = False
    _loaded.clear()
    _failures.clear()
