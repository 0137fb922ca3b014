"""Plugin fabric: the registry kernel and entry-point discovery.

Every named extension point in repro — topology families, routing
policies, scenario suites, communication libraries, traffic modes,
interchange formats — is one :class:`Registry`
instance from this package.  The kernel gives them all the same
contract:

* ``register``/``get``/``names`` with **uniform unknown-name errors**
  (:class:`~repro.exceptions.UnknownPluginError`: sorted available names
  plus a nearest-match suggestion);
* **third-party discovery** through the ``repro.plugins`` entry-point
  group (:data:`ENTRY_POINT_GROUP`), loaded lazily on the first lookup
  miss or listing, so external packages extend sweeps without touching
  ``repro.*``;
* **provenance**: names registered by a plugin are tagged with the
  providing distribution.

See ``docs/plugins.md`` for the worked third-party example.
"""

from repro.plugins.discovery import (
    ENTRY_POINT_GROUP,
    PluginFailure,
    discover,
    discovered_plugins,
    plugin_failures,
    reset_discovery,
)
from repro.plugins.registry import BUILTIN_PROVIDER, Registry, providing

__all__ = [
    "Registry",
    "providing",
    "BUILTIN_PROVIDER",
    "ENTRY_POINT_GROUP",
    "PluginFailure",
    "discover",
    "discovered_plugins",
    "plugin_failures",
    "reset_discovery",
]
