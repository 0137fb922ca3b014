"""A miniature third-party plugin used by the plugin-fabric tests and CI.

Registers, purely through the ``repro.plugins`` entry-point group (see
``pyproject.toml`` next to this file), one topology family and one
routing policy:

* ``toy_star`` — every core is a spoke of a single extra infrastructure
  hub router ``__hub0``; deterministic, strongly connected, identity
  padding (so it honours the family contract the built-in suite asserts
  over *all* registered families);
* ``toy_hub`` — two-hop routing via the hub (spokes forward everything
  to ``__hub0``, the hub delivers); deadlock-free by construction (the
  CDG of a star with terminal deliveries is acyclic) and only applicable
  to ``toy_star`` fabrics.

Nothing inside ``src/repro/`` knows this module exists: discovery runs
through ``importlib.metadata`` entry points, which is exactly what the
acceptance criterion demonstrates end to end via
``python -m repro.dse run --axis topology=toy_star --axis routing_policy=toy_hub``.
"""

from __future__ import annotations

import math

HUB = "__hub0"


def _build_toy_star(node_ids, tile_pitch_mm=2.0, flit_width_bits=32):
    """A hub-and-spoke fabric: cores on a circle, the hub in the middle."""
    from repro.arch.topology import Topology

    nodes = list(node_ids)
    topology = Topology(name=f"toy_star_{len(nodes)}", flit_width_bits=flit_width_bits)
    radius = tile_pitch_mm * max(1.0, len(nodes) / (2.0 * math.pi))
    topology.add_router(HUB, radius, radius)
    for index, node in enumerate(nodes):
        angle = 2.0 * math.pi * index / max(1, len(nodes))
        topology.add_router(
            node,
            radius + radius * math.cos(angle),
            radius + radius * math.sin(angle),
        )
        topology.add_channel(HUB, node, bidirectional=True)
    return topology


def _is_toy_star(topology) -> bool:
    """True for fabrics built by :func:`_build_toy_star` (hub present)."""
    return topology.has_router(HUB)


def _build_toy_hub_table(topology, pairs=None):
    """Compile hub routing: spoke -> hub -> spoke, hub delivers directly."""
    from repro.routing.table import RoutingTable

    table = RoutingTable(topology)
    routers = topology.routers()
    wanted = list(pairs) if pairs is not None else [
        (source, destination)
        for source in routers
        for destination in routers
        if source != destination
    ]
    for source, destination in wanted:
        if source == HUB:
            table.set_next_hop(HUB, destination, destination)
        else:
            table.set_next_hop(source, destination, HUB)
            if destination != HUB:
                table.set_next_hop(HUB, destination, destination)
    return table


def register() -> None:
    """Entry-point target: register the toy family and policy."""
    from repro.arch.families import FamilySpec, register_family
    from repro.routing.policies import PolicySpec, register_policy

    register_family(
        FamilySpec(
            name="toy_star",
            description="hub-and-spoke toy family from the test plugin",
            builder=_build_toy_star,
            padded_size=lambda count: count,
        )
    )
    register_policy(
        PolicySpec(
            name="toy_hub",
            description="route everything through the toy_star hub",
            deadlock_free_by_construction=True,
            builder=_build_toy_hub_table,
            supports=_is_toy_star,
            minimal_families=("toy_star",),
        )
    )
