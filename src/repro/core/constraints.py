"""Design-constraint modelling and checking (Section 4.2).

The optimization problem of the paper minimises the decomposition cost
*subject to* two families of constraints:

* **bandwidth**: the bandwidth of every implementation link must be at least
  the sum of the bandwidth requirements of all application edges mapped onto
  it (the paper's example: requirement edges ``e13`` and ``e14`` both ride on
  implementation link ``e13``, so that link must provide ``b(e13)+b(e14)``),
* **wiring resources**: the bisection bandwidth of the customized
  architecture must not exceed the maximum bisection bandwidth the
  technology's global-wire metal layers can provide.

This module provides the constraint container, the per-channel load
calculation, and a checker that produces a structured report (and can raise
:class:`~repro.exceptions.ConstraintViolationError`).
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

from repro.arch.metrics import bisection_bandwidth
from repro.arch.topology import Topology
from repro.core.graph import ApplicationGraph
from repro.exceptions import ConstraintViolationError, RoutingError
from repro.routing.table import RoutingTable

NodeId = Hashable
ChannelKey = tuple[NodeId, NodeId]


@dataclass(frozen=True)
class DesignConstraints:
    """The constraint set a synthesized architecture must satisfy.

    Attributes
    ----------
    link_capacity_bits_per_cycle:
        Maximum sustainable bandwidth of a single channel.  ``None`` means
        each channel uses its own declared capacity.
    max_bisection_bandwidth:
        Wiring-resource limit on the architecture's bisection bandwidth
        (bits/cycle).  ``None`` disables the check.
    max_router_degree:
        Maximum number of physical links per router (port count limit).
    require_connected_traffic:
        Every application edge must be routable on the architecture.
    """

    link_capacity_bits_per_cycle: float | None = None
    max_bisection_bandwidth: float | None = None
    max_router_degree: int | None = None
    require_connected_traffic: bool = True


@dataclass
class ConstraintReport:
    """Outcome of checking one architecture against the constraints."""

    satisfied: bool
    violations: list[str] = field(default_factory=list)
    channel_loads: dict[ChannelKey, float] = field(default_factory=dict)
    bisection_bandwidth: float | None = None
    """Only computed under a ``max_bisection_bandwidth`` limit; ``None``
    otherwise (and for single-router topologies)."""
    bisection_exact: bool | None = None
    """Whether ``bisection_bandwidth`` is the exact minimum (every balanced
    bipartition enumerated) or the coordinate-sweep estimate used above 16
    routers; ``None`` when it was not computed."""
    max_router_degree: int = 0

    def raise_if_violated(self) -> None:
        """Raise :class:`ConstraintViolationError` unless every constraint holds."""
        if not self.satisfied:
            raise ConstraintViolationError(
                f"{len(self.violations)} design constraint(s) violated", self.violations
            )

    def describe(self) -> str:
        """One-line pass/fail summary listing any violations."""
        if self.satisfied:
            return "all design constraints satisfied"
        return "constraint violations:\n" + "\n".join(f"  - {v}" for v in self.violations)


def channel_bandwidth_loads(
    acg: ApplicationGraph, table: RoutingTable
) -> dict[ChannelKey, float]:
    """Aggregate bandwidth requirement carried by every channel.

    Every application edge is routed with the table and its ``b(e)`` is added
    to every channel on the route — exactly the aggregation Section 4.2 uses
    to size implementation links.
    """
    loads: dict[ChannelKey, float] = {}
    for source, target in acg.edges():
        requirement = acg.bandwidth(source, target)
        route = table.route(source, target)
        for hop in zip(route, route[1:]):
            loads[hop] = loads.get(hop, 0.0) + requirement
    return loads


def channel_volume_loads(
    acg: ApplicationGraph, table: RoutingTable
) -> dict[ChannelKey, float]:
    """Aggregate communication *volume* (bits) carried by every channel."""
    loads: dict[ChannelKey, float] = {}
    for source, target in acg.edges():
        volume = acg.volume(source, target)
        route = table.route(source, target)
        for hop in zip(route, route[1:]):
            loads[hop] = loads.get(hop, 0.0) + volume
    return loads


class ConstraintChecker:
    """Checks a (topology, routing table) pair against :class:`DesignConstraints`."""

    def __init__(self, constraints: DesignConstraints | None = None) -> None:
        self.constraints = constraints or DesignConstraints()

    def check(
        self,
        topology: Topology,
        table: RoutingTable,
        acg: ApplicationGraph,
    ) -> ConstraintReport:
        """Evaluate every design constraint of Section 4.2 on one architecture."""
        violations: list[str] = []
        loads: dict[ChannelKey, float] = {}

        # 1. routability of every application edge
        try:
            loads = channel_bandwidth_loads(acg, table)
        except RoutingError as error:
            if self.constraints.require_connected_traffic:
                violations.append(f"unroutable traffic: {error}")

        # 2. per-channel bandwidth
        for (source, target), load in loads.items():
            if topology.has_channel(source, target):
                declared = topology.channel(source, target).bandwidth_bits_per_cycle or 0.0
            else:
                violations.append(
                    f"route uses channel ({source!r} -> {target!r}) that the topology lacks"
                )
                continue
            capacity = (
                self.constraints.link_capacity_bits_per_cycle
                if self.constraints.link_capacity_bits_per_cycle is not None
                else declared
            )
            if load > capacity + 1e-9:
                violations.append(
                    f"channel ({source!r} -> {target!r}) overloaded: "
                    f"required {load:g} > capacity {capacity:g} bits/cycle"
                )

        # 3. wiring resources via bisection bandwidth (exponential in the
        # router count, so only computed when a limit asks for it)
        bisection = None
        bisection_exact = None
        limit = self.constraints.max_bisection_bandwidth
        if limit is not None and topology.num_routers >= 2:
            result = bisection_bandwidth(topology)
            bisection = result.bandwidth_bits_per_cycle
            bisection_exact = result.exact
            if bisection > limit + 1e-9:
                violations.append(
                    f"bisection bandwidth {bisection:g} exceeds the technology limit "
                    f"{limit:g} bits/cycle"
                )

        # 4. router degree (port count)
        max_degree = topology.max_degree()
        if (
            self.constraints.max_router_degree is not None
            and max_degree > self.constraints.max_router_degree
        ):
            violations.append(
                f"router degree {max_degree} exceeds the limit "
                f"{self.constraints.max_router_degree}"
            )

        return ConstraintReport(
            satisfied=not violations,
            violations=violations,
            channel_loads=loads,
            bisection_bandwidth=bisection,
            bisection_exact=bisection_exact,
            max_router_degree=max_degree,
        )
