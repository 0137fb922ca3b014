"""Property-based tests (hypothesis) for the fabric layer.

For every registered (topology family, routing policy) pair that the
policy supports, three invariants must hold on arbitrary fabric sizes:

* **valid walks** — every all-pairs route is a walk over existing
  channels that starts at the source, terminates at the destination and
  never loops;
* **minimality** — on families the policy declares itself hop-minimal
  for (``PolicySpec.minimal_families``), every route's hop count equals
  the BFS shortest-path hop count;
* **deadlock freedom by construction** — policies that promise an
  acyclic channel dependency graph (``deadlock_free_by_construction``)
  deliver one under full all-pairs traffic, on every supported family.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.families import FAMILIES, pad_node_ids
from repro.routing.deadlock import build_channel_dependency_graph
from repro.routing.policies import POLICIES
from repro.routing.shortest_path import bfs_shortest_path


def _build(family: str, cores: int):
    spec = FAMILIES.get(family)
    return spec.build(pad_node_ids(spec, range(1, cores + 1)))


def _supported_pairs() -> list[tuple[str, str]]:
    pairs = []
    for family in FAMILIES.names():
        probe = _build(family, 12)
        for policy in POLICIES.names():
            if POLICIES.get(policy).supports(probe):
                pairs.append((family, policy))
    return pairs


SUPPORTED_PAIRS = _supported_pairs()
CORES = st.integers(min_value=4, max_value=18)


@pytest.mark.parametrize("family,policy", SUPPORTED_PAIRS)
@given(cores=CORES)
@settings(max_examples=8, deadline=None)
def test_routes_are_valid_terminating_walks(family: str, policy: str, cores: int):
    fabric = _build(family, cores)
    spec = POLICIES.get(policy)
    if not spec.supports(fabric):  # tiny instances may change the class shape
        return
    table = spec.build(fabric)
    routers = fabric.routers()
    for source in routers:
        for destination in routers:
            if source == destination:
                continue
            path = table.route(source, destination)  # raises on loops
            assert path[0] == source and path[-1] == destination
            assert len(set(path)) == len(path)  # simple path, no revisits
            for hop_from, hop_to in zip(path, path[1:]):
                assert fabric.has_channel(hop_from, hop_to)


@pytest.mark.parametrize(
    "family,policy",
    [
        (family, policy)
        for family, policy in SUPPORTED_PAIRS
        if family in POLICIES.get(policy).minimal_families
    ],
)
@given(cores=CORES)
@settings(max_examples=8, deadline=None)
def test_minimal_policies_match_bfs_hop_counts(family: str, policy: str, cores: int):
    fabric = _build(family, cores)
    spec = POLICIES.get(policy)
    if not spec.supports(fabric):
        return
    table = spec.build(fabric)
    routers = fabric.routers()
    for source in routers:
        for destination in routers:
            if source == destination:
                continue
            got = len(table.route(source, destination)) - 1
            want = len(bfs_shortest_path(fabric, source, destination)) - 1
            assert got == want, (source, destination)


@pytest.mark.parametrize(
    "family,policy",
    [
        (family, policy)
        for family, policy in SUPPORTED_PAIRS
        if POLICIES.get(policy).deadlock_free_by_construction
    ],
)
@given(cores=CORES)
@settings(max_examples=8, deadline=None)
def test_by_construction_policies_have_acyclic_cdgs(
    family: str, policy: str, cores: int
):
    fabric = _build(family, cores)
    spec = POLICIES.get(policy)
    if not spec.supports(fabric):
        return
    table = spec.build(fabric)
    routers = fabric.routers()
    pairs = [(s, d) for s in routers for d in routers if s != d]
    cdg = build_channel_dependency_graph(table, pairs)
    assert cdg.find_cycle() is None
