"""Three-way differential harness: reference vs event vs batch engines.

The engine contract is "identical results, less work": on any traffic,
over any topology, every engine must produce the same ``report()`` dict,
the same per-packet delivery cycles and the same per-packet paths as the
dense cycle-stepped reference engine — bit for bit, floats included.
Hypothesis drives randomized traffic (sources, destinations, sizes,
injection schedules) over both the 4x4 mesh baseline and a
synthesized-style irregular custom topology, across the
backpressure-relevant corner of a one-packet buffer.

The reference engine is the oracle; the event and batch engines are the
candidates, each independently asserted against it (so a shrunk failure
names the engine that diverged).  Batch-specific strategies additionally
drive the multi-cell :class:`~repro.noc.batch.BatchSimulator` at batch
sizes 1, 2 and ragged groups, asserting that a cell's results never
depend on what else shares its batch.

Every test here carries the ``differential`` marker.  The default run
uses the example budgets below; the scheduled/labelled CI job raises
them uniformly via the ``REPRO_HYPOTHESIS_BUDGET`` multiplier (e.g.
``REPRO_HYPOTHESIS_BUDGET=8 pytest -m differential``).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.mesh import MeshTopology
from repro.arch.topology import Topology
from repro.noc.batch import BatchSimulator, DrainOp
from repro.noc.packet import Message
from repro.noc.simulator import (
    ENGINE_BATCH,
    ENGINE_EVENT,
    ENGINE_REFERENCE,
    NoCSimulator,
    SimulatorConfig,
)
from repro.obs import SimulatorProbe
from repro.routing.policies import POLICIES
from repro.routing.shortest_path import all_pairs_shortest_paths
from repro.routing.table import RoutingTable

pytestmark = pytest.mark.differential

#: uniform example-budget multiplier for the scheduled differential CI job
BUDGET = int(os.environ.get("REPRO_HYPOTHESIS_BUDGET", "1"))


def examples(base: int) -> int:
    """The per-test hypothesis example count, scaled by the CI budget."""
    return base * BUDGET


#: the oracle engine and the candidates independently diffed against it
ORACLE = ENGINE_REFERENCE
CANDIDATES = (ENGINE_EVENT, ENGINE_BATCH)


def mesh_fabric() -> tuple[Topology, object]:
    mesh = MeshTopology(4, 4)
    return mesh, POLICIES.get("xy").build(mesh).frozen_next_hop()


def custom_fabric() -> tuple[Topology, object]:
    """An irregular synthesized-style topology: a hub, a ring and chords.

    Shaped like the custom architectures the synthesis flow emits: mixed
    router degrees, asymmetric link lengths, no grid regularity — the cases
    where per-(node, destination) table routing replaces XY.
    """
    topology = Topology(name="custom_irregular")
    ring = [0, 1, 2, 3, 4, 5]
    for index, node in enumerate(ring):
        topology.add_channel(node, ring[(index + 1) % len(ring)], length_mm=1.5, bidirectional=True)
    for spoke in (1, 3, 5):
        topology.add_channel(6, spoke, length_mm=2.5, bidirectional=True)
    topology.add_channel(0, 7, length_mm=1.0, bidirectional=True)
    topology.add_channel(7, 4, length_mm=3.0)
    table = RoutingTable(topology)
    # install first hops only: full-path installs from different sources may
    # disagree mid-path, but per-pair first hops along BFS-shortest paths
    # strictly decrease the distance to the destination, so they are
    # conflict-free and loop-free
    for (source, destination), path in all_pairs_shortest_paths(topology).items():
        table.set_next_hop(source, destination, path[1])
    return topology, table.frozen_next_hop()


FABRICS = {"mesh_4x4": mesh_fabric, "custom": custom_fabric}


def traffic_messages(
    topology: Topology, traffic: list[tuple[int, int, int, int]]
) -> list[tuple[int, Message]]:
    """Resolve raw traffic tuples into per-cycle messages on a fabric.

    Self-sends are dropped; when nothing survives, one fallback message is
    injected so ``report()`` (which needs a delivery) stays defined.
    """
    nodes = topology.routers()
    resolved: list[tuple[int, Message]] = []
    for cycle, source_index, destination_index, size_bits in traffic:
        source = nodes[source_index % len(nodes)]
        destination = nodes[destination_index % len(nodes)]
        if source == destination:
            continue
        resolved.append((cycle, Message(source, destination, size_bits)))
    if not resolved:
        resolved.append((0, Message(nodes[0], nodes[1], 32)))
    return resolved


def run_engine(
    engine: str,
    fabric: str,
    traffic: list[tuple[int, int, int, int]],
    buffer_capacity: int,
    pipeline_delay: int,
    probed: bool = False,
) -> NoCSimulator:
    topology, routing = FABRICS[fabric]()
    simulator = NoCSimulator(
        topology,
        routing,
        config=SimulatorConfig(
            engine=engine,
            buffer_capacity_packets=buffer_capacity,
            router_pipeline_delay_cycles=pipeline_delay,
        ),
    )
    if probed:
        simulator.attach_probe(SimulatorProbe())
    for cycle, message in traffic_messages(topology, traffic):
        simulator.schedule_message(message, cycle=cycle)
    simulator.run_until_drained()
    return simulator


def run_all_engines(
    fabric: str,
    traffic: list[tuple[int, int, int, int]],
    buffer_capacity: int,
    pipeline_delay: int,
    probed: bool = False,
) -> dict[str, NoCSimulator]:
    """One identical run per engine, oracle first."""
    return {
        engine: run_engine(engine, fabric, traffic, buffer_capacity, pipeline_delay, probed)
        for engine in (ORACLE, *CANDIDATES)
    }


def assert_equivalent(candidate: NoCSimulator, oracle: NoCSimulator) -> None:
    """The bit-exactness contract between one candidate and the oracle."""
    assert candidate.report() == oracle.report()
    assert candidate.statistics.delivery_cycles() == oracle.statistics.delivery_cycles()
    candidate_paths = {p.packet_id: p.path for p in candidate.statistics.delivered_packets}
    oracle_paths = {p.packet_id: p.path for p in oracle.statistics.delivered_packets}
    assert candidate_paths == oracle_paths
    assert candidate.current_cycle == oracle.current_cycle


def assert_all_equivalent(runs: dict[str, NoCSimulator]) -> None:
    """Every candidate engine against the reference oracle, one at a time."""
    oracle = runs[ORACLE]
    for engine in CANDIDATES:
        assert_equivalent(runs[engine], oracle)


traffic_entries = st.tuples(
    st.integers(min_value=0, max_value=120),  # injection cycle
    st.integers(min_value=0, max_value=15),  # source index
    st.integers(min_value=0, max_value=15),  # destination index
    st.sampled_from([8, 32, 64, 96, 256]),  # size in bits (1..8 flits)
)


@settings(
    max_examples=examples(30), deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    traffic=st.lists(traffic_entries, min_size=1, max_size=40),
    buffer_capacity=st.sampled_from([1, 2, 4]),
    pipeline_delay=st.sampled_from([1, 2]),
)
def test_mesh_engines_equivalent(traffic, buffer_capacity, pipeline_delay):
    assert_all_equivalent(
        run_all_engines("mesh_4x4", traffic, buffer_capacity, pipeline_delay)
    )


@settings(
    max_examples=examples(30), deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    traffic=st.lists(traffic_entries, min_size=1, max_size=40),
    buffer_capacity=st.sampled_from([1, 2, 4]),
    pipeline_delay=st.sampled_from([1, 3]),
)
def test_custom_topology_engines_equivalent(traffic, buffer_capacity, pipeline_delay):
    assert_all_equivalent(
        run_all_engines("custom", traffic, buffer_capacity, pipeline_delay)
    )


@settings(
    max_examples=examples(20), deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    traffic=st.lists(traffic_entries, min_size=1, max_size=32),
    fabric=st.sampled_from(sorted(FABRICS)),
    buffer_capacity=st.sampled_from([1, 2]),
    pipeline_delay=st.sampled_from([1, 2]),
)
def test_probed_engines_equivalent_and_unperturbed(
    traffic, fabric, buffer_capacity, pipeline_delay
):
    """Probes observe without perturbing: probed engines stay bit-identical.

    All three engines run with a `SimulatorProbe` attached; their full
    reports — including the `probe_*` figures the probe contributes — must
    match the oracle's, and stripping the `probe_*` keys must reproduce the
    unprobed report exactly (attaching a probe never changes what is
    simulated), again on every engine.
    """
    runs = run_all_engines(fabric, traffic, buffer_capacity, pipeline_delay, probed=True)
    assert_all_equivalent(runs)
    probed_report = runs[ORACLE].report()
    assert any(key.startswith("probe_") for key in probed_report)
    stripped = {
        key: value for key, value in probed_report.items() if not key.startswith("probe_")
    }
    for engine in (ORACLE, *CANDIDATES):
        unprobed = run_engine(engine, fabric, traffic, buffer_capacity, pipeline_delay)
        assert stripped == unprobed.report()
        assert (
            runs[ORACLE].statistics.delivery_cycles()
            == unprobed.statistics.delivery_cycles()
        )


@settings(
    max_examples=examples(20), deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    traffic=st.lists(traffic_entries, min_size=1, max_size=24),
    computation=st.integers(min_value=0, max_value=20),
)
def test_phased_execution_equivalent(traffic, computation):
    """Schedule, drain, then idle per phase (the AES traffic program's ops):
    the analytic idle jump matches the stepped idle crawl."""
    phases: list[list[Message]] = [[], [], []]
    mesh = MeshTopology(4, 4)
    nodes = mesh.routers()
    for index, (cycle, s, d, size) in enumerate(traffic):
        source, destination = nodes[s % len(nodes)], nodes[d % len(nodes)]
        if source != destination:
            phases[index % len(phases)].append(Message(source, destination, size))
    if not any(phases):  # report() needs at least one delivery to be defined
        phases[0].append(Message(nodes[0], nodes[1], 32))
    runs = {}
    for engine in (ORACLE, *CANDIDATES):
        topology, routing = mesh_fabric()
        simulator = NoCSimulator(
            topology, routing, config=SimulatorConfig(engine=engine)
        )
        durations = []
        for phase in phases:
            start = simulator.current_cycle
            simulator.schedule_messages(phase)
            simulator.run_until_drained()
            if computation:
                simulator.run(computation)
            durations.append(simulator.current_cycle - start)
        runs[engine] = (simulator, durations)
    oracle, oracle_durations = runs[ORACLE]
    for engine in CANDIDATES:
        candidate, durations = runs[engine]
        assert durations == oracle_durations
        assert_equivalent(candidate, oracle)


@settings(
    max_examples=examples(15), deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    traffic=st.lists(traffic_entries, min_size=1, max_size=40),
    fabric=st.sampled_from(sorted(FABRICS)),
    buffer_capacity=st.sampled_from([1, 4]),
    pipeline_delay=st.sampled_from([1, 2]),
)
def test_open_loop_run_equivalent(traffic, fabric, buffer_capacity, pipeline_delay):
    """Fixed-horizon ``run()`` (open loop, undelivered traffic allowed).

    Unlike the drain tests, the horizon can cut packets off in flight; the
    engines must agree on the partial state too.  ``report()`` may raise
    (no deliveries inside the horizon) — in that case every engine must
    raise identically, and the comparison falls back to delivery cycles,
    paths and the cycle counter.
    """
    horizon = 60
    runs = {}
    for engine in (ORACLE, *CANDIDATES):
        topology, routing = FABRICS[fabric]()
        simulator = NoCSimulator(
            topology,
            routing,
            config=SimulatorConfig(
                engine=engine,
                buffer_capacity_packets=buffer_capacity,
                router_pipeline_delay_cycles=pipeline_delay,
            ),
        )
        for cycle, message in traffic_messages(topology, traffic):
            simulator.schedule_message(message, cycle=cycle)
        simulator.run(horizon)
        runs[engine] = simulator
    oracle = runs[ORACLE]
    try:
        oracle_report = oracle.report()
        oracle_raise = None
    except Exception as error:  # undefined figures: engines must agree on that
        oracle_report = None
        oracle_raise = (type(error), str(error))
    for engine in CANDIDATES:
        candidate = runs[engine]
        if oracle_raise is None:
            assert candidate.report() == oracle_report
        else:
            with pytest.raises(oracle_raise[0]) as caught:
                candidate.report()
            assert str(caught.value) == oracle_raise[1]
        assert candidate.statistics.delivery_cycles() == oracle.statistics.delivery_cycles()
        candidate_paths = {
            p.packet_id: p.path for p in candidate.statistics.delivered_packets
        }
        oracle_paths = {p.packet_id: p.path for p in oracle.statistics.delivered_packets}
        assert candidate_paths == oracle_paths
        assert candidate.current_cycle == oracle.current_cycle


# ----------------------------------------------------------------------
# batch-specific strategies: multi-cell batches vs solo oracles
# ----------------------------------------------------------------------
#: one batch cell: (traffic, buffer capacity, pipeline delay)
cell_workloads = st.tuples(
    st.lists(traffic_entries, min_size=1, max_size=16),
    st.sampled_from([1, 2, 4]),
    st.sampled_from([1, 2]),
)


@settings(
    max_examples=examples(15), deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    cells=st.lists(cell_workloads, min_size=1, max_size=5),
    fabric=st.sampled_from(sorted(FABRICS)),
)
def test_batched_cells_match_solo_oracle(cells, fabric):
    """A multi-cell batch equals per-cell oracle runs, cell for cell.

    Batch sizes shrink down through the interesting cases (1, 2, and the
    ragged sizes a chunked sweep produces); each cell carries its own
    traffic and simulator knobs, so the test also certifies that batching
    heterogeneous configurations never couples them.
    """
    topology, routing = FABRICS[fabric]()
    core = BatchSimulator(
        topology,
        routing,
        [
            SimulatorConfig(
                engine=ENGINE_BATCH,
                buffer_capacity_packets=capacity,
                router_pipeline_delay_cycles=delay,
            )
            for _, capacity, delay in cells
        ],
    )
    for position, (traffic, _, _) in enumerate(cells):
        for cycle, message in traffic_messages(topology, traffic):
            core.schedule_message(position, message, cycle=cycle)
        core.enqueue(position, DrainOp(None))
    core.execute(raise_errors=True)
    for position, (traffic, capacity, delay) in enumerate(cells):
        solo = run_engine(ORACLE, fabric, traffic, capacity, delay)
        core.flush_energy(position)
        statistics = core.statistics(position)
        assert statistics.delivery_cycles() == solo.statistics.delivery_cycles()
        batched_paths = {p.packet_id: p.path for p in statistics.delivered_packets}
        solo_paths = {p.packet_id: p.path for p in solo.statistics.delivered_packets}
        assert batched_paths == solo_paths
        assert statistics.summary() == solo.statistics.summary()
        assert core.energy(position).summary() == solo.energy.summary()
        assert core.current_cycle(position) == solo.current_cycle


@settings(
    max_examples=examples(10), deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    cells=st.lists(cell_workloads, min_size=2, max_size=5),
    fabric=st.sampled_from(sorted(FABRICS)),
)
def test_batch_composition_invariance(cells, fabric):
    """A cell's results are invariant under batch composition and order.

    The same cells run (a) all in one batch and (b) each alone in a
    single-cell batch, in reversed order; every per-cell figure — including
    ``cycles_stepped``, which solo-vs-batched bugs would skew first — must
    be identical.  This is the bug class batching introduces.
    """
    def run_grouped(grouping: list[list[int]]) -> dict[int, tuple]:
        results: dict[int, tuple] = {}
        for group in grouping:
            topology, routing = FABRICS[fabric]()
            core = BatchSimulator(
                topology,
                routing,
                [
                    SimulatorConfig(
                        engine=ENGINE_BATCH,
                        buffer_capacity_packets=cells[index][1],
                        router_pipeline_delay_cycles=cells[index][2],
                    )
                    for index in group
                ],
            )
            for position, index in enumerate(group):
                for cycle, message in traffic_messages(topology, cells[index][0]):
                    core.schedule_message(position, message, cycle=cycle)
                core.enqueue(position, DrainOp(None))
            core.execute(raise_errors=True)
            for position, index in enumerate(group):
                core.flush_energy(position)
                results[index] = (
                    core.statistics(position).summary(),
                    core.statistics(position).delivery_cycles(),
                    core.energy(position).summary(),
                    core.current_cycle(position),
                    core.cycles_stepped(position),
                )
        return results

    together = run_grouped([list(range(len(cells)))])
    solo_reversed = run_grouped([[index] for index in reversed(range(len(cells)))])
    assert together == solo_reversed
