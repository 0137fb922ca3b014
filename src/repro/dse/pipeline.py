"""The shared evaluation pipeline: one (scenario, configuration) -> record.

This is the engine the batch design-space exploration is built on — and
the same engine the Section-5.2 prototype comparison now runs on
(:mod:`repro.experiments.comparison` delegates its measurements here).
Every cell takes one path.  :func:`_prepare_cell` builds the record and
chains

    decompose_stage -> synthesize_stage -> route_stage

for the ``custom`` architecture (always through a
:class:`~repro.dse.cache.StageContext`, a throwaway one when the caller
passes none), or builds the standard-fabric baseline (a
:mod:`repro.arch.families` topology family compiled against a
:mod:`repro.routing.policies` routing policy, via
:func:`baseline_route_stage`) for ``mesh``.  Then ``simulate_stage ->
score_stage`` drive the cycle-level simulator with the scenario's
:class:`TrafficProgram` (the op list its :data:`TRAFFIC_MODES` builder
makes: plain ACG batches, the dependency-aware AES phases, or a plugin
mode) and capture every figure of merit into an
:class:`~repro.dse.records.EvaluationRecord` — one cell at a time in
:func:`evaluate`, or many cells per vectorized simulator call for
batch-engine cells in :func:`evaluate_cells`.  Both paths replay the same
program, built once per scenario per process (:func:`traffic_program`).
Failures at any stage become record statuses (:func:`_assign_failure`),
not exceptions: an infeasible or deadlocking configuration is a *result*
of the exploration.

The stages are separable on purpose: the decompose stage only reads the
workload graph plus the decomposition knobs, and the synthesize/route
stages only add the synthesis knobs, so sweep cells that differ in
simulator-stage axes alone (injection knobs, buffering, cycle budgets)
share one decomposition — and one synthesized topology — through a
shared :class:`~repro.dse.cache.StageContext`.  ``record.stage_reuse``
says per cell whether each stage was computed fresh or served from the
in-memory memo (``"memory"``) or the on-disk artifact store
(``"store"``).
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Hashable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import TYPE_CHECKING

from repro.aes.aes_core import FIPS197_KEY
from repro.aes.distributed import DistributedAES
from repro.arch.families import FAMILIES, pad_node_ids
from repro.arch.topology import Topology
from repro.core.bounds import BOUND_NAMES
from repro.core.cost import LinkCountCostModel
from repro.core.decomposition import (
    DecompositionConfig,
    DecompositionResult,
    SearchStrategy,
    decompose,
)
from repro.core.graph import ApplicationGraph
from repro.core.library import (
    CommunicationLibrary,
    aes_library,
    default_library,
    extended_library,
    minimal_library,
)
from repro.core.synthesis import (
    SynthesisOptions,
    SynthesizedArchitecture,
    TopologySynthesizer,
)
from repro.dse.records import (
    STATUS_DECOMPOSITION_FAILED,
    STATUS_ROUTING_FAILED,
    STATUS_SIMULATION_FAILED,
    STATUS_SYNTHESIS_FAILED,
    EvaluationRecord,
)
from repro.energy.technology import TECHNOLOGIES, Technology
from repro.exceptions import (
    ConfigurationError,
    DeadlockError,
    DecompositionError,
    ReproError,
    RoutingError,
    SimulationError,
    SynthesisError,
)
from repro.noc.batch import BatchSimulator, DrainOp, RunOp, ScheduleOp
from repro.noc.simulator import (
    ENGINE_BATCH,
    ENGINE_EVENT,
    NoCSimulator,
    SimulatorConfig,
)
from repro.noc.stats import throughput_mbps_from_cycles
from repro.noc.traffic import acg_messages
from repro.obs import SimulatorProbe, get_session, get_tracer
from repro.plugins import Registry
from repro.routing.deadlock import DeadlockReport, analyze_deadlock
from repro.routing.policies import POLICIES
from repro.routing.table import RoutingTable

if TYPE_CHECKING:
    from repro.dse.cache import StageContext

NodeId = Hashable
RoutingFunction = Callable[[NodeId, NodeId], NodeId]

#: traffic modes a scenario can request
TRAFFIC_ACG = "acg"
TRAFFIC_AES_PHASES = "aes_phases"

#: bits per AES block (the paper's throughput unit)
AES_BLOCK_SIZE_BITS = 128

#: the communication-library registry (plugin-fabric cell: third-party
#: libraries register here, directly or via the entry-point group)
LIBRARIES: Registry[Callable[[], CommunicationLibrary]] = Registry("communication library")
LIBRARIES.register("minimal", minimal_library)
LIBRARIES.register("default", default_library)
LIBRARIES.register("extended", extended_library)
LIBRARIES.register("aes", aes_library)

#: the decomposition search-strategy registry
STRATEGIES: Registry[SearchStrategy] = Registry("search strategy")
STRATEGIES.register("branch_and_bound", SearchStrategy.BRANCH_AND_BOUND)
STRATEGIES.register("greedy", SearchStrategy.GREEDY)


#: the traffic-mode registry: each mode is a program builder
#: ``scenario -> TrafficProgram`` (plugin-fabric cell: third-party traffic
#: generators register here, directly or via the entry-point group)
TRAFFIC_MODES: Registry[Callable[["Scenario"], "TrafficProgram"]] = Registry("traffic mode")


# ----------------------------------------------------------------------
# configuration of one grid cell
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EvaluationSettings:
    """One point of the configuration space (JSON-serializable by design).

    Every field is a plain string/number/bool so a settings instance can be
    content-hashed for the result cache and shipped to worker processes.
    """

    architecture: str = "custom"
    """``"custom"`` (decompose + synthesize) or ``"mesh"`` (standard-fabric
    baseline: a :mod:`repro.arch.families` topology family routed by a
    :mod:`repro.routing.policies` policy; the label predates the fabric
    registry and covers every standard family, not just the mesh)."""

    # -- decomposition ---------------------------------------------------
    strategy: str = "branch_and_bound"
    library: str = "default"
    max_matchings_per_primitive: int | None = 3
    isomorphism_timeout_seconds: float | None = 2.0
    decomposition_timeout_seconds: float | None = 20.0
    max_nodes_expanded: int | None = 400
    lower_bound: str = "stacked"
    """Which admissible residual bound prunes the branch-and-bound (see
    :mod:`repro.core.bounds`): ``"cost_model"``, ``"cheapest_edge"``,
    ``"packing"``, ``"exact_small"`` or ``"stacked"``.  Part of the
    decomposition stage sub-key: cached artifacts never mix bound
    configurations (truncated searches expand different trees under
    different bounds)."""

    # -- synthesis -------------------------------------------------------
    flit_width_bits: int = 32
    bidirectional_links: bool = False
    fill_all_pairs_routing: bool = False

    # -- standard-fabric baseline ----------------------------------------
    topology: str = "mesh"
    """Topology family of the baseline fabric (see
    :data:`repro.arch.families.FAMILIES`)."""
    routing_policy: str = "xy"
    """Routing policy compiled onto the baseline fabric (see
    :data:`repro.routing.policies.POLICIES`)."""
    mesh_tile_pitch_mm: float = 2.0
    """Tile pitch of the baseline fabric (the name predates the fabric
    registry; every family reads it, not just the mesh)."""

    # -- routing gate ----------------------------------------------------
    require_deadlock_free: bool = False
    """When true, the route-stage CDG gate fails cells whose routing table
    admits a dependency cycle instead of simulating them; either way the
    record carries ``deadlock_free`` and ``vc_channels_needed``."""

    # -- simulation ------------------------------------------------------
    technology: str = "fpga_virtex2"
    """Technology point of the energy model (see
    :data:`repro.energy.technology.TECHNOLOGIES`)."""
    router_pipeline_delay_cycles: int = 1
    buffer_capacity_packets: int = 4
    max_cycles: int = 100_000
    engine: str = ENGINE_EVENT
    """Simulator engine: ``"event"`` (skip dead time), ``"reference"``
    (dense cycle loop) or ``"batch"`` (vectorized numpy; the runner groups
    compatible batch cells into one multi-cell simulator call)."""

    def __post_init__(self) -> None:
        if self.architecture not in ("custom", "mesh"):
            raise ConfigurationError(
                f"unknown architecture {self.architecture!r} (use 'custom' or 'mesh')"
            )
        STRATEGIES.get(self.strategy)  # raises UnknownPluginError when unknown
        LIBRARIES.get(self.library)  # raises UnknownPluginError when unknown
        FAMILIES.get(self.topology)  # raises UnknownPluginError when unknown
        POLICIES.get(self.routing_policy)  # raises UnknownPluginError when unknown
        TECHNOLOGIES.get(self.technology)  # raises UnknownPluginError when unknown
        try:
            # rejects an unknown engine and non-positive buffer/pipeline knobs
            # at plan time instead of caching simulation_failed records
            self.build_simulator_config()
        except SimulationError as error:
            raise ConfigurationError(str(error)) from error
        if self.lower_bound not in BOUND_NAMES:
            raise ConfigurationError(
                f"unknown lower bound {self.lower_bound!r} (use one of {BOUND_NAMES})"
            )

    def as_dict(self) -> dict[str, object]:
        """All fields as a plain JSON-serializable dict."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "EvaluationSettings":
        """Rebuild settings from a dict, ignoring unknown keys."""
        known = {spec.name for spec in fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in known})

    #: fields a mesh-baseline evaluation never reads
    _CUSTOM_ONLY_FIELDS = (
        "strategy",
        "library",
        "max_matchings_per_primitive",
        "isomorphism_timeout_seconds",
        "decomposition_timeout_seconds",
        "max_nodes_expanded",
        "lower_bound",
        "bidirectional_links",
        "fill_all_pairs_routing",
    )

    #: fields only the standard-fabric baseline reads
    _FABRIC_ONLY_FIELDS = (
        "topology",
        "routing_policy",
        "mesh_tile_pitch_mm",
    )

    def canonical_dict(self) -> dict[str, object]:
        """``as_dict`` with architecture-irrelevant knobs normalized out.

        Used for content-hash cache keys: a standard-fabric baseline does
        not depend on decomposition/synthesis knobs (and a custom
        architecture does not depend on the fabric family, routing policy
        or tile pitch), so cells differing only in an irrelevant axis share
        one key — and one evaluation.
        """
        payload = self.as_dict()
        if self.architecture == "mesh":
            for name in self._CUSTOM_ONLY_FIELDS:
                payload[name] = None
        else:
            for name in self._FABRIC_ONLY_FIELDS:
                payload[name] = None
        return payload

    #: fields only the simulate/score stages read; changing one never changes
    #: the decomposition or the synthesized topology.
    #: ``require_deadlock_free`` rides along: it gates whether a cell
    #: *proceeds* past the route stage, but the routing table and deadlock
    #: report it inspects are identical either way, so stage artifacts are
    #: safely shared across gate settings.
    _SIMULATOR_STAGE_FIELDS = (
        "technology",
        "router_pipeline_delay_cycles",
        "buffer_capacity_packets",
        "max_cycles",
        "engine",
        "require_deadlock_free",
    )

    #: fields the synthesize/route stages read on top of the decomposition
    #: (``flit_width_bits`` also feeds the simulator config, but it shapes the
    #: topology first, so it is upstream of the simulate stage)
    _SYNTHESIS_STAGE_FIELDS = (
        "flit_width_bits",
        "bidirectional_links",
        "fill_all_pairs_routing",
    )

    def synthesis_stage_dict(self) -> dict[str, object]:
        """:meth:`canonical_dict` with the simulator-stage fields nulled out.

        The content identity of the synthesize/route stages: cells that agree
        on this dict (and on the workload graph) produce the same synthesized
        topology, routing table and constraint/deadlock reports, whatever
        their simulator knobs say.
        """
        payload = self.canonical_dict()
        for name in self._SIMULATOR_STAGE_FIELDS:
            payload[name] = None
        return payload

    def decomposition_stage_dict(self) -> dict[str, object]:
        """:meth:`synthesis_stage_dict` with the synthesis fields nulled too.

        The content identity of the decompose stage: only the search knobs
        (strategy, library, matching/timeout/node budgets) survive, so every
        simulator- or synthesis-axis sweep cell shares one decomposition.
        """
        payload = self.synthesis_stage_dict()
        for name in self._SYNTHESIS_STAGE_FIELDS:
            payload[name] = None
        return payload

    def merged(self, overrides: dict[str, object]) -> "EvaluationSettings":
        """A copy with the given fields replaced (unknown keys rejected)."""
        known = {spec.name for spec in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ConfigurationError(f"unknown settings fields: {sorted(unknown)}")
        return replace(self, **overrides)

    def build_decomposition_config(self) -> DecompositionConfig:
        """The decompose-stage knobs as a :class:`DecompositionConfig`."""
        return DecompositionConfig(
            strategy=STRATEGIES.get(self.strategy),
            max_matchings_per_primitive=self.max_matchings_per_primitive,
            isomorphism_timeout_seconds=self.isomorphism_timeout_seconds,
            total_timeout_seconds=self.decomposition_timeout_seconds,
            max_nodes_expanded=self.max_nodes_expanded,
            lower_bound=self.lower_bound,
        )

    def build_library(self) -> CommunicationLibrary:
        """Instantiate the named communication library."""
        return LIBRARIES.get(self.library)()

    def build_synthesizer(self) -> TopologySynthesizer:
        """The synthesize/route-stage knobs as a :class:`TopologySynthesizer`."""
        options = SynthesisOptions(
            flit_width_bits=self.flit_width_bits,
            bidirectional_links=self.bidirectional_links,
            fill_all_pairs_routing=self.fill_all_pairs_routing,
        )
        return TopologySynthesizer(options=options)

    def build_simulator_config(self) -> SimulatorConfig:
        """The simulate-stage knobs as a :class:`SimulatorConfig`."""
        return SimulatorConfig(
            flit_width_bits=self.flit_width_bits,
            buffer_capacity_packets=self.buffer_capacity_packets,
            router_pipeline_delay_cycles=self.router_pipeline_delay_cycles,
            max_cycles=self.max_cycles,
            engine=self.engine,
        )

    def build_technology(self) -> Technology:
        """Resolve the named technology's energy/frequency parameters."""
        return TECHNOLOGIES.get(self.technology)


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
@dataclass
class Scenario:
    """One named workload a sweep evaluates architectures against."""

    name: str
    acg: ApplicationGraph
    traffic: str = TRAFFIC_ACG
    repetitions: int = 1
    """How many back-to-back batches of ACG traffic are injected."""
    aes_blocks: int = 1
    computation_cycles_per_phase: int = 4
    """Local-computation allowance between AES phases (AES traffic only)."""
    packet_size_bits: int = 32
    description: str = ""
    params: dict[str, object] = field(default_factory=dict)
    """Generator parameters (sizes, densities, **explicit seeds**): part of
    the content fingerprint so distinct instances never share a cache key."""
    settings_overrides: dict[str, object] = field(default_factory=dict)
    """Per-scenario settings pins applied on top of every grid cell (e.g.
    the AES scenario pins ``library='aes'`` and full-duplex links)."""

    def __post_init__(self) -> None:
        TRAFFIC_MODES.get(self.traffic)  # raises UnknownPluginError when unknown
        if self.repetitions < 1 or self.aes_blocks < 1:
            raise ConfigurationError("repetitions and aes_blocks must be at least 1")
        if self.computation_cycles_per_phase < 0:
            raise ConfigurationError("computation_cycles_per_phase must be non-negative")
        if self.packet_size_bits < 1:
            raise ConfigurationError("packet_size_bits must be at least 1")

    def effective_settings(self, settings: EvaluationSettings) -> EvaluationSettings:
        """The grid cell's settings with this scenario's pins applied."""
        if not self.settings_overrides:
            return settings
        return settings.merged(self.settings_overrides)

    def with_simulation_cap(self, cap: int) -> "Scenario":
        """A copy whose simulation window is capped at ``cap`` iterations.

        The short-window variant the guided searcher's low rungs evaluate:
        ``repetitions`` and ``aes_blocks`` are clamped to ``cap`` while the
        workload graph, traffic mode and per-iteration rates stay identical.
        The traffic knobs are part of :meth:`fingerprint`, so the capped
        variant keys separately in every cache — a short-window result can
        never satisfy a full-window lookup.  Returns ``self`` unchanged when
        the cap is not binding (identical content = identical cache key, by
        design: the "low-fidelity" evaluation would be bit-identical).
        """
        if cap < 1:
            raise ConfigurationError("simulation cap must be at least 1")
        if self.repetitions <= cap and self.aes_blocks <= cap:
            return self
        return replace(
            self,
            repetitions=min(self.repetitions, cap),
            aes_blocks=min(self.aes_blocks, cap),
            params=dict(self.params),
            settings_overrides=dict(self.settings_overrides),
        )

    def fingerprint(self) -> dict[str, object]:
        """Content identity for cache keys: workload + traffic, not labels."""
        # the display name is deliberately absent: renaming a scenario must
        # not invalidate cached results for a content-identical workload
        # (the runner re-labels shared records with each cell's own name)
        return {
            "traffic": self.traffic,
            "repetitions": self.repetitions,
            "aes_blocks": self.aes_blocks,
            "computation_cycles_per_phase": self.computation_cycles_per_phase,
            "packet_size_bits": self.packet_size_bits,
            "params": {key: self.params[key] for key in sorted(self.params)},
            **self.structural_fingerprint(),
        }

    def structural_fingerprint(self) -> dict[str, object]:
        """The workload-graph part of :meth:`fingerprint`.

        Content identity of the communication graph alone — nodes, weighted
        edges and floorplan positions.  This is all the decompose and
        synthesize/route stages read; traffic-stage knobs (repetitions, AES
        block counts, packet sizes) are deliberately absent so cells that
        differ only in how the workload is *driven* share one decomposition.
        """
        edges = sorted(
            (
                str(source),
                str(target),
                float(self.acg.volume(source, target)),
                float(self.acg.bandwidth(source, target)),
            )
            for source, target in self.acg.edges()
        )
        positions = {
            str(node): (self.acg.position(node).x, self.acg.position(node).y)
            for node in self.acg.nodes()
            if self.acg.has_position(node)
        }
        return {
            "nodes": sorted(str(node) for node in self.acg.nodes()),
            "edges": edges,
            "positions": {key: positions[key] for key in sorted(positions)},
        }


# ----------------------------------------------------------------------
# measurement substrate (shared with the prototype comparison)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArchitectureMetrics:
    """Measured figures of merit for one architecture under one workload.

    ``num_blocks`` counts AES blocks for phase traffic and injected ACG
    batches otherwise, so ``cycles_per_block`` reads as cycles per
    iteration for generic workloads.
    """

    name: str
    num_blocks: int
    total_cycles: int
    cycles_per_block: float
    throughput_mbps: float
    average_latency_cycles: float
    average_hops: float
    average_power_mw: float
    energy_per_block_uj: float
    num_physical_links: int
    max_channel_utilization: float
    engine: str = ENGINE_EVENT
    """Which simulator engine produced these figures (provenance only —
    both engines yield identical metrics by contract)."""
    cycles_stepped: int = 0
    """Cycles the engine actually executed; ``total_cycles`` minus this is
    the dead time the event engine skipped."""

    def as_dict(self) -> dict[str, object]:
        """Reporting-row view of the measured figures of merit."""
        return {
            "architecture": self.name,
            "cycles_per_block": self.cycles_per_block,
            "throughput_mbps": self.throughput_mbps,
            "avg_latency_cycles": self.average_latency_cycles,
            "avg_hops": self.average_hops,
            "avg_power_mw": self.average_power_mw,
            "energy_per_block_uj": self.energy_per_block_uj,
            "physical_links": self.num_physical_links,
        }


def _metrics_from_state(
    name: str,
    topology: Topology,
    technology: Technology,
    statistics,
    energy,
    engine: str,
    cycles_stepped: int,
    program: TrafficProgram,
) -> ArchitectureMetrics:
    """Fold one finished simulation state into :class:`ArchitectureMetrics`.

    Shared by the per-cell simulators and the batched simulate stage so
    solo and batched evaluations compute every figure with the exact same
    float operations — bit-identical metrics either way.  The replayed
    ``program`` supplies the iteration count and the throughput basis.
    """
    iterations = program.iterations
    total_cycles = statistics.total_cycles
    cycles_per_block = total_cycles / iterations
    if program.block_bits is not None:
        throughput = throughput_mbps_from_cycles(
            program.block_bits, cycles_per_block, technology.frequency_mhz
        )
    else:
        throughput = statistics.throughput_mbps(technology.frequency_mhz)
    return ArchitectureMetrics(
        name=name,
        num_blocks=iterations,
        total_cycles=total_cycles,
        cycles_per_block=cycles_per_block,
        throughput_mbps=throughput,
        average_latency_cycles=statistics.average_latency_cycles(),
        average_hops=statistics.average_hops(),
        average_power_mw=energy.average_power_mw(max(total_cycles, 1)),
        energy_per_block_uj=energy.total_energy_uj / iterations,
        num_physical_links=topology.num_physical_links,
        max_channel_utilization=statistics.max_channel_utilization(),
        engine=engine,
        cycles_stepped=cycles_stepped,
    )


def _session_probe(simulator: NoCSimulator) -> SimulatorProbe | None:
    """Attach a fresh probe when the active obs session asks for capture.

    Returns ``None`` (and leaves the simulator untouched) outside a
    probe-capturing :class:`~repro.obs.ObsSession`, so the default path
    costs one contextvar read.
    """
    if not get_session().capture_probes:
        return None
    probe = SimulatorProbe()
    simulator.attach_probe(probe)
    return probe


def _flush_probe(probe: SimulatorProbe | None, statistics, name: str) -> None:
    """Publish a probe's per-router/per-channel figures into session metrics."""
    if probe is None:
        return
    metrics = get_session().metrics
    if metrics is not None:
        probe.emit_metrics(metrics, statistics, architecture=name)


#: one step of a traffic program (what :meth:`BatchSimulator.enqueue` takes)
TrafficOp = ScheduleOp | DrainOp | RunOp


@dataclass(frozen=True)
class TrafficProgram:
    """A scenario's traffic as the op program every simulator engine replays.

    The solo engines replay ``ops`` on a :class:`NoCSimulator`; the batched
    simulate stage enqueues the same ops on a :class:`BatchSimulator` cell.
    ``iterations`` is what the per-iteration figures divide by (AES blocks,
    ACG repetitions).  ``block_bits`` picks the throughput basis: when set,
    each iteration counts as one ``block_bits``-bit block (the paper's AES
    block throughput); when ``None``, throughput is the delivered bits.
    """

    ops: tuple[TrafficOp, ...]
    iterations: int
    block_bits: int | None = None


def _acg_program(
    acg: ApplicationGraph, repetitions: int, packet_size_bits: int
) -> TrafficProgram:
    """Per repetition, schedule every ACG edge's volume and drain."""
    if repetitions < 1:
        raise ConfigurationError("at least one traffic repetition is required")
    messages = tuple(acg_messages(acg, packet_size_bits=packet_size_bits))
    ops = tuple(op for _ in range(repetitions) for op in (ScheduleOp(messages), DrainOp()))
    return TrafficProgram(ops, repetitions)


def _aes_phase_program(blocks: int, computation_cycles_per_phase: int) -> TrafficProgram:
    """Per AES block and encryption phase: schedule it, drain, then idle.

    A phase starts only once the previous one has drained, which models the
    data dependencies between AES rounds.  The idle step is the cores'
    local-computation allowance; leakage is charged through it.
    """
    if blocks < 1:
        raise ConfigurationError("the comparison needs at least one block")
    if computation_cycles_per_phase < 0:
        raise SimulationError("computation cycles per phase must be non-negative")
    idle = [RunOp(computation_cycles_per_phase)] if computation_cycles_per_phase else []
    aes = DistributedAES(FIPS197_KEY)
    plaintext = bytes(range(16))
    ops: list[TrafficOp] = []
    for block_index in range(blocks):
        block = bytes((byte + block_index) % 256 for byte in plaintext)
        for phase in aes.encrypt_block(block).phases:
            ops += [ScheduleOp(tuple(phase)), DrainOp(), *idle]
    return TrafficProgram(tuple(ops), blocks, block_bits=AES_BLOCK_SIZE_BITS)


TRAFFIC_MODES.register(
    TRAFFIC_ACG,
    lambda scenario: _acg_program(
        scenario.acg, scenario.repetitions, scenario.packet_size_bits
    ),
)
TRAFFIC_MODES.register(
    TRAFFIC_AES_PHASES,
    lambda scenario: _aes_phase_program(
        scenario.aes_blocks, scenario.computation_cycles_per_phase
    ),
)


#: built programs by (builder, scenario content); see :func:`traffic_program`
_PROGRAMS: dict[tuple[object, str], TrafficProgram] = {}

#: programs kept before the oldest is dropped (a sweep has a few dozen)
_MAX_PROGRAMS = 256


def traffic_program(scenario: Scenario) -> TrafficProgram:
    """The scenario's traffic mode built into its op program, once per process.

    Programs are memoized by the mode's builder plus the scenario's content
    :meth:`~Scenario.fingerprint` (what the result cache keys on too), so
    every cell simulating the same workload — solo or batched, whatever
    the engine — replays one shared program.
    """
    builder = TRAFFIC_MODES.get(scenario.traffic)
    key = (builder, json.dumps(scenario.fingerprint(), sort_keys=True))
    program = _PROGRAMS.get(key)
    if program is None:
        program = builder(scenario)
        if len(_PROGRAMS) >= _MAX_PROGRAMS:
            del _PROGRAMS[next(iter(_PROGRAMS))]
        _PROGRAMS[key] = program
    return program


def _replay_program(
    name: str,
    topology: Topology,
    routing: RoutingFunction,
    technology: Technology,
    simulator_config: SimulatorConfig,
    program: TrafficProgram,
) -> ArchitectureMetrics:
    """Run one traffic program on a fresh :class:`NoCSimulator`."""
    simulator = NoCSimulator(topology, routing, config=simulator_config, technology=technology)
    probe = _session_probe(simulator)
    for op in program.ops:
        if isinstance(op, ScheduleOp):
            simulator.schedule_messages(op.messages)
        elif isinstance(op, DrainOp):
            simulator.run_until_drained(op.max_cycles)
        else:
            simulator.run(op.cycles)
    _flush_probe(probe, simulator.statistics, name)
    return _metrics_from_state(
        name,
        topology,
        technology,
        simulator.statistics,
        simulator.energy,
        engine=simulator.config.engine,
        cycles_stepped=simulator.cycles_stepped,
        program=program,
    )


def simulate_aes_traffic(
    name: str,
    topology: Topology,
    routing: RoutingFunction,
    blocks: int,
    technology: Technology,
    simulator_config: SimulatorConfig,
    computation_cycles_per_phase: int = 4,
) -> ArchitectureMetrics:
    """Run the dependency-aware distributed-AES phases on one architecture."""
    program = _aes_phase_program(blocks, computation_cycles_per_phase)
    return _replay_program(name, topology, routing, technology, simulator_config, program)


def build_baseline_fabric(
    acg: ApplicationGraph,
    family: str = "mesh",
    tile_pitch_mm: float = 2.0,
    flit_width_bits: int = 32,
) -> Topology:
    """The standard-fabric baseline of the named family for a scenario.

    Every ACG core becomes one fabric router; when the family needs more
    routers than the ACG has cores (a rectangular grid, an even spidergon
    ring) the spare slots are padded with traffic-less ``__pad*`` filler
    routers, so structured routing policies stay intact.  The mesh family
    uses the most-square grid that fits every core (16 cores -> 4x4,
    12 -> 3x4), exactly as the historical mesh baseline did.
    """
    nodes = list(acg.nodes())
    if not nodes:
        raise ConfigurationError("cannot build a fabric baseline for an empty ACG")
    spec = FAMILIES.get(family)
    return spec.build(
        pad_node_ids(spec, nodes),
        tile_pitch_mm=tile_pitch_mm,
        flit_width_bits=flit_width_bits,
    )


def baseline_route_stage(
    scenario: Scenario, settings: EvaluationSettings
) -> tuple[Topology, RoutingTable, DeadlockReport]:
    """Build + route the standard-fabric baseline for one cell.

    The counterpart of :func:`synthesize_stage` + :func:`route_stage` for
    ``architecture="mesh"`` cells: instantiate the settings' topology
    family, compile its routing policy into a flat next-hop table, and run
    the CDG deadlock analysis over the scenario's traffic pairs.  Raises
    :class:`~repro.exceptions.RoutingError` when the policy does not
    support the family — an explicit exploration result, not a crash.
    """
    settings = scenario.effective_settings(settings)
    fabric = build_baseline_fabric(
        scenario.acg,
        family=settings.topology,
        tile_pitch_mm=settings.mesh_tile_pitch_mm,
        flit_width_bits=settings.flit_width_bits,
    )
    # only the scenario's traffic pairs are ever simulated or deadlock-
    # gated, so the table is restricted to them: same routed decisions,
    # none of the all-pairs work over __pad*/__sw* infrastructure routers
    table = POLICIES.get(settings.routing_policy).build(fabric, scenario.acg.edges())
    deadlock_report = analyze_deadlock(table, scenario.acg.edges())
    return fabric, table, deadlock_report


# ----------------------------------------------------------------------
# the pipeline, stage by stage
# ----------------------------------------------------------------------
def run_decomposition_search(
    scenario: Scenario, settings: EvaluationSettings, library: CommunicationLibrary
) -> DecompositionResult:
    """The uncached decompose stage: run the search on the scenario's ACG.

    ``library`` is the one the scenario-effective settings name
    (``scenario.effective_settings(settings).build_library()``); the caller
    builds it so that one instance serves both an artifact load and this
    search.  This is the expensive part of a custom-architecture
    evaluation; callers that may share decompositions across cells go
    through :func:`decompose_stage` with a
    :class:`~repro.dse.cache.StageContext` instead of calling this directly.
    """
    settings = scenario.effective_settings(settings)
    return decompose(
        scenario.acg,
        library,
        cost_model=LinkCountCostModel(),
        config=settings.build_decomposition_config(),
    )


def _stage_context(context: StageContext | None) -> StageContext:
    """The caller's stage context, or a throwaway one (every stage computed)."""
    from repro.dse import cache  # imported late: the cache module builds on this one

    return context or cache.StageContext()


def decompose_stage(
    scenario: Scenario,
    settings: EvaluationSettings,
    context: StageContext | None = None,
) -> tuple[DecompositionResult, str]:
    """Stage 1: cover the workload graph with library primitives.

    Returns ``(decomposition, provenance)`` where provenance is one of the
    :data:`~repro.dse.records.STAGE_COMPUTED` /
    :data:`~repro.dse.records.STAGE_REUSED_MEMORY` /
    :data:`~repro.dse.records.STAGE_REUSED_STORE` markers.  Through a
    :class:`~repro.dse.cache.StageContext` the search runs at most once per
    decomposition sub-key; without one, a throwaway context runs it fresh.
    """
    return _stage_context(context).decomposition_for(scenario, settings)


def synthesize_stage(
    scenario: Scenario,
    settings: EvaluationSettings,
    decomposition: DecompositionResult,
) -> Topology:
    """Stage 2: instantiate the chosen primitives as a customized topology."""
    synthesizer = scenario.effective_settings(settings).build_synthesizer()
    return synthesizer.build_topology(scenario.acg, decomposition)


def route_stage(
    scenario: Scenario,
    settings: EvaluationSettings,
    decomposition: DecompositionResult,
    topology: Topology,
) -> SynthesizedArchitecture:
    """Stage 3: routing table + constraint and deadlock analysis.

    :meth:`~repro.core.synthesis.TopologySynthesizer.route`, the second half
    of :meth:`~repro.core.synthesis.TopologySynthesizer.synthesize` — the
    split exists so the synthesize/route product can be memoized under the
    synthesis sub-key.
    """
    synthesizer = scenario.effective_settings(settings).build_synthesizer()
    return synthesizer.route(scenario.acg, decomposition, topology)


def simulate_stage(
    scenario: Scenario,
    settings: EvaluationSettings,
    name: str,
    topology: Topology,
    routing: RoutingFunction,
) -> ArchitectureMetrics:
    """Stage 4: drive the cycle-level simulator with the scenario's traffic.

    Replays the scenario's :func:`traffic_program` — built by its
    :data:`TRAFFIC_MODES` entry, so a plugin-registered mode simulates
    exactly like the built-in ACG-batch and AES-phase modes.
    """
    return _replay_program(
        name,
        topology,
        routing,
        settings.build_technology(),
        settings.build_simulator_config(),
        traffic_program(scenario),
    )


def score_stage(metrics: ArchitectureMetrics, topology: Topology) -> dict[str, float]:
    """Stage 5: flatten measured metrics into the record's figures of merit.

    ``sim_cycles_stepped`` is engine provenance: together with
    ``total_cycles`` it says how much dead time the configured simulator
    engine skipped for this cell (the engine name itself sits in the
    record's ``settings["engine"]``).
    """
    return {
        "sim_cycles_stepped": float(metrics.cycles_stepped),
        "total_cycles": float(metrics.total_cycles),
        "cycles_per_iteration": metrics.cycles_per_block,
        "avg_latency_cycles": metrics.average_latency_cycles,
        "avg_hops": metrics.average_hops,
        "throughput_mbps": metrics.throughput_mbps,
        "avg_power_mw": metrics.average_power_mw,
        "energy_uj": metrics.energy_per_block_uj * metrics.num_blocks,
        "energy_per_iteration_uj": metrics.energy_per_block_uj,
        "physical_links": float(metrics.num_physical_links),
        "max_channel_utilization": metrics.max_channel_utilization,
        "total_wire_mm": topology.total_wire_length_mm(),
    }


def _apply_deadlock_gate(
    record: EvaluationRecord,
    settings: EvaluationSettings,
    deadlock_report: DeadlockReport,
) -> None:
    """The route-stage CDG gate: record provenance, optionally fail the cell.

    Every routed cell gets ``deadlock_free`` plus a ``vc_channels_needed``
    metric (how many channels would need an extra virtual channel to break
    every dependency cycle).  With ``require_deadlock_free`` a cyclic CDG
    raises :class:`~repro.exceptions.DeadlockError`, which
    :func:`evaluate` records as a routing failure — nothing is ever
    silently simulated on a deadlocky table without provenance saying so.
    """
    record.deadlock_free = deadlock_report.is_deadlock_free
    record.metrics["vc_channels_needed"] = float(
        len(deadlock_report.channels_needing_virtual_channels)
    )
    if settings.require_deadlock_free and not deadlock_report.is_deadlock_free:
        raise DeadlockError(list(deadlock_report.cycle))


@contextmanager
def _stage(record: EvaluationRecord, stage: str) -> Iterator[None]:
    """Time one pipeline stage into ``record.stage_seconds`` and span it.

    Timing lands in the record even when the stage raises (the pipeline's
    failure statuses), so a failed cell still reports where its time went;
    the span is named ``dse.<stage>`` so trace summaries can break a
    sweep's wall clock down by stage.
    """
    start = time.perf_counter()
    with get_tracer().span(f"dse.{stage}"):
        try:
            yield
        finally:
            record.stage_seconds[stage] = time.perf_counter() - start


def _record_decomposition(
    record: EvaluationRecord, decomposition: DecompositionResult
) -> None:
    """Copy the decompose stage's outputs into the record."""
    record.search_statistics = decomposition.statistics.as_dict()
    record.metrics.update(
        {
            "decomposition_cost": decomposition.total_cost,
            "num_matchings": float(decomposition.num_matchings),
            "remainder_edges": float(decomposition.remainder.num_edges),
            "covered_fraction": decomposition.covered_edge_fraction(),
        }
    )


def _synthesize_custom(
    scenario: Scenario,
    settings: EvaluationSettings,
    record: EvaluationRecord,
    context: StageContext,
) -> SynthesizedArchitecture:
    """Chain decompose -> synthesize -> route for one custom-architecture cell."""
    with _stage(record, "decompose"):
        decomposition, provenance = decompose_stage(scenario, settings, context)
    record.stage_reuse["decompose"] = provenance
    _record_decomposition(record, decomposition)
    architecture, provenance = context.architecture_for(
        scenario, settings, decomposition, stage=partial(_stage, record)
    )
    record.stage_reuse["synthesize"] = provenance
    record.constraints_satisfied = architecture.constraint_report.satisfied
    _apply_deadlock_gate(record, settings, architecture.deadlock_report)
    return architecture


#: exception type -> record status, in match order (DeadlockError is a
#: RoutingError; anything unlisted is a caller bug and keeps raising)
_FAILURE_STATUSES: tuple[tuple[type, str], ...] = (
    (DecompositionError, STATUS_DECOMPOSITION_FAILED),
    (SynthesisError, STATUS_SYNTHESIS_FAILED),
    (RoutingError, STATUS_ROUTING_FAILED),
    (SimulationError, STATUS_SIMULATION_FAILED),
)


def _assign_failure(record: EvaluationRecord, error: ReproError) -> None:
    """Map a pipeline exception onto the record statuses (or re-raise).

    Any other :class:`~repro.exceptions.ReproError` (``ConfigurationError``,
    ``WorkloadError``, ...) is a caller bug, not an
    exploration outcome: it raises rather than poison the result cache
    with mislabeled failures.
    """
    for exception_type, status in _FAILURE_STATUSES:
        if isinstance(error, exception_type):
            record.status = status
            record.error = str(error)
            return
    raise error


@dataclass
class _PreparedCell:
    """One cell's pipeline state between its route and simulate stages.

    ``record.runtime_seconds`` holds the time spent so far; ``routing`` is
    ``None`` when the cell already failed (its record carries the status).
    """

    scenario: Scenario
    settings: EvaluationSettings
    record: EvaluationRecord
    topology: Topology | None = None
    table: RoutingTable | None = None
    routing: RoutingFunction | None = None


def _prepare_cell(
    scenario: Scenario,
    settings: EvaluationSettings,
    cache_key: str,
    config_label: str,
    axes: Mapping[str, object] | None,
    context: StageContext | None,
) -> _PreparedCell:
    """Run one cell's pipeline up to (not including) the simulate stage.

    Builds the record, then either decompose -> synthesize -> route (custom,
    through ``context`` or a throwaway :class:`~repro.dse.cache.StageContext`
    that computes every stage fresh) or :func:`baseline_route_stage` (mesh).
    Pipeline failures become record statuses via :func:`_assign_failure`.
    """
    settings = scenario.effective_settings(settings)
    record = EvaluationRecord(
        scenario=scenario.name,
        architecture=settings.architecture,
        config_label=config_label or settings.architecture,
        cache_key=cache_key,
        axes=dict(axes or {}),
        settings=settings.as_dict(),
    )
    cell = _PreparedCell(scenario, settings, record)
    start = time.perf_counter()
    try:
        if settings.architecture == "mesh":
            with _stage(record, "route"):
                topology, table, deadlock_report = baseline_route_stage(scenario, settings)
                _apply_deadlock_gate(record, settings, deadlock_report)
        else:
            architecture = _synthesize_custom(
                scenario, settings, record, _stage_context(context)
            )
            topology, table = architecture.topology, architecture.routing_table
        cell.routing = table.frozen_next_hop()
        cell.topology, cell.table = topology, table
    except ReproError as error:
        _assign_failure(record, error)
    record.runtime_seconds = time.perf_counter() - start
    return cell


def _score(record: EvaluationRecord, metrics: ArchitectureMetrics, topology: Topology) -> None:
    """The timed score stage: fold measured metrics into the record."""
    with _stage(record, "score"):
        record.metrics.update(score_stage(metrics, topology))


def evaluate(
    scenario: Scenario,
    settings: EvaluationSettings,
    cache_key: str = "",
    config_label: str = "",
    axes: dict[str, object] | None = None,
    context: StageContext | None = None,
) -> EvaluationRecord:
    """Run the full pipeline for one (scenario, configuration) cell.

    Never raises for workload/architecture failures: decomposition,
    synthesis, routing and simulation errors all come back as record
    statuses.  Only caller bugs (e.g. an unknown architecture string in a
    hand-built settings object) surface as exceptions.

    ``context`` is an optional :class:`~repro.dse.cache.StageContext`; when
    given, the decompose and synthesize/route stages are reused across every
    cell sharing the respective stage sub-key instead of being recomputed.
    """
    settings = scenario.effective_settings(settings)
    with get_tracer().span(
        "dse.evaluate",
        scenario=scenario.name,
        architecture=settings.architecture,
        config=config_label or settings.architecture,
    ) as span:
        cell = _prepare_cell(scenario, settings, cache_key, config_label, axes, context)
        record = cell.record
        if cell.routing is not None:
            start = time.perf_counter()
            try:
                with _stage(record, "simulate"):
                    metrics = simulate_stage(
                        scenario, settings, cell.topology.name, cell.topology, cell.routing
                    )
                _score(record, metrics, cell.topology)
            except ReproError as error:
                _assign_failure(record, error)
            record.runtime_seconds += time.perf_counter() - start
        span.annotate(status=record.status)
    return record


# ----------------------------------------------------------------------
# batch-aware cell evaluation (the runner's simulate-stage batching)
# ----------------------------------------------------------------------
def axis_label(axes: Mapping[str, object]) -> str:
    """Compact human-readable cell label: ``arch=mesh,delay=2``."""
    if not axes:
        return "base"
    return ",".join(f"{key}={value}" for key, value in axes.items())


#: cells per batch-simulator call; a stage group larger than this is
#: chunked, so the last chunk may be ragged (fewer cells than the cap)
MAX_BATCH_CELLS = 16


def _batch_group_key(topology: Topology, table: RoutingTable) -> object:
    """Batching compatibility: same fabric structure, same routed decisions.

    Cells may share one :class:`~repro.noc.batch.BatchSimulator` exactly
    when their topologies have identical signatures (structure, channel
    lengths, positions) and their routing tables resolve identically —
    the table version plus the canonical next-hop entries.  Everything
    else (buffer capacity, pipeline delay, flit width, technology, even
    the traffic program) varies per cell inside the batch.
    """
    signature = json.dumps(topology.signature(), sort_keys=True, default=repr)
    entries = tuple(
        sorted((repr(key), repr(hop)) for key, hop in table.entries().items())
    )
    return (signature, table.version, entries)


def _simulate_batch_chunk(chunk: list[_PreparedCell]) -> None:
    """Simulate one group chunk in a single multi-cell batch call.

    Wall time is measured once for the whole call and attributed evenly:
    each record gets ``stage_seconds["simulate"] = wall / n`` plus a
    ``stage_reuse["simulate"] = "batch:n"`` provenance marker.  Per-cell
    simulation failures (drain budgets, routing loops) land on their own
    record; a batch-level failure (numpy unavailable, an invalid config)
    fails every cell of the chunk with the same message.
    """
    first = chunk[0]
    start = time.perf_counter()
    probes: list[SimulatorProbe | None] = [None] * len(chunk)
    capture = get_session().capture_probes
    try:
        core = BatchSimulator(
            first.topology,
            first.routing,
            [cell.settings.build_simulator_config() for cell in chunk],
            technologies=[cell.settings.build_technology() for cell in chunk],
        )
        programs = [traffic_program(cell.scenario) for cell in chunk]
        for position, cell in enumerate(chunk):
            if capture:
                probes[position] = core.attach_probe(position, SimulatorProbe())
            for op in programs[position].ops:
                core.enqueue(position, op)
        with get_tracer().span("dse.simulate", cells=len(chunk), engine=ENGINE_BATCH):
            core.execute()
    except SimulationError as error:
        share = (time.perf_counter() - start) / len(chunk)
        for cell in chunk:
            _assign_failure(cell.record, error)
            cell.record.stage_seconds["simulate"] = share
            cell.record.runtime_seconds += share
        return
    share = (time.perf_counter() - start) / len(chunk)
    for position, cell in enumerate(chunk):
        record = cell.record
        record.stage_seconds["simulate"] = share
        record.stage_reuse["simulate"] = f"batch:{len(chunk)}"
        record.runtime_seconds += share
        error = core.error(position)
        if error is not None:
            _assign_failure(record, error)
            continue
        metrics = _metrics_from_state(
            cell.topology.name,
            cell.topology,
            cell.settings.build_technology(),
            core.statistics(position),
            core.energy(position),
            engine=ENGINE_BATCH,
            cycles_stepped=core.cycles_stepped(position),
            program=programs[position],
        )
        _flush_probe(probes[position], core.statistics(position), cell.topology.name)
        _score(record, metrics, cell.topology)
        record.runtime_seconds += record.stage_seconds["score"]


def evaluate_cells(
    cell_payloads: Sequence[tuple[Scenario, EvaluationSettings, dict[str, object], str]],
    context: StageContext | None = None,
) -> list[EvaluationRecord]:
    """Evaluate a sequence of sweep cells, batching compatible batch cells.

    The drop-in plural of :func:`evaluate`: records come back in payload
    order with identical content.  Every cell is prepared by the same code
    as a solo :func:`evaluate`; cells whose effective engine is ``"batch"``
    then stop before the simulate stage, are grouped by
    :func:`_batch_group_key` — same topology signature, same routing-table
    version and entries — chunked to :data:`MAX_BATCH_CELLS`, and simulated
    in one :class:`~repro.noc.batch.BatchSimulator` call per chunk.  Every
    other cell takes the plain :func:`evaluate` path unchanged.

    Batching is provenance-visible but result-invariant: grouping and order
    never change any record metric (the batch engine advances every cell on
    its own cycle counter), only ``stage_seconds["simulate"]`` (the evenly
    attributed share of the batch wall time) and the
    ``stage_reuse["simulate"] = "batch:n"`` marker.
    """
    records: list[EvaluationRecord] = []
    groups: dict[object, list[_PreparedCell]] = {}
    for scenario, settings, axes, key in cell_payloads:
        label = axis_label(axes)
        if scenario.effective_settings(settings).engine != ENGINE_BATCH:
            records.append(evaluate(scenario, settings, key, label, axes, context))
            continue
        cell = _prepare_cell(scenario, settings, key, label, axes, context)
        records.append(cell.record)
        if cell.routing is not None:
            groups.setdefault(_batch_group_key(cell.topology, cell.table), []).append(cell)
    for group in groups.values():
        for offset in range(0, len(group), MAX_BATCH_CELLS):
            _simulate_batch_chunk(group[offset : offset + MAX_BATCH_CELLS])
    return records
