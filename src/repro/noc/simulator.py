"""Cycle-accurate NoC simulator with three interchangeable engines.

This is the measurement substrate that replaces the paper's Virtex-2 FPGA
prototype: the same architecture-agnostic fabric simulates both the 4x4 mesh
baseline (XY routing) and the synthesized customized topology (table routing
derived from the primitives' schedules), so the throughput / latency / energy
comparison of Section 5.2 is apples-to-apples.

Model summary (packet-switched, one-flit-per-cycle links):

* routers are input-buffered with per-port FIFOs and round-robin output
  arbitration (:mod:`repro.noc.router`);
* forwarding a packet over a channel keeps that channel busy for the
  packet's serialization time (``num_flits`` cycles) and delivers it into
  the downstream buffer after serialization plus the router pipeline delay;
* bounded buffers create backpressure (full buffers delay the transfer);
* every router traversal / link traversal is accumulated into batched
  switch/bit·mm counters and flushed into an
  :class:`~repro.energy.power.EnergyAccount` at finalize, so the same run
  yields the energy and average-power figures.

Three engines drive the model (``SimulatorConfig.engine``):

* ``"event"`` (default) — event-driven: only routers that might move a
  packet are visited, and the clock jumps straight to the next cycle where
  anything can progress (next injection, next arrival, next channel-release
  expiry, next scheduled router wake-up).  See ``docs/simulator.md`` for the
  activation conditions and the equivalence argument.
* ``"reference"`` — the dense cycle-stepped loop that visits every router
  every cycle.  It is kept forever as the executable specification the
  other engines are tested against: all engines produce bit-identical
  :meth:`NoCSimulator.report` output and per-packet delivery cycles.
* ``"batch"`` — vectorized numpy engine (:mod:`repro.noc.batch`): router
  and channel state laid out as flat arrays so a whole batch of sweep
  cells advances per array operation.  Through :class:`NoCSimulator` it
  runs as a batch of one; the DSE runner groups compatible sweep cells
  into real multi-cell batches.  numpy is a dependency of this engine
  only — the scalar engines stay stdlib-only.

The equivalence rests on two observations: (i) round-robin arbitration in
the dense loop advances its pointer exactly once per router per cycle, so
the pointer is the cycle number modulo the port count and can be derived
rather than stored — idle cycles advance it for free; and (ii) a cycle in
which no injection is due, no arrival completes and no router holds a
movable packet changes nothing, so skipping it is exact.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass

from repro.arch.topology import Topology
from repro.energy.power import EnergyAccount
from repro.energy.technology import DEFAULT_TECHNOLOGY, Technology
from repro.exceptions import ReproError, SimulationError
from repro.noc.network import Network
from repro.noc.packet import Message, Packet
from repro.noc.router import LOCAL_PORT, Router
from repro.noc.stats import SimulationStatistics
from repro.obs import SimulatorProbe, get_tracer

NodeId = Hashable
RoutingFunction = Callable[[NodeId, NodeId], NodeId]

#: event-driven engine: active-router scheduling + idle-cycle skipping
ENGINE_EVENT = "event"
#: dense cycle-stepped engine: the executable specification
ENGINE_REFERENCE = "reference"
#: vectorized numpy engine: flat (cell, port/channel) arrays, batchable
ENGINE_BATCH = "batch"

ENGINES = (ENGINE_EVENT, ENGINE_REFERENCE, ENGINE_BATCH)

#: how many stuck packets the drain-budget error names individually
_STUCK_PACKETS_NAMED = 8


@dataclass
class SimulatorConfig:
    """Knobs of the simulation model."""

    flit_width_bits: int = 32
    buffer_capacity_packets: int = 4
    router_pipeline_delay_cycles: int = 1
    max_cycles: int = 1_000_000
    charge_leakage: bool = True
    engine: str = ENGINE_EVENT
    """``"event"`` (skip dead time), ``"reference"`` (dense cycle loop) or
    ``"batch"`` (vectorized numpy arrays, batchable across sweep cells)."""

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise SimulationError(
                f"unknown simulator engine {self.engine!r} (use one of {ENGINES})"
            )
        if self.buffer_capacity_packets < 1:
            raise SimulationError("router buffers must hold at least one packet")
        if self.router_pipeline_delay_cycles < 1:
            raise SimulationError("router pipeline delay must be at least one cycle")


class NoCSimulator:
    """Drives a :class:`~repro.noc.network.Network` to completion.

    The public surface (scheduling, :meth:`run`, :meth:`run_until_drained`,
    :meth:`run_phases`, :meth:`report`) is engine-agnostic; the configured
    engine only decides *which* cycles are executed, never what happens
    within one.
    """

    def __init__(
        self,
        topology: Topology,
        routing: RoutingFunction,
        config: SimulatorConfig | None = None,
        technology: Technology = DEFAULT_TECHNOLOGY,
        probe: SimulatorProbe | None = None,
    ) -> None:
        self.config = config or SimulatorConfig()
        self.probe = probe
        """Optional :class:`~repro.obs.probes.SimulatorProbe`: when attached,
        per-router occupancy/latency histograms are recorded at the shared
        buffer-mutation points and ``probe_*`` figures join :meth:`report`.
        The probe never changes any existing report figure or delivery cycle
        — both engines produce bit-identical output with it attached."""
        self.topology = topology
        self.technology = technology
        self.network = Network(
            topology,
            routing,
            buffer_capacity_packets=self.config.buffer_capacity_packets,
            pipeline_delay_cycles=self.config.router_pipeline_delay_cycles,
        )
        self.energy = EnergyAccount(technology=technology)
        self.statistics = SimulationStatistics()
        self.current_cycle = 0
        self.cycles_stepped = 0
        """Cycles actually executed (== ``current_cycle`` for the reference
        engine; the event engine's skipped-cycle savings show up here)."""
        self._next_packet_id = 0
        self._pending: list[tuple[int, int, Packet]] = []  # (cycle, seq, packet) heap
        self._leakage_charged_until = 0
        # batched energy accounting: per-run switch-traversal bits and
        # per-channel bit counters, flushed into the EnergyAccount once per
        # finalize instead of two method calls per packet per hop
        self._switch_bits = 0
        self._link_bits: dict[tuple[NodeId, NodeId], int] = {}
        # event engine bookkeeping: a stable processing order (the reference
        # loop's router iteration order) and a heap of scheduled wake-ups
        self._router_order = {node: index for index, node in enumerate(self.network.routers)}
        self._wake_heap: list[tuple[int, int, NodeId]] = []  # (cycle, order, node)
        self._scheduled_wake: dict[NodeId, int] = {}
        """Earliest scheduled wake per router; pushing a later duplicate is
        pointless because processing at the earlier cycle re-evaluates
        everything and re-arms as needed."""
        # O(1) load tracking, maintained at the three buffer mutation points
        # (injection, arrival, pop) so neither engine ever scans every
        # router's buffers to find work or to decide drainage
        self._buffered_by_node: dict[NodeId, int] = dict.fromkeys(self.network.routers, 0)
        self._buffered_total = 0
        # one nomination closure per router, built once instead of per visit
        self._wants_output: dict[NodeId, Callable[[Packet], object]] = {
            node: (lambda packet, _node=node: self.network.output_request(_node, packet))
            for node in self.network.routers
        }
        self._batch = None
        if self.config.engine == ENGINE_BATCH:
            from repro.noc.batch import BatchSimulator

            self._batch = BatchSimulator(
                topology, routing, [self.config], technologies=[technology]
            )
            # the single batch cell owns the live counters; re-binding its
            # result objects keeps statistics/energy the public surface
            self.statistics = self._batch.statistics(0)
            self.energy = self._batch.energy(0)
            if probe is not None:
                self._batch.attach_probe(0, probe)

    def sync_topology(self) -> None:
        """Adopt routers/channels added to the topology after construction.

        The simulator mirrors :meth:`Network.sync_topology
        <repro.noc.network.Network.sync_topology>` with its own per-router
        bookkeeping (processing order, load counters, nomination closures),
        so this is the one entry point to call after mutating a simulated
        topology; it delegates the fabric re-wiring to the network first.
        New routers are appended to the processing order — existing
        routers keep their positions, so an in-flight simulation's
        arbitration stays stable.
        """
        if self._batch is not None:
            raise SimulationError(
                "the batch engine freezes the fabric layout at construction; "
                "sync_topology() is only available on the 'event' and "
                "'reference' engines"
            )
        self.network.sync_topology()
        for node in self.network.routers:
            if node in self._router_order:
                continue
            self._router_order[node] = len(self._router_order)
            self._buffered_by_node[node] = 0
            self._wants_output[node] = (
                lambda packet, _node=node: self.network.output_request(_node, packet)
            )

    def attach_probe(self, probe: SimulatorProbe) -> SimulatorProbe:
        """Attach an observability probe (idempotent; returns the probe)."""
        self.probe = probe
        if self._batch is not None:
            self._batch.attach_probe(0, probe)
        return probe

    # ------------------------------------------------------------------
    # traffic scheduling
    # ------------------------------------------------------------------
    def schedule_message(self, message: Message, cycle: int | None = None) -> Packet:
        """Queue a message for injection at ``cycle`` (default: now)."""
        if self._batch is not None:
            # the batch core repeats the validations below verbatim and
            # records the injection on the shared statistics object
            return self._batch.schedule_message(0, message, cycle)
        if cycle is None:
            cycle = self.current_cycle
        if cycle < self.current_cycle:
            raise SimulationError("cannot schedule a message in the past")
        if not self.topology.has_router(message.source):
            raise SimulationError(f"unknown source router {message.source!r}")
        if not self.topology.has_router(message.destination):
            raise SimulationError(f"unknown destination router {message.destination!r}")
        packet = Packet.from_message(
            self._next_packet_id, message, self.config.flit_width_bits, cycle
        )
        self._next_packet_id += 1
        heapq.heappush(self._pending, (cycle, packet.packet_id, packet))
        self.statistics.record_injection()
        return packet

    def schedule_messages(self, messages: Iterable[Message], cycle: int | None = None) -> None:
        for message in messages:
            self.schedule_message(message, cycle)

    # ------------------------------------------------------------------
    # the per-cycle model, shared verbatim by both engines
    # ------------------------------------------------------------------
    def _inject_due_packets(self) -> list[NodeId]:
        injected: list[NodeId] = []
        probe = self.probe
        while self._pending and self._pending[0][0] <= self.current_cycle:
            _, _, packet = heapq.heappop(self._pending)
            source = packet.source
            self.network.inject(packet, source)
            self._buffered_by_node[source] += 1
            self._buffered_total += 1
            if probe is not None:
                probe.record_enqueue(source, self._buffered_by_node[source])
            injected.append(source)
        return injected

    def _serialization_cycles(self, packet: Packet) -> int:
        return max(1, packet.num_flits)

    def _process_router(
        self,
        node: NodeId,
        router: Router,
        wake_upstream: Callable[[NodeId], None] | None = None,
    ) -> None:
        """One router's arbitration + forwarding for the current cycle.

        ``wake_upstream(port)`` — supplied by the event engine only — is
        called whenever a packet is popped out of a bounded input buffer,
        because that is the moment a backpressured upstream router becomes
        able to progress again.
        """
        cycle = self.current_cycle
        winners = router.nominate_at(cycle, self._wants_output[node])
        for output, input_port in winners.items():
            buffer = router.buffer(input_port)
            head = buffer.head()
            if head is None:  # pragma: no cover - defensive
                continue
            if output == LOCAL_PORT:
                packet = buffer.pop()
                self._buffered_by_node[node] -= 1
                self._buffered_total -= 1
                packet.delivery_cycle = cycle
                # final router traversal (ejection) — the (n_hops)-th
                # switch of Equation 1.
                self._switch_bits += packet.size_bits
                self.statistics.record_delivery(packet)
                if self.probe is not None:
                    self.probe.record_delivery(node, packet.latency)
                if wake_upstream is not None and input_port != LOCAL_PORT:
                    wake_upstream(input_port)
                continue
            channel = (node, output)
            if self.network.channel_free_at.get(channel, 0) > cycle:
                continue
            if not self.network.router(output).can_accept(node):
                continue
            packet = buffer.pop()
            self._buffered_by_node[node] -= 1
            self._buffered_total -= 1
            serialization = self._serialization_cycles(packet)
            self.network.channel_free_at[channel] = cycle + serialization
            arrival = cycle + serialization + self.config.router_pipeline_delay_cycles
            packet.record_hop(output)
            self.network.launch(packet, node, output, arrival)
            self._switch_bits += packet.size_bits
            self._link_bits[channel] = self._link_bits.get(channel, 0) + packet.size_bits
            self.statistics.record_channel_busy(channel, serialization)
            if wake_upstream is not None and input_port != LOCAL_PORT:
                wake_upstream(input_port)

    def _note_arrivals(self, receivers: list[NodeId]) -> None:
        probe = self.probe
        for node in receivers:
            self._buffered_by_node[node] += 1
            if probe is not None:
                probe.record_enqueue(node, self._buffered_by_node[node])
        self._buffered_total += len(receivers)

    def step(self) -> None:
        """Advance the simulation by one dense cycle (reference semantics).

        Traversal energy is accumulated in batched counters; callers driving
        the simulator through ``step()`` directly see it in the
        :class:`EnergyAccount` after the next :meth:`report` or ``run*()``
        call, which flush the batches.
        """
        if self._batch is not None:
            raise SimulationError(
                "the batch engine executes whole runs; step() is only "
                "available on the 'event' and 'reference' engines"
            )
        self._inject_due_packets()
        self._note_arrivals(self.network.deliver_arrivals(self.current_cycle))
        for node, router in self.network.routers.items():
            self._process_router(node, router)
        self.cycles_stepped += 1
        self.current_cycle += 1

    # ------------------------------------------------------------------
    # event-driven engine
    # ------------------------------------------------------------------
    def _wake(self, node: NodeId, cycle: int) -> None:
        scheduled = self._scheduled_wake.get(node)
        if scheduled is not None and scheduled <= cycle:
            return
        self._scheduled_wake[node] = cycle
        heapq.heappush(self._wake_heap, (cycle, self._router_order[node], node))

    def _arm_occupied_routers(self) -> None:
        """Schedule every router currently holding packets for processing.

        Called on entry to every event-driven run so that mixing manual
        :meth:`step` calls (or successive runs) with the event engine can
        never leave a loaded router asleep.
        """
        if not self._buffered_total:
            return
        cycle = self.current_cycle
        for node, count in self._buffered_by_node.items():
            if count:
                self._wake(node, cycle)

    def _next_event_cycle(self) -> int | None:
        """The next cycle at which anything can possibly progress."""
        candidate: int | None = self._pending[0][0] if self._pending else None
        arrival = self.network.next_arrival_cycle()
        if arrival is not None and (candidate is None or arrival < candidate):
            candidate = arrival
        if self._wake_heap and (candidate is None or self._wake_heap[0][0] < candidate):
            candidate = self._wake_heap[0][0]
        if candidate is None:
            return None
        return max(candidate, self.current_cycle)

    def _schedule_router_wake(self, node: NodeId, router: Router, cycle: int) -> None:
        """Re-arm a still-loaded router at the next cycle it could progress.

        Per occupied port the head packet either (a) ejects locally — always
        possible, wake next cycle; (b) waits for a busy output channel —
        wake when the channel frees; (c) has a free channel and downstream
        space but lost this cycle's arbitration — wake next cycle; or
        (d) is backpressured by a full downstream buffer — no timed wake:
        the pop-side ``wake_upstream`` callback fires the moment space
        appears.  Routing errors surface during nomination, exactly where
        the reference engine raises them, so the probe defers to the next
        processed cycle rather than raising here.
        """
        wake: int | None = None
        for _port, head in router.occupied_heads():
            if head.destination == node:
                candidate: int | None = cycle + 1
            else:
                try:
                    next_hop = self.network.next_hop(node, head.destination)
                except ReproError:
                    candidate = cycle + 1
                else:
                    free_at = self.network.channel_free_at.get((node, next_hop), 0)
                    if free_at > cycle:
                        candidate = free_at
                    elif self.network.router(next_hop).can_accept(node):
                        candidate = cycle + 1
                    else:
                        candidate = None  # backpressured: woken by the pop side
            if candidate is not None and (wake is None or candidate < wake):
                wake = candidate
        if wake is not None:
            self._wake(node, wake)

    def _process_active_cycle(self, cycle: int) -> None:
        """Execute one cycle, visiting only the routers that might progress.

        Active routers are processed in the reference loop's router order;
        a router woken mid-cycle by an upstream-space release joins this
        cycle's worklist when its turn has not passed yet (exactly the
        routers the dense loop would still visit) and is deferred to the
        next cycle otherwise.
        """
        self.current_cycle = cycle
        worklist: list[tuple[int, NodeId]] = []
        queued: set[NodeId] = set()

        def activate(node: NodeId) -> None:
            if node not in queued:
                queued.add(node)
                heapq.heappush(worklist, (self._router_order[node], node))

        for node in self._inject_due_packets():
            activate(node)
        receivers = self.network.deliver_arrivals(cycle)
        self._note_arrivals(receivers)
        for node in receivers:
            activate(node)
        scheduled = self._scheduled_wake
        while self._wake_heap and self._wake_heap[0][0] <= cycle:
            wake_cycle, _, node = heapq.heappop(self._wake_heap)
            if scheduled.get(node) == wake_cycle:
                del scheduled[node]
            activate(node)

        processing_order = -1
        loaded = self._buffered_by_node

        def wake_upstream(upstream: NodeId) -> None:
            if not loaded[upstream]:
                return  # an empty router is re-armed by injection/arrival
            if self._router_order[upstream] > processing_order:
                activate(upstream)
            else:
                self._wake(upstream, cycle + 1)

        while worklist:
            processing_order, node = heapq.heappop(worklist)
            if not loaded[node]:
                continue  # speculative wake of an emptied router: a no-op
            self._process_router(node, self.network.routers[node], wake_upstream=wake_upstream)
            if loaded[node]:
                self._schedule_router_wake(node, self.network.routers[node], cycle)
        self.cycles_stepped += 1
        self.current_cycle = cycle + 1

    def _run_event(self, cycles: int) -> None:
        """Event-driven :meth:`run`: execute only the active cycles of the
        window, then jump the clock to the end (idle tails are analytic —
        leakage over the skipped span is charged in one call at finalize)."""
        target = self.current_cycle + cycles
        self._arm_occupied_routers()
        while True:
            next_cycle = self._next_event_cycle()
            if next_cycle is None or next_cycle >= target:
                break
            self._process_active_cycle(next_cycle)
        self.current_cycle = target

    def _drained(self) -> bool:
        """No pending injection, no buffered packet, nothing in flight."""
        return not (self._pending or self._buffered_total or self.network.in_flight)

    def _run_event_until_drained(self, start: int, budget: int) -> None:
        self._arm_occupied_routers()
        while not self._drained():
            next_cycle = self._next_event_cycle()
            if next_cycle is None or next_cycle - start > budget:
                # the reference engine crawls through the dead cycles and
                # raises once the budget is crossed; land on the same cycle
                self.current_cycle = start + budget + 1
                raise self._drain_budget_error(budget)
            self._process_active_cycle(next_cycle)

    # ------------------------------------------------------------------
    # runs
    # ------------------------------------------------------------------
    def run(self, cycles: int) -> None:
        """Run for a fixed number of cycles."""
        tracer = get_tracer()
        with tracer.span("noc.run") as span:
            if self._batch is not None:
                from repro.noc.batch import RunOp

                self._batch.enqueue(0, RunOp(cycles))
                self._execute_batch()  # the batch core finalizes per op
            elif self.config.engine == ENGINE_EVENT:
                self._run_event(cycles)
                self._finalize()
            else:
                for _ in range(cycles):
                    self.step()
                self._finalize()
            if tracer.enabled:
                span.annotate(
                    engine=self.config.engine,
                    cycles=cycles,
                    cycles_stepped=self.cycles_stepped,
                )

    def run_until_drained(self, max_cycles: int | None = None) -> int:
        """Run until all scheduled traffic has been delivered.

        Returns the cycle count at which the network drained.  Raises
        :class:`SimulationError` naming the stuck packets if the budget is
        exhausted first (which would indicate a routing loop or deadlock).
        """
        budget = max_cycles if max_cycles is not None else self.config.max_cycles
        start = self.current_cycle
        tracer = get_tracer()
        with tracer.span("noc.run_until_drained") as span:
            if self._batch is not None:
                from repro.noc.batch import DrainOp

                self._batch.enqueue(0, DrainOp(max_cycles))
                self._execute_batch()  # the batch core finalizes per op
            elif self.config.engine == ENGINE_EVENT:
                self._run_event_until_drained(start, budget)
                self._finalize()
            else:
                while not self._drained():
                    if self.current_cycle - start > budget:
                        raise self._drain_budget_error(budget)
                    self.step()
                self._finalize()
            if tracer.enabled:
                span.annotate(
                    engine=self.config.engine,
                    cycles_drained=self.current_cycle - start,
                    cycles_stepped=self.cycles_stepped,
                )
        return self.current_cycle

    def _execute_batch(self) -> None:
        """Drive the single-cell batch core, mirroring its counters back.

        The core captures per-cell failures; re-raising here reproduces the
        scalar engines' raise-from-``run*()`` behaviour (including the
        post-failure cycle counters, which the ``finally`` keeps in sync).
        """
        try:
            self._batch.execute(raise_errors=True)
        finally:
            self.current_cycle = self._batch.current_cycle(0)
            self.cycles_stepped = self._batch.cycles_stepped(0)

    def _drain_budget_error(self, budget: int) -> SimulationError:
        """The drain-failure error, naming the packets that are stuck."""
        stuck = self.network.stuck_packets()
        named = ", ".join(
            f"#{packet.packet_id} at {where!r} -> {packet.destination!r} "
            f"({packet.hops} hops)"
            for packet, where in stuck[:_STUCK_PACKETS_NAMED]
        )
        if len(stuck) > _STUCK_PACKETS_NAMED:
            named += f", and {len(stuck) - _STUCK_PACKETS_NAMED} more"
        return SimulationError(
            f"network did not drain within {budget} cycles "
            f"({len(stuck)} packets stuck: {named})"
        )

    def _flush_energy_batches(self) -> None:
        """Fold the batched traversal counters into the energy account.

        Bits are accumulated as exact integers, and channels flush in
        first-launch order, so the flushed totals are independent of which
        engine produced them.
        """
        if self._switch_bits:
            self.energy.charge_switch(self._switch_bits)
            self._switch_bits = 0
        if self._link_bits:
            for channel, bits in self._link_bits.items():
                self.energy.charge_link(bits, self.network.channel_length_mm(*channel))
            self._link_bits.clear()

    def _finalize(self) -> None:
        self.statistics.total_cycles = self.current_cycle
        self._flush_energy_batches()
        if self.config.charge_leakage:
            # leakage is charged once per finalize over the cycles simulated
            # since the previous finalize — including any skipped idle span
            span = self.current_cycle - self._leakage_charged_until
            if span > 0:
                self.energy.charge_leakage(self.topology.num_routers, span)
                self._leakage_charged_until = self.current_cycle

    # ------------------------------------------------------------------
    # phased execution (dependency-aware workloads such as distributed AES)
    # ------------------------------------------------------------------
    def run_phases(
        self,
        phases: Sequence[Sequence[Message]],
        max_cycles_per_phase: int | None = None,
        computation_cycles_per_phase: int = 0,
    ) -> list[int]:
        """Run a sequence of communication phases back to back.

        All messages of a phase are injected simultaneously, and the next
        phase starts only when the network has drained — which models the
        data dependencies between computation rounds (e.g. AES rounds: a node
        cannot start the next round before it received its operands).
        ``computation_cycles_per_phase`` idles the network after every phase
        to account for the local computation (e.g. SubBytes / MixColumns
        arithmetic) that separates communication phases; leakage keeps being
        charged during those cycles.  With the event engine the idle
        allowance is analytic — the clock jumps over it — while the
        reference engine steps through it cycle by cycle; both charge the
        identical leakage because finalize charges by elapsed span.

        Returns the list of per-phase durations in cycles (including the
        computation allowance).
        """
        if computation_cycles_per_phase < 0:
            raise SimulationError("computation cycles per phase must be non-negative")
        durations: list[int] = []
        for phase in phases:
            phase_start = self.current_cycle
            self.schedule_messages(phase, cycle=self.current_cycle)
            self.run_until_drained(max_cycles=max_cycles_per_phase)
            if computation_cycles_per_phase:
                self.run(computation_cycles_per_phase)
            durations.append(self.current_cycle - phase_start)
        return durations

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def average_power_mw(self) -> float:
        return self.energy.average_power_mw(max(self.statistics.total_cycles, 1))

    def engine_info(self) -> dict[str, object]:
        """Engine provenance: which engine ran and how much dead time it
        skipped.  Deliberately not part of :meth:`report`, whose output is
        engine-independent by contract."""
        return {
            "engine": self.config.engine,
            "cycles_total": self.current_cycle,
            "cycles_stepped": self.cycles_stepped,
            "cycles_skipped": self.current_cycle - self.cycles_stepped,
        }

    def report(self) -> dict[str, float]:
        """Combined performance + energy summary of the run so far.

        With a probe attached, deterministic ``probe_*`` figures are
        appended; the pre-existing keys are byte-for-byte unaffected, so
        probed and unprobed runs agree on everything but the extra keys.
        """
        # catch up the batched traversal counters so manual step() loops
        # (or runs that raised before finalize) still read complete figures
        if self._batch is not None:
            self._batch.flush_energy(0)
        self._flush_energy_batches()
        report = dict(self.statistics.summary())
        report.update(self.energy.summary())
        report["average_power_mw"] = self.average_power_mw()
        report["total_energy_uj"] = self.energy.total_energy_uj
        if self.probe is not None:
            report.update(self.probe.report_figures(self.statistics))
        return report
