"""Batched numpy NoC engine: many sweep cells advance per array operation.

The third simulator engine (``SimulatorConfig.engine="batch"``) lays the
router/channel state of a whole *batch* of simulations out as flat numpy
arrays over ``(cell, port)`` and ``(cell, channel)`` and vectorizes the
per-cycle scan — occupancy, route lookup, round-robin arbitration,
channel/backpressure feasibility — across every cell at once.  All cells
share one topology and one routing function (that is what makes the
array layout rectangular); everything else — buffer capacity, pipeline
delay, flit width, technology, traffic, even the op program — may differ
per cell.  Per-cell completion masks stop finished cells from
contributing work, so a batch is exactly as expensive as its slowest
member, amortized.

Bit-exactness with the scalar engines is by construction, not by
sampling:

* cells are fully independent, and every per-cell comparison (arbitration
  pointer, channel release, injection due-ness) uses that cell's own
  cycle counter, so batching can never couple two simulations;
* within one executed cycle the vectorized phases replay the reference
  engine's order exactly — injections in ``(cycle, packet_id)`` order,
  in-flight arrivals in launch order with full-buffer retries keeping
  their list position, then per-router arbitration in the global router
  order with winners applied in round-robin scan order.  The one
  intra-cycle coupling (a pop at an earlier-ordered router freeing
  buffer space that a later-ordered router's forward needs) is resolved
  by a conservative fixpoint: round 0 admits every forward whose
  pre-cycle state allows it (counts only shrink during the router phase,
  so those are certainly correct), then blocked forwards are re-admitted
  exactly when the freeing pop happened at a router *earlier* in the
  processing order — the same state the dense loop would have observed;
* energy flushes reuse the scalar :class:`~repro.energy.power
  .EnergyAccount` call sequence verbatim (integer switch/link-bit
  counters, one ``charge_link`` per channel in first-launch order per
  finalize interval), so the floating-point totals are bit-identical.

Cycle advance is per cell and deterministic: a cell with buffered
packets executes its next cycle; an empty cell jumps straight to its
next injection or arrival (executing a cycle in which no router holds a
packet is a strict no-op — the event engine's own skipping argument).
``cycles_stepped`` is therefore a pure function of the cell's own
workload, never of who else shares the batch.

numpy is imported lazily on first use and is a dependency of this batch
path only — the scalar engines, and ``import repro.api``, stay
numpy-free.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass, field

from repro.arch.topology import Topology
from repro.energy.power import EnergyAccount
from repro.energy.technology import DEFAULT_TECHNOLOGY, Technology
from repro.exceptions import ReproError, SimulationError
from repro.noc.packet import Message, Packet
from repro.noc.stats import SimulationStatistics
from repro.obs import SimulatorProbe

NodeId = Hashable

#: sentinel cycle meaning "no such event is scheduled"
_NEVER = 2**62

_MODE_IDLE = 0
_MODE_DRAIN = 1
_MODE_RUN = 2

_numpy = None


def require_numpy():
    """Import numpy on first use; a clear error when it is unavailable.

    numpy is deliberately a dependency of the batch engine alone: the
    scalar engines and the ``repro.api`` facade must keep working (and
    importing) without it.
    """
    global _numpy
    if _numpy is None:
        try:
            import numpy
        except ImportError as error:  # pragma: no cover - numpy ships in CI
            raise SimulationError(
                "the 'batch' simulator engine requires numpy, which is not "
                "installed; use the 'event' or 'reference' engine instead"
            ) from error
        _numpy = numpy
    return _numpy


# ----------------------------------------------------------------------
# per-cell op programs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduleOp:
    """Schedule messages at the cell's then-current cycle (instantaneous)."""

    messages: tuple[Message, ...]


@dataclass(frozen=True)
class DrainOp:
    """Run until the cell's network drains (``run_until_drained``)."""

    max_cycles: int | None = None


@dataclass(frozen=True)
class RunOp:
    """Run the cell for a fixed number of cycles (``run``)."""

    cycles: int


@dataclass
class _Cell:
    """Python-side (cold) state of one batch cell."""

    config: object  # SimulatorConfig (duck-typed to avoid a circular import)
    technology: Technology
    statistics: SimulationStatistics = field(default_factory=SimulationStatistics)
    energy: EnergyAccount = field(default_factory=EnergyAccount)
    probe: SimulatorProbe | None = None
    pending: list[tuple[int, int, int]] = field(default_factory=list)
    """Heap of ``(injection_cycle, local_packet_id, global_pid)``."""
    flights: list[list[int]] = field(default_factory=list)
    """In-flight packets as mutable ``[arrival_cycle, pid, channel]`` in
    launch order; a full-buffer retry rewrites the arrival in place so the
    flight keeps its list position, exactly like ``Network.in_flight``."""
    link_bits: dict[int, int] = field(default_factory=dict)
    """Per-channel traversal bits since the last energy flush; insertion
    order is first-launch order, which fixes the ``charge_link`` order."""
    ops: deque = field(default_factory=deque)
    next_packet_id: int = 0
    leakage_charged_until: int = 0
    drain_start: int = 0
    drain_budget: int = 0
    run_target: int = 0
    error: Exception | None = None

    @property
    def cap(self) -> int:
        return self.config.buffer_capacity_packets


class BatchSimulator:
    """Drives a batch of cells over one shared ``(topology, routing)``.

    The per-cell surface mirrors :class:`~repro.noc.simulator.NoCSimulator`
    — schedule messages, enqueue drain/run ops, read back statistics,
    energy and engine provenance — while :meth:`execute` advances every
    cell's op program inside one vectorized loop.  A cell whose drain
    budget is exhausted (or whose routing is broken) fails *individually*:
    its :class:`SimulationError`/:class:`~repro.exceptions.RoutingError`
    is captured on the cell and the rest of the batch keeps running.
    """

    def __init__(
        self,
        topology: Topology,
        routing,
        configs: Sequence[object],
        technologies: Sequence[Technology] | None = None,
    ) -> None:
        np = require_numpy()
        self._np = np
        self.topology = topology
        self._routing = routing
        if not configs:
            raise SimulationError("a batch needs at least one cell")
        if technologies is None:
            technologies = [DEFAULT_TECHNOLOGY] * len(configs)
        if len(technologies) != len(configs):
            raise SimulationError("one technology per cell is required")

        # -- shared index spaces ----------------------------------------
        self._routers: list[NodeId] = topology.routers()
        self._router_index = {node: index for index, node in enumerate(self._routers)}
        self._num_routers = len(self._routers)
        channels = topology.channels()
        self._chan_key: list[tuple[NodeId, NodeId]] = [
            (channel.source, channel.target) for channel in channels
        ]
        self._chan_index = {key: index for index, key in enumerate(self._chan_key)}
        self._chan_length: list[float] = [channel.length_mm for channel in channels]
        self._num_channels = len(channels)

        # ports per router: the local injection port first, then one port
        # per incoming channel in channel-declaration order — the exact
        # buffer scan order Router builds, which round-robin ranks index
        port_router: list[int] = []
        port_rank: list[int] = []
        self._local_port: list[int] = []
        port_of: dict[tuple[int, int], int] = {}
        upstreams: dict[int, list[int]] = {r: [] for r in range(self._num_routers)}
        for channel in channels:
            target = self._router_index[channel.target]
            source = self._router_index[channel.source]
            if source not in upstreams[target]:
                upstreams[target].append(source)
        for r in range(self._num_routers):
            self._local_port.append(len(port_router))
            port_router.append(r)
            port_rank.append(0)
            for rank, upstream in enumerate(upstreams[r], start=1):
                port_of[(r, upstream)] = len(port_router)
                port_router.append(r)
                port_rank.append(rank)
        self._num_ports = len(port_router)
        self._port_router = np.asarray(port_router, dtype=np.int64)
        self._port_router_py = port_router
        self._port_rank = np.asarray(port_rank, dtype=np.int64)
        nports = [len(upstreams[r]) + 1 for r in range(self._num_routers)]
        self._port_nports = np.asarray(
            [nports[r] for r in port_router], dtype=np.int64
        )
        chan_src = [self._router_index[s] for s, _ in self._chan_key]
        chan_dst = [self._router_index[t] for _, t in self._chan_key]
        self._chan_src = np.asarray(chan_src, dtype=np.int64)
        self._chan_dst = np.asarray(chan_dst, dtype=np.int64)
        self._chan_dst_py = chan_dst
        dst_port = [port_of[(t, s)] for s, t in zip(chan_src, chan_dst)]
        self._chan_dst_port = np.asarray(dst_port, dtype=np.int64)
        self._chan_dst_port_py = dst_port

        # lazily resolved routing: (router, destination) -> channel index.
        # -1 = not yet asked; resolution failures are cached so every cell
        # whose head first requests the broken pair fails with the same
        # error the scalar engines raise at their own first nomination.
        self._route_chan = np.full(
            (self._num_routers, self._num_routers), -1, dtype=np.int64
        )
        self._route_errors: dict[tuple[int, int], Exception] = {}
        self._path_cache: dict[tuple[int, int], list[NodeId]] = {}
        # fused (port, destination) -> output-slot table: a local head's
        # slot is its ejection slot ``num_channels + router`` (filled up
        # front, since a port's router is static), a forwarding head's
        # slot is its resolved channel index.  One 2-D gather then covers
        # route lookup, the local/forward test and slot construction;
        # -1 still flags an unresolved route.
        self._pd_slot = np.full(
            (self._num_ports, self._num_routers), -1, dtype=np.int64
        )
        self._pd_slot[np.arange(self._num_ports), self._port_router] = (
            self._num_channels + self._port_router
        )
        # "a pop at this channel's destination frees a buffer earlier in
        # the dense processing order" predicate, used by the fixpoint
        self._chan_earlier = self._chan_dst < self._chan_src
        # prepared ScheduleOps keyed by (tuple identity, flit width): every
        # cell of a DSE batch replays the same op program, so the validated
        # per-message columns are computed once per op, not once per cell
        self._sched_cache: dict[tuple[int, int], tuple] = {}

        # -- per-cell state ---------------------------------------------
        batch = len(configs)
        self.num_cells = batch
        self._cells = [
            _Cell(config=config, technology=technology, energy=EnergyAccount(technology=technology))
            for config, technology in zip(configs, technologies)
        ]
        # bound once: the delivered-packets list is never replaced, and the
        # delivery hot path should not chase three attributes per packet
        self._deliver_append = [
            cell.statistics.delivered_packets.append for cell in self._cells
        ]
        self._queues: list[list[deque[int]]] = [
            [deque() for _ in range(self._num_ports)] for _ in range(batch)
        ]
        # hot per-cell state lives in plain python lists — it is read and
        # written one event at a time, where list indexing beats numpy
        # scalar indexing severalfold.  Buffer counts and head destinations
        # are flat ``cell * num_ports + port`` lists; the router phase
        # snapshots them into numpy once per executed cycle (one bulk
        # conversion instead of thousands of scalar round trips).  Only
        # state that is exclusively touched vectorized (chan_free, the
        # arbitration scratch) stays in numpy arrays.
        self._cycle: list[int] = [0] * batch
        self._cycles_stepped: list[int] = [0] * batch
        self._mode: list[int] = [_MODE_IDLE] * batch
        self._next_inj: list[int] = [_NEVER] * batch
        self._next_arr: list[int] = [_NEVER] * batch
        self._buf_total: list[int] = [0] * batch
        self._cnt_router: list[list[int]] = [[0] * self._num_routers for _ in range(batch)]
        # per (cell, port), stride 3: [buffer count, head destination,
        # head packet id] — one flat list so the router phase snapshots
        # all of it with a single bulk conversion
        self._port_state: list[int] = [0, -1, -1] * (batch * self._num_ports)
        self._chan_free = np.zeros((batch, max(self._num_channels, 1)), dtype=np.int64)
        self._switch_acc: list[int] = [0] * batch
        self._cap = np.asarray(
            [config.buffer_capacity_packets for config in configs], dtype=np.int64
        )
        self._pipe = np.asarray(
            [config.router_pipeline_delay_cycles for config in configs], dtype=np.int64
        )
        self._alive = np.ones(batch, dtype=bool)
        self._alive_py: list[bool] = [True] * batch
        self._probed: list[bool] = [False] * batch

        # arbitration key packing: (cell, output-slot) group in the high
        # bits, round-robin key in the low bits — one argsort then selects
        # every output's winner (smallest key per group)
        self._key_shift = (self._num_ports * (self._num_ports + 1)).bit_length()
        self._popped = np.zeros((batch, self._num_ports), dtype=bool)

        # the global packet table (shared across cells; mirrors refreshed
        # into numpy whenever scheduling grows the python-side lists)
        self._pk_obj: list[Packet] = []
        self._pk_src: list[int] = []
        self._pk_dest: list[int] = []
        self._pk_size: list[int] = []
        self._pk_flits: list[int] = []
        self._pk_hops: list[int] = []
        self._pk_local: list[int] = []
        self._busy: set[int] = set()

    # ------------------------------------------------------------------
    # per-cell surface
    # ------------------------------------------------------------------
    def cell(self, index: int) -> _Cell:
        return self._cells[index]

    def attach_probe(self, index: int, probe: SimulatorProbe) -> SimulatorProbe:
        """Attach a probe; per-router occupancy bookkeeping starts here.

        Occupancy counters are only ever read by probes, so unprobed cells
        skip them entirely; attaching rebuilds the router totals from the
        live per-port counts, which is exactly the occupancy a scalar
        probe would observe from this event on.
        """
        self._cells[index].probe = probe
        if not self._probed[index]:
            self._probed[index] = True
            base = index * self._num_ports
            state = self._port_state
            cnt_router = self._cnt_router[index]
            for router in range(self._num_routers):
                start = self._local_port[router]
                stop = (
                    self._local_port[router + 1]
                    if router + 1 < self._num_routers
                    else self._num_ports
                )
                cnt_router[router] = sum(
                    state[3 * (base + p)] for p in range(start, stop)
                )
        return probe

    def statistics(self, index: int) -> SimulationStatistics:
        return self._cells[index].statistics

    def energy(self, index: int) -> EnergyAccount:
        return self._cells[index].energy

    def error(self, index: int) -> Exception | None:
        return self._cells[index].error

    def current_cycle(self, index: int) -> int:
        return self._cycle[index]

    def cycles_stepped(self, index: int) -> int:
        return self._cycles_stepped[index]

    def schedule_message(
        self, index: int, message: Message, cycle: int | None = None
    ) -> Packet:
        """Queue one message for injection (the scalar engines' contract)."""
        cell = self._cells[index]
        now = self._cycle[index]
        if cycle is None:
            cycle = now
        if cycle < now:
            raise SimulationError("cannot schedule a message in the past")
        if message.source not in self._router_index:
            raise SimulationError(f"unknown source router {message.source!r}")
        if message.destination not in self._router_index:
            raise SimulationError(f"unknown destination router {message.destination!r}")
        local_id = cell.next_packet_id
        cell.next_packet_id += 1
        packet = Packet.from_message(
            local_id, message, cell.config.flit_width_bits, cycle
        )
        pid = len(self._pk_obj)
        self._pk_obj.append(packet)
        self._pk_src.append(self._router_index[message.source])
        self._pk_dest.append(self._router_index[message.destination])
        self._pk_size.append(message.size_bits)
        self._pk_flits.append(packet.num_flits)
        self._pk_hops.append(0)
        self._pk_local.append(local_id)
        heapq.heappush(cell.pending, (cycle, local_id, pid))
        if cycle < self._next_inj[index]:
            self._next_inj[index] = cycle
        cell.statistics.record_injection()
        return packet

    def schedule_messages(
        self, index: int, messages: Iterable[Message], cycle: int | None = None
    ) -> None:
        for message in messages:
            self.schedule_message(index, message, cycle)

    def enqueue(self, index: int, op: ScheduleOp | DrainOp | RunOp) -> None:
        """Append one op to the cell's program (executed by :meth:`execute`)."""
        cell = self._cells[index]
        if cell.error is not None:
            return  # a failed cell ignores further work, like a raised scalar run
        cell.ops.append(op)
        self._busy.add(index)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, raise_errors: bool = False) -> None:
        """Advance every cell's op program to completion (or failure).

        With ``raise_errors`` the first failed cell's captured exception is
        re-raised after the batch settles — the single-cell facade uses
        this to reproduce the scalar engines' raise-from-``run_*``
        behaviour exactly.
        """
        np = self._np
        busy = self._busy
        settle = self._settle
        alive = self._alive_py
        cyc = self._cycle
        stepped = self._cycles_stepped
        next_inj = self._next_inj
        next_arr = self._next_arr
        while busy:
            execs = [index for index in sorted(busy) if settle(index)]
            if not execs:
                break
            active = np.asarray(execs, dtype=np.int64)
            cyc_active = np.asarray([cyc[index] for index in execs], dtype=np.int64)
            for index in execs:
                now = cyc[index]
                if next_inj[index] <= now:
                    self._inject_due(index)
                if next_arr[index] <= now:
                    self._deliver_arrivals(index)
            self._route_and_forward(active, cyc_active)
            # a cell that failed mid-cycle (routing error) keeps its cycle
            # counters, like the scalar raise before the end-of-step bump
            for index in execs:
                if alive[index]:
                    stepped[index] += 1
                    cyc[index] += 1
        if raise_errors:
            for cell in self._cells:
                if cell.error is not None:
                    raise cell.error

    # -- op/state settlement -------------------------------------------
    def _settle(self, index: int) -> bool:
        """Advance ops/jumps until the cell must execute a cycle.

        Returns True when the cell participates in this iteration (its
        ``cycle`` entry is the cycle to execute), False when it went idle,
        completed its program or failed.
        """
        cell = self._cells[index]
        while True:
            mode = self._mode[index]
            if mode == _MODE_IDLE:
                if not cell.ops:
                    self._busy.discard(index)
                    return False
                self._start_op(index, cell, cell.ops.popleft())
                continue
            if mode == _MODE_DRAIN:
                if self._buf_total[index] == 0:
                    next_inj = self._next_inj[index]
                    next_arr = self._next_arr[index]
                    if next_inj >= _NEVER and next_arr >= _NEVER:
                        self._finish_op(index)
                        continue
                    event = min(next_inj, next_arr)
                else:
                    event = self._cycle[index]
                if event - cell.drain_start > cell.drain_budget:
                    self._cycle[index] = cell.drain_start + cell.drain_budget + 1
                    self._fail(index, self._drain_budget_error(index))
                    return False
                self._cycle[index] = event
                return True
            # _MODE_RUN
            target = cell.run_target
            if self._cycle[index] >= target:
                self._finish_op(index)
                continue
            if self._buf_total[index] == 0:
                event = min(self._next_inj[index], self._next_arr[index], target)
                if event >= target:
                    self._cycle[index] = target
                    self._finish_op(index)
                    continue
                self._cycle[index] = event
            return True

    def _start_op(self, index: int, cell: _Cell, op) -> None:
        if isinstance(op, ScheduleOp):
            self._schedule_bulk(index, cell, op.messages)
            return
        if isinstance(op, DrainOp):
            self._mode[index] = _MODE_DRAIN
            cell.drain_start = self._cycle[index]
            budget = op.max_cycles
            cell.drain_budget = budget if budget is not None else cell.config.max_cycles
            return
        if isinstance(op, RunOp):
            if op.cycles < 0:
                raise SimulationError("cannot run a negative number of cycles")
            self._mode[index] = _MODE_RUN
            cell.run_target = self._cycle[index] + op.cycles
            return
        raise SimulationError(f"unknown batch op {op!r}")  # pragma: no cover

    def _schedule_bulk(self, index: int, cell: _Cell, messages: tuple[Message, ...]) -> None:
        """Schedule a whole ``ScheduleOp`` without per-message call layering.

        Validation, packet construction and bookkeeping are inlined — same
        checks, same error text, same resulting state as calling
        :meth:`schedule_message` once per message (on a raise, the messages
        before the invalid one stay committed, like the scalar loop).
        """
        now = self._cycle[index]
        flit_width = cell.config.flit_width_bits
        pending = cell.pending
        heap_ordered = not pending  # in-order appends then keep a valid heap
        local_id = cell.next_packet_id
        pid = len(self._pk_obj)
        cached = self._sched_cache.get((id(messages), flit_width))
        if cached is not None and cached[0] is messages:
            # the same ScheduleOp re-scheduled (every cell in a DSE batch
            # shares the scenario's op program): validation and flit math
            # are position-independent, so replay the prepared columns with
            # C-level extends and only build the per-cell Packet objects
            _, srcs, dsts, sizes, flitss, sources = cached
            n = len(srcs)
            append_obj = self._pk_obj.append
            for message, num_flits, source in zip(messages, flitss, sources):
                append_obj(Packet(local_id, message, num_flits, now, None, 0, [source]))
                local_id += 1
            self._pk_src.extend(srcs)
            self._pk_dest.extend(dsts)
            self._pk_size.extend(sizes)
            self._pk_flits.extend(flitss)
            self._pk_hops.extend([0] * n)
            first = cell.next_packet_id
            self._pk_local.extend(range(first, first + n))
            pending.extend(zip([now] * n, range(first, first + n), range(pid, pid + n)))
            cell.next_packet_id = local_id
            if not heap_ordered:
                heapq.heapify(pending)
            if now < self._next_inj[index]:
                self._next_inj[index] = now
            cell.statistics.injected_count += n
            return
        rindex = self._router_index
        append_obj = self._pk_obj.append
        append_src = self._pk_src.append
        append_dest = self._pk_dest.append
        append_size = self._pk_size.append
        append_flits = self._pk_flits.append
        append_hops = self._pk_hops.append
        append_local = self._pk_local.append
        append_pending = pending.append
        ceil = math.ceil
        srcs: list[int] = []
        dsts: list[int] = []
        sizes: list[int] = []
        flitss: list[int] = []
        sources: list[NodeId] = []
        count = 0
        complete = False
        try:
            for message in messages:
                source = message.source
                src = rindex.get(source)
                if src is None:
                    raise SimulationError(f"unknown source router {source!r}")
                dst = rindex.get(message.destination)
                if dst is None:
                    raise SimulationError(
                        f"unknown destination router {message.destination!r}"
                    )
                if flit_width <= 0:
                    raise SimulationError("flit width must be positive")
                size = message.size_bits
                num_flits = ceil(size / flit_width)
                if num_flits < 1:
                    num_flits = 1
                # positional dataclass call — same object from_message builds
                append_obj(Packet(local_id, message, num_flits, now, None, 0, [source]))
                append_src(src)
                append_dest(dst)
                append_size(size)
                append_flits(num_flits)
                append_hops(0)
                append_local(local_id)
                append_pending((now, local_id, pid))
                srcs.append(src)
                dsts.append(dst)
                sizes.append(size)
                flitss.append(num_flits)
                sources.append(source)
                local_id += 1
                pid += 1
                count += 1
            complete = True
        finally:
            if count:
                cell.next_packet_id = local_id
                if not heap_ordered:
                    heapq.heapify(pending)
                if now < self._next_inj[index]:
                    self._next_inj[index] = now
                cell.statistics.injected_count += count
            if complete and count:
                self._sched_cache[(id(messages), flit_width)] = (
                    messages, srcs, dsts, sizes, flitss, sources,
                )

    def _finish_op(self, index: int) -> None:
        """One run/drain op completed: finalize exactly like the scalar runs."""
        cell = self._cells[index]
        now = self._cycle[index]
        cell.statistics.total_cycles = now
        self.flush_energy(index)
        if cell.config.charge_leakage:
            span = now - cell.leakage_charged_until
            if span > 0:
                cell.energy.charge_leakage(self._num_routers, span)
                cell.leakage_charged_until = now
        self._mode[index] = _MODE_IDLE

    def flush_energy(self, index: int) -> None:
        """Fold the cell's batched traversal counters into its account.

        Identical call sequence to the scalar ``_flush_energy_batches``:
        one ``charge_switch`` for the accumulated bits, then one
        ``charge_link`` per channel in first-launch order.
        """
        cell = self._cells[index]
        switch_bits = self._switch_acc[index]
        if switch_bits:
            cell.energy.charge_switch(switch_bits)
            self._switch_acc[index] = 0
        if cell.link_bits:
            for channel, bits in cell.link_bits.items():
                cell.energy.charge_link(bits, self._chan_length[channel])
            cell.link_bits.clear()

    def _fail(self, index: int, error: Exception) -> None:
        cell = self._cells[index]
        if cell.error is None:
            cell.error = error
        cell.ops.clear()
        self._mode[index] = _MODE_IDLE
        self._alive[index] = False
        self._alive_py[index] = False
        self._busy.discard(index)

    def _drain_budget_error(self, index: int) -> SimulationError:
        """The scalar engines' drain-failure error, byte for byte."""
        from repro.noc.simulator import _STUCK_PACKETS_NAMED

        cell = self._cells[index]
        stuck: list[tuple[int, NodeId]] = []
        for port in range(self._num_ports):
            node = self._routers[int(self._port_router[port])]
            for pid in self._queues[index][port]:
                stuck.append((pid, node))
        for flight in cell.flights:
            stuck.append((flight[1], self._routers[self._chan_dst_py[flight[2]]]))
        stuck.sort(key=lambda item: self._pk_local[item[0]])
        named = ", ".join(
            f"#{self._pk_local[pid]} at {where!r} -> "
            f"{self._routers[self._pk_dest[pid]]!r} ({self._pk_hops[pid]} hops)"
            for pid, where in stuck[:_STUCK_PACKETS_NAMED]
        )
        if len(stuck) > _STUCK_PACKETS_NAMED:
            named += f", and {len(stuck) - _STUCK_PACKETS_NAMED} more"
        return SimulationError(
            f"network did not drain within {cell.drain_budget} cycles "
            f"({len(stuck)} packets stuck: {named})"
        )

    # -- one executed cycle --------------------------------------------
    def _inject_due(self, index: int) -> None:
        """Move due pending packets into their source routers' local ports."""
        cell = self._cells[index]
        pending = cell.pending
        now = self._cycle[index]
        probe = cell.probe
        queues = self._queues[index]
        base3 = 3 * index * self._num_ports
        state = self._port_state
        cnt_router = self._cnt_router[index]
        pk_src = self._pk_src
        pk_dest = self._pk_dest
        local_port = self._local_port
        # sorting the heap in place yields the exact heappop order (and a
        # sorted list is still a valid heap for later pushes); the common
        # case — a whole ScheduleOp due at once — then drains with one
        # sort of an already-sorted list instead of per-packet heappops
        pending.sort()
        take = 0
        for item in pending:
            if item[0] > now:
                break
            take += 1
            pid = item[2]
            router = pk_src[pid]
            port = local_port[router]
            queue = queues[port]
            s = base3 + 3 * port
            if not queue:
                state[s + 1] = pk_dest[pid]
                state[s + 2] = pid
            queue.append(pid)
            state[s] += 1
            if probe is not None:
                cnt_router[router] += 1
                probe.record_enqueue(self._routers[router], cnt_router[router])
        if take:
            del pending[:take]
            self._buf_total[index] += take
        self._next_inj[index] = pending[0][0] if pending else _NEVER

    def _deliver_arrivals(self, index: int) -> None:
        """The in-order arrival pass with full-buffer retries.

        Mirrors ``Network.deliver_arrivals``: flights are visited in launch
        order; a due flight whose downstream buffer is full retries next
        cycle without losing its position.
        """
        cell = self._cells[index]
        now = self._cycle[index]
        cap = cell.cap
        probe = cell.probe
        queues = self._queues[index]
        base3 = 3 * index * self._num_ports
        state = self._port_state
        cnt_router = self._cnt_router[index]
        pk_dest = self._pk_dest
        chan_dst = self._chan_dst_py
        chan_dst_port = self._chan_dst_port_py
        still: list[list[int]] = []
        still_append = still.append
        pushed = 0
        next_arrival = _NEVER
        for flight in cell.flights:
            if flight[0] <= now:
                channel = flight[2]
                port = chan_dst_port[channel]
                s = base3 + 3 * port
                if state[s] < cap:
                    pid = flight[1]
                    queue = queues[port]
                    if not queue:
                        state[s + 1] = pk_dest[pid]
                        state[s + 2] = pid
                    queue.append(pid)
                    state[s] += 1
                    if probe is not None:
                        router = chan_dst[channel]
                        cnt_router[router] += 1
                        probe.record_enqueue(self._routers[router], cnt_router[router])
                    pushed += 1
                    continue
                flight[0] = now + 1
            still_append(flight)
            if flight[0] < next_arrival:
                next_arrival = flight[0]
        cell.flights = still
        self._buf_total[index] += pushed
        self._next_arr[index] = next_arrival

    def _resolve_route(self, router: int, destination: int) -> None:
        """Resolve one (router, destination) next hop, validating the channel.

        Raises the same errors, with the same messages, as the scalar
        path (`Network.next_hop`): the routing function's own
        :class:`~repro.exceptions.RoutingError` for missing entries, or a
        :class:`SimulationError` when the returned hop has no channel.
        """
        node = self._routers[router]
        target = self._routers[destination]
        hop = self._routing(node, target)
        channel = self._chan_index.get((node, hop))
        if channel is None:
            raise SimulationError(
                f"routing function returned {hop!r} from {node!r} towards "
                f"{target!r}, but that channel does not exist"
            )
        self._route_chan[router, destination] = channel
        start = self._local_port[router]
        stop = (
            self._local_port[router + 1]
            if router + 1 < self._num_routers
            else self._num_ports
        )
        self._pd_slot[start:stop, destination] = channel

    def _route_and_forward(self, active, cyc_active) -> None:
        """The vectorized router phase: arbitration + feasibility + effects."""
        np = self._np
        num_ports = self._num_ports
        state_list = self._port_state
        # one bulk snapshot of the python-side port state (count, head
        # destination, head packet id) per executed cycle; feasibility
        # deliberately reads this pre-cycle snapshot (pops during the
        # phase are modelled by the order-gated fixpoint)
        state = np.asarray(state_list, dtype=np.int64).reshape(
            self.num_cells, num_ports, 3
        )
        cnt_np = state[:, :, 0]
        if active.size == self.num_cells:
            # every cell executes this iteration: cell indices ARE the
            # positions, so skip the active-subset fancy indexing
            occupied_cell, port = (cnt_np > 0).nonzero()
            cells = occupied_cell
        else:
            occupied_cell, port = (cnt_np[active] > 0).nonzero()
            cells = active[occupied_cell]
        if not occupied_cell.size:
            return
        cyc = cyc_active[occupied_cell]
        dest = state[cells, port, 1]
        rank = (self._port_rank[port] - cyc) % self._port_nports[port]
        slot = self._pd_slot[port, dest]
        # ejection slots are pre-filled non-negative, so one reduction
        # decides whether any forwarding head needs route resolution
        if int(slot.min()) < 0:
            rows = (slot < 0).nonzero()[0]
            router = self._port_router[port]
            order = np.lexsort((rank[rows], router[rows], cells[rows]))
            for row in rows[order]:
                pair = (int(router[row]), int(dest[row]))
                cell_index = int(cells[row])
                if not self._alive[cell_index]:
                    continue
                if self._route_chan[pair] >= 0:
                    continue
                error = self._route_errors.get(pair)
                if error is None:
                    try:
                        self._resolve_route(*pair)
                        continue
                    except ReproError as raised:
                        error = raised
                        self._route_errors[pair] = raised
                self._fail(cell_index, error)
            slot = self._pd_slot[port, dest]
            keep = self._alive[cells]
            if not keep.all():
                rows = keep.nonzero()[0]
                cells, port, dest = cells[rows], port[rows], dest[rows]
                rank, slot, cyc = rank[rows], slot[rows], cyc[rows]
                if not cells.size:
                    return

        # round-robin arbitration: per (cell, output) the requesting port
        # with the smallest scan rank wins — "first occupied port in the
        # scan" is exactly `nominate_at`'s winner.  Outputs come slotted
        # by the fused table — channel index (forwards) or num_channels +
        # router (local ejection); one argsort of (cell, slot) | key picks
        # every winner (keys are unique, so sort order is deterministic).
        key = rank * np.int64(num_ports) + port
        slots_per_cell = np.int64(self._num_channels + self._num_routers)
        sortkey = ((cells * slots_per_cell + slot) << self._key_shift) | key
        order = np.argsort(sortkey)
        group = sortkey[order] >> self._key_shift
        first = np.empty(order.size, dtype=bool)
        first[0] = True
        np.not_equal(group[1:], group[:-1], out=first[1:])
        win = order[first]
        win_cell = cells[win]
        win_port = port[win]
        win_slot = slot[win]
        win_rank = rank[win]
        forward = win_slot < self._num_channels
        safe_chan = np.where(forward, win_slot, 0)
        cycles = cyc[win]
        free = forward & (self._chan_free[win_cell, safe_chan] <= cycles)
        down_port = self._chan_dst_port[safe_chan]
        moved = ~forward | (free & (cnt_np[win_cell, down_port] < self._cap[win_cell]))

        # order-gated fixpoint: a pop at a router that the dense loop
        # processes *earlier* frees one buffer slot the blocked forward is
        # allowed to see.  Counts shrink by at most one per (cell, port)
        # per cycle, so the recheck is a plain subtraction.
        if (free & ~moved).any():
            popped = self._popped
            popped[win_cell[moved], win_port[moved]] = True
            earlier = self._chan_earlier[safe_chan]
            while True:
                blocked = free & ~moved
                if not blocked.any():
                    break
                effective = cnt_np[win_cell, down_port] - (
                    popped[win_cell, down_port] & earlier
                )
                newly = blocked & (effective < self._cap[win_cell])
                if not newly.any():
                    break
                moved |= newly
                popped[win_cell[newly], win_port[newly]] = True
            popped[win_cell[moved], win_port[moved]] = False

        rows = moved.nonzero()[0]
        if not rows.size:
            return
        # apply effects in the dense loop's order: routers in global order,
        # winners in round-robin scan order within each router
        rows = rows[np.lexsort((win_rank[rows], self._port_router[win_port[rows]], win_cell[rows]))]
        eff_cell = win_cell[rows]
        eff_port = win_port[rows]
        eff_slot = win_slot[rows]
        cycles_eff = cycles[rows]
        cell_of = eff_cell.tolist()
        port_of = eff_port.tolist()
        # a local winner's slot is its ejection slot, but chan_of is only
        # ever read on forward rows, where slot == channel
        chan_of = eff_slot.tolist()
        eff_local = (~forward)[rows].tolist()
        cycle_of = cycles_eff.tolist()
        pk_flits = self._pk_flits
        # head pids come from the phase-start snapshot: nothing pushes
        # between the snapshot and these pops, so heads are unchanged
        pid_of = state[eff_cell, eff_port, 2].tolist()
        fwd_rows = [i for i, is_local in enumerate(eff_local) if not is_local]
        if fwd_rows:
            fwd_idx = np.asarray(fwd_rows, dtype=np.int64)
            fwd_cell = eff_cell[fwd_idx]
            fwd_chan = eff_slot[fwd_idx]
            # num_flits >= 1 by construction, so serialization == num_flits
            serialization = np.asarray(
                [pk_flits[pid_of[i]] for i in fwd_rows], dtype=np.int64
            )
            launch_cycle = cycles_eff[fwd_idx]
            self._chan_free[fwd_cell, fwd_chan] = launch_cycle + serialization
            arrivals = (launch_cycle + serialization + self._pipe[fwd_cell]).tolist()
            serial_of = serialization.tolist()
        cells_objs = self._cells
        queues_all = self._queues
        switch_acc = self._switch_acc
        buf_total = self._buf_total
        cnt_router_all = self._cnt_router
        port_router = self._port_router_py
        pk_size = self._pk_size
        pk_dest = self._pk_dest
        pk_obj = self._pk_obj
        pk_src = self._pk_src
        pk_hops = self._pk_hops
        next_arr = self._next_arr
        routers = self._routers
        chan_keys = self._chan_key
        delivered_path = self._delivered_path
        deliver_append = self._deliver_append
        probed = self._probed
        forward_at = 0
        for index, port_i, pid, is_local, cycle_i, channel in zip(
            cell_of, port_of, pid_of, eff_local, cycle_of, chan_of
        ):
            s = 3 * (index * num_ports + port_i)
            cell = cells_objs[index]
            switch_acc[index] += pk_size[pid]
            buf_total[index] -= 1
            state_list[s] -= 1
            if probed[index]:
                cnt_router_all[index][port_router[port_i]] -= 1
            queue = queues_all[index][port_i]
            queue.popleft()
            if queue:
                new_head = queue[0]
                state_list[s + 1] = pk_dest[new_head]
                state_list[s + 2] = new_head
            else:
                state_list[s + 1] = -1
                state_list[s + 2] = -1
            if is_local:
                packet = pk_obj[pid]
                packet.delivery_cycle = cycle_i
                path = delivered_path(pk_src[pid], pk_dest[pid])
                packet.path = list(path)
                packet.hops = len(path) - 1
                deliver_append[index](packet)
                if cell.probe is not None:
                    cell.probe.record_delivery(routers[pk_dest[pid]], packet.latency)
            else:
                arrival = arrivals[forward_at]
                serial = serial_of[forward_at]
                forward_at += 1
                pk_hops[pid] += 1
                cell.flights.append([arrival, pid, channel])
                if arrival < next_arr[index]:
                    next_arr[index] = arrival
                size = pk_size[pid]
                cell.link_bits[channel] = cell.link_bits.get(channel, 0) + size
                busy = cell.statistics.channel_busy_cycles
                chan_key = chan_keys[channel]
                busy[chan_key] = busy.get(chan_key, 0) + serial

    def _delivered_path(self, source: int, destination: int) -> list[NodeId]:
        """The unique deterministic route a delivered packet traversed.

        Routing functions are deterministic in ``(node, destination)``, so
        a delivered packet's hop-by-hop path is exactly the route chain
        from its source — rebuilt here once per (source, destination) pair
        instead of being recorded per hop in the hot loop.
        """
        key = (source, destination)
        path = self._path_cache.get(key)
        if path is None:
            path = [self._routers[source]]
            current = source
            while current != destination:
                channel = int(self._route_chan[current, destination])
                # delivered packets only ever traversed resolved routes
                current = int(self._chan_dst[channel])
                path.append(self._routers[current])
            self._path_cache[key] = path
        return path
