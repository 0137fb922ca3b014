"""End-to-end benchmark of the design-space-exploration CLI.

Run from the repository root::

    python3 perfbench/run.py --workload embedded_grid --seed 11 --seconds 30 --trace 0

Every repetition spawns fresh ``python -m repro.dse``-equivalent processes
(``perfbench/child.py``), serial evaluation, event engine unless the
workload says otherwise, caches emptied unless the workload says
otherwise.  The last stdout line is one JSON object: ``correct``,
``attempted`` and ``failed`` cells, and the metrics — end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  End-to-end
timings are rescaled to a reference host speed measured while the children
run (``HostSpeed``).  See ``perfbench/README.md`` for the workloads, the
metrics, the rescaling and the traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

#: the seed whose outputs ``expected.json`` pins; 11 is the seed of the
#: Fig-4b Pajek slice in scripts/bench_decomposition.py
DEFAULT_SEED = 11
#: repetitions measured per run even when --seconds runs out first
MIN_REPS = 3
#: a child process that runs longer than this is killed and counts as failed
CHILD_TIMEOUT_S = 150.0
#: pause between two host-speed probes while a child runs
PROBE_PERIOD_S = 0.2
#: the probe loop's time on an uncontended CPU of the benchmark host (a
#: 2-vCPU Xeon VM); end-to-end timings are reported at this speed
REFERENCE_PROBE_S = 0.006

#: the 162-design-point grid of scripts/bench_search.py over the embedded suite
EMBEDDED_AXES: dict[str, tuple[object, ...]] = {
    "architecture": ("mesh", "custom"),
    "max_matchings_per_primitive": (1, 2, 3),
    "router_pipeline_delay_cycles": (1, 2, 4),
    "buffer_capacity_packets": (2, 4, 8),
}
#: wall-clock budgets off, so only the deterministic node budget shapes a search
PINNED_AXES: dict[str, tuple[object, ...]] = {
    "isomorphism_timeout_seconds": (None,),
    "decomposition_timeout_seconds": (None,),
}
#: the Fig-4b slice: planted Pajek graphs, 2 per size, density 0.12
PAJEK_SIZES = (10, 15, 20, 25, 30, 35, 40)
PAJEK_INSTANCES = 2
PAJEK_DENSITY = 0.12
PAJEK_STRUCTURE_SEED = 11
PAJEK_SUITE = "bench_fig4b"

#: settings a mesh cell never reads (EvaluationSettings._CUSTOM_ONLY_FIELDS)
CUSTOM_ONLY_SETTINGS = (
    "strategy", "library", "max_matchings_per_primitive", "isomorphism_timeout_seconds",
    "decomposition_timeout_seconds", "max_nodes_expanded", "lower_bound",
    "bidirectional_links", "fill_all_pairs_routing",
)
#: objectives of the program's Pareto fronts (repro.dse.analysis defaults)
MINIMIZE = ("energy_per_iteration_uj", "avg_latency_cycles")
MAXIMIZE = ("throughput_mbps",)
#: the paper's Section-5.2 AES operating point and its reported gains
AES_POINT = {"router_pipeline_delay_cycles": 2, "buffer_capacity_packets": 4}
PAPER_AES_THROUGHPUT_GAIN_PCT = 36.0
PAPER_AES_ENERGY_SAVING_PCT = 51.0


# ----------------------------------------------------------------------
# one process
# ----------------------------------------------------------------------
@dataclass
class Child:
    """What one spawned CLI process did."""

    ok: bool
    wall_s: float
    setup_s: float = 0.0
    interpreter_s: float = 0.0
    payload: dict = field(default_factory=dict)
    output: str = ""


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe_loop() -> float:
    """Seconds one CPU takes for a fixed dict-and-integer loop (~10 ms)."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(30_000):
        table[i % 1000] = table.get(i % 1000, 0) + i * 3 // 7
    return time.perf_counter() - start


class HostSpeed:
    """Probe-loop timings taken on another CPU while children run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample_until(self, stop: threading.Event, cpus: set[int]) -> threading.Thread:
        """Time the probe loop on ``cpus`` every PROBE_PERIOD_S until ``stop`` is set."""
        def loop() -> None:
            os.sched_setaffinity(0, cpus)
            while not stop.is_set():
                self.samples.append(probe_loop())
                stop.wait(PROBE_PERIOD_S)

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        return thread

    def scale(self) -> float:
        """Factor that brings timings taken since the last reset to the reference speed."""
        return REFERENCE_PROBE_S / statistics.fmean(self.samples) if self.samples else 1.0


class Context:
    """Paths and counters of one benchmark run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.seed = seed
        self.work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
        self._spawned = 0
        self.speed = HostSpeed()

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def spawn(self, argv: list[str], traced: bool = False, suite_dir: str | None = None,
              setup_only: bool = False) -> Child:
        """Run one CLI invocation in a fresh process and wait for it."""
        self._spawned += 1
        out = self.work / f"child-{self._spawned}.json"
        log = self.work / f"child-{self._spawned}.log"
        command = [sys.executable, str(CHILD), "--out", str(out)]
        if traced:
            command.append("--trace")
        if setup_only:
            command.append("--setup-only")
        if suite_dir:
            command += ["--suite-dir", suite_dir]
        command += ["--", *argv]
        # children take the CPUs in turn and the probe thread runs on the
        # others, so over a run both the children and the probes see every
        # CPU; with a single CPU there is no probing (the scale stays 1)
        allowed = os.sched_getaffinity(0)
        cpus = sorted(allowed)
        cpu = cpus[self._spawned % len(cpus)]
        others = allowed - {cpu}
        stop = threading.Event()
        os.sched_setaffinity(0, {cpu})
        with log.open("w", encoding="utf-8") as stream:
            start = monotonic()
            process = subprocess.Popen(
                command, cwd=self.work, stdout=stream, stderr=subprocess.STDOUT
            )
            os.sched_setaffinity(0, allowed)
            samplers = [self.speed.sample_until(stop, others)] if others else []
            # a blocking wait: Popen.wait(timeout=...) polls in steps of up
            # to 50 ms, which would quantize every wall time
            killer = threading.Timer(CHILD_TIMEOUT_S, process.kill)
            killer.start()
            try:
                code = process.wait()
                wall = monotonic() - start
            finally:
                stop.set()
                killer.cancel()
            for sampler in samplers:
                sampler.join()
        output = log.read_text(encoding="utf-8")
        if code != 0 or not out.exists():
            sys.stderr.write(f"child {argv[:3]} failed ({code}):\n{output[-2000:]}\n")
            return Child(ok=False, wall_s=wall, output=output)
        payload = json.loads(out.read_text(encoding="utf-8"))
        work_start = payload.get("t_work_start")
        if work_start is None:
            sys.stderr.write(f"child {argv[:3]} never reached a sweep, search or report\n")
            return Child(ok=False, wall_s=wall, payload=payload, output=output)
        return Child(True, wall, work_start - start, payload["t_start"] - start, payload, output)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def axis_args(axes: dict[str, tuple[object, ...]]) -> list[str]:
    args: list[str] = []
    for name, values in axes.items():
        args += ["--axis", f"{name}={','.join(str(value) for value in values)}"]
    return args


def embedded_axes(seed: int, **restrict: tuple[object, ...]) -> list[str]:
    """The embedded grid with each axis's value order shuffled by the seed.

    The design points do not depend on the order, so every seed must give
    the same records; the order changes plan and stage-group order.
    """
    rng = random.Random(seed)
    axes = {}
    for name, values in {**EMBEDDED_AXES, **restrict}.items():
        values = list(values)
        rng.shuffle(values)
        axes[name] = tuple(values)
    return axis_args({**axes, **PINNED_AXES})


def embedded_run(seed: int, results: Path, **restrict: tuple[object, ...]) -> list[str]:
    """``run`` of the embedded grid (optionally restricted) into ``results``."""
    return ["run", "--suite", "embedded", *embedded_axes(seed, **restrict),
            "--results", str(results)]


def planted_graph(size: int, seed: int) -> list[tuple[int, int]]:
    """A planted-primitive random graph (the Fig-4b recipe) as an arc list."""
    rng = random.Random(seed)
    nodes = list(range(1, size + 1))
    arcs: dict[tuple[int, int], None] = {}

    def add(source: int, target: int) -> None:
        if source != target:
            arcs.setdefault((source, target), None)

    for _ in range(max(1, size // 10)):  # all-to-all gossip among 4 cores
        members = rng.sample(nodes, 4)
        for source in members:
            for target in members:
                add(source, target)
    for _ in range(max(2, size // 8)):  # one-to-three broadcast
        members = rng.sample(nodes, 4)
        for receiver in members[1:]:
            add(members[0], receiver)
    for _ in range(max(1, size // 12)):  # 4-core loop
        members = rng.sample(nodes, 4)
        for source, target in zip(members, members[1:] + members[:1]):
            add(source, target)
    for _ in range(max(2, int(PAJEK_DENSITY * size))):  # noise edges
        add(*rng.sample(nodes, 2))
    return list(arcs)


def write_pajek_inputs(directory: Path, seed: int) -> None:
    """The 14 Fig-4b graphs as Pajek ``.net`` files, floorplanned by ``seed``.

    The graph structures are the Fig-4b slice of PAJEK_STRUCTURE_SEED; the
    seed shuffles which tile of the 2 mm core grid each core occupies,
    which changes every wire length of the synthesized fabrics but not the
    decomposition work.  Fresh structures (or relabeled vertices) per seed
    would make that work vary by ~30% between seeds, because the 400-node
    search budget binds on some graphs of a seed and not on others.
    """
    for size in PAJEK_SIZES:
        for instance in range(PAJEK_INSTANCES):
            arcs = planted_graph(size, PAJEK_STRUCTURE_SEED + size * 100 + instance)
            columns = math.ceil(math.sqrt(size))
            tiles = list(range(size))
            random.Random(f"{seed}:{size}:{instance}").shuffle(tiles)
            lines = [f"*Vertices {size}"]
            for node, tile in enumerate(tiles, start=1):
                x, y = 1.0 + 2.0 * (tile % columns), 1.0 + 2.0 * (tile // columns)
                lines.append(f'{node} "{node}" {x:g} {y:g}')
            lines.append("*Arcs")
            lines += [f"{source} {target} 64" for source, target in arcs]
            path = directory / f"pajek_{size}_{instance}.net"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def read_records(path: Path) -> list[dict]:
    """The result cache's records, one per content key (newest wins)."""
    records: dict[str, dict] = {}
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                record = json.loads(line)
                records[record["cache_key"]] = record
    return list(records.values())


def digest(records: list[dict]) -> str:
    """Hash of every record's deterministic outputs, independent of order.

    A record is identified by its effective settings, not by its grid
    labels: cells that collapse onto one design point (a scenario pin, or
    a decomposition knob on a mesh cell) keep the labels of whichever
    cell the plan met first, and that depends on the axis order.
    """
    items = []
    for record in records:
        statistics_ = dict(record.get("search_statistics") or {})
        statistics_.pop("elapsed_seconds", None)
        search = record.get("search") or {}
        settings = dict(record["settings"])
        if record["architecture"] == "mesh":
            for name in CUSTOM_ONLY_SETTINGS:
                settings.pop(name, None)
        items.append(json.dumps(
            [
                record["scenario"],
                record["architecture"],
                settings,
                search.get("rung"),
                search.get("pruned_at"),
                record["status"],
                record["metrics"],
                statistics_,
            ],
            sort_keys=True,
        ))
    return hashlib.sha256("\n".join(sorted(items)).encode()).hexdigest()


def bad_cells(records: list[dict]) -> int:
    """Cells that failed, or whose search a wall-clock budget cut short."""
    return sum(
        record["status"] != "ok"
        or (record.get("search_statistics") or {}).get("truncated_by") == "timeout"
        for record in records
    )


def reference_front(records: list[dict]) -> set[str]:
    """Per-scenario Pareto fronts by brute-force dominance, as cache keys."""
    def vector(record):
        metrics = record["metrics"]
        return [metrics[key] for key in MINIMIZE] + [-metrics[key] for key in MAXIMIZE]

    front = set()
    ok = [record for record in records
          if record["status"] == "ok" and all(k in record["metrics"] for k in MINIMIZE + MAXIMIZE)]
    for record in ok:
        mine = vector(record)
        if not any(
            other["scenario"] == record["scenario"]
            and all(a <= b for a, b in zip(vector(other), mine))
            and vector(other) != mine
            for other in ok
        ):
            front.add(record["cache_key"])
    return front


def recall(reference: set[str], returned: list[str]) -> float:
    return len(reference & set(returned)) / len(reference) if reference else 0.0


def aes_comparison(records: list[dict]) -> tuple[float, float] | None:
    """(throughput gain %, energy saving %) of AES custom vs mesh at the paper point."""
    point = {}
    for record in records:
        settings = record["settings"]
        if record["scenario"] == "aes" and all(settings[k] == v for k, v in AES_POINT.items()):
            point[record["architecture"]] = record["metrics"]
    if set(point) != {"mesh", "custom"}:
        return None
    mesh, custom = point["mesh"], point["custom"]
    return (
        100.0 * (custom["throughput_mbps"] / mesh["throughput_mbps"] - 1.0),
        100.0 * (1.0 - custom["energy_per_iteration_uj"] / mesh["energy_per_iteration_uj"]),
    )


# ----------------------------------------------------------------------
# repetitions
# ----------------------------------------------------------------------
@dataclass
class Rep:
    """One measured repetition of a workload (one or two processes)."""

    children: list[Child]
    attempted: int
    failed: int
    front_recall: float = 0.0
    aes: tuple[float, float] | None = None
    digest: str = ""

    @property
    def ok(self) -> bool:
        """Every process ran to the end (its timings are usable)."""
        return all(child.ok for child in self.children)

    @property
    def wall_s(self) -> float:
        return sum(child.wall_s for child in self.children)

    @property
    def setup_s(self) -> float:
        return sum(child.setup_s for child in self.children)

    @property
    def points(self) -> int:
        return sum(child.payload["points"] for child in self.children)

    @property
    def work_s(self) -> float:
        return sum(child.payload["work_s"] for child in self.children)

    @property
    def peak_rss_mb(self) -> float:
        return max(child.payload["peak_rss_mb"] for child in self.children)


class Workload:
    """A workload: untimed set-up once per run, then timed repetitions.

    A repetition runs the workload's CLI invocations (one process each, in
    order) and checks the outputs they leave in the result cache.
    """

    name = ""
    expected_key = ""
    #: whether every seed must reproduce ``expected.json`` (the seed only
    #: reorders the grid) or only DEFAULT_SEED (the seed changes the inputs)
    seed_invariant = False
    suite_dir: str | None = None

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.expected = EXPECTED[self.expected_key or self.name]

    def prepare(self) -> None:
        """Untimed set-up: byte-compile the program once, then the workload's own."""
        warmup = self.ctx.work / "warmup.jsonl"
        self.ctx.spawn(embedded_run(self.ctx.seed, warmup), setup_only=True)

    def results(self) -> Path:
        """The result cache a repetition starts from (empty unless warm)."""
        return self.ctx.fresh_dir("cold") / "results.jsonl"

    def invocations(self, results: Path) -> list[list[str]]:
        raise NotImplementedError

    def spawn_all(self, results: Path, traced: bool = False):
        return [self.ctx.spawn(argv, traced, self.suite_dir) for argv in self.invocations(results)]

    def rep(self, traced: bool) -> Rep:
        results = self.results()
        return self.check(self.spawn_all(results, traced), read_records(results))

    def pinned_digest(self) -> bool:
        """Whether this seed's outputs must equal ``expected.json``."""
        return self.seed_invariant or self.ctx.seed == DEFAULT_SEED

    def aes(self, records: list[dict]) -> tuple[float, float] | None:
        return aes_comparison(records)

    def reference(self, records: list[dict]) -> list[dict]:
        """The exhaustive records whose fronts the returned front must cover."""
        return records

    def check(self, children: list[Child], records: list[dict]) -> Rep:
        """Check one repetition's outputs and count its cells."""
        if not Rep(children, 0, 0).ok:
            return Rep(children, self.expected["cells"], self.expected["cells"])
        front = children[0].payload["observed"].get("front", [])
        rep = Rep(
            children,
            attempted=len(records),
            failed=bad_cells(records),
            front_recall=recall(reference_front(self.reference(records)), front),
            aes=self.aes(records),
            digest=digest(records),
        )
        if self.pinned_digest() and rep.digest != self.expected["digest"]:
            sys.stderr.write(f"{self.name}: digest {rep.digest} != expected\n")
            rep.failed = rep.attempted
        return rep


class EmbeddedGrid(Workload):
    name = "embedded_grid"
    seed_invariant = True

    def invocations(self, results: Path) -> list[list[str]]:
        return [embedded_run(self.ctx.seed, results)]


class PajekFig4b(Workload):
    name = "pajek_fig4b"

    def prepare(self) -> None:
        super().prepare()
        inputs = self.ctx.fresh_dir("pajek_inputs")
        write_pajek_inputs(inputs, self.ctx.seed)
        self.suite_dir = f"{PAJEK_SUITE}={inputs}"
        # the AES comparison comes from an untimed run of the paper's point
        results = self.ctx.fresh_dir("aes_point") / "results.jsonl"
        restrict = {key: (value,) for key, value in AES_POINT.items()}
        self.ctx.spawn(embedded_run(self.ctx.seed, results, **restrict))
        self.aes_point = aes_comparison(read_records(results))

    def invocations(self, results: Path) -> list[list[str]]:
        return [["run", "--suite", PAJEK_SUITE, *axis_args(PINNED_AXES),
                 "--results", str(results)]]

    def aes(self, records: list[dict]) -> tuple[float, float] | None:
        return self.aes_point


class SearchEmbedded(Workload):
    # not seed_invariant: batch-engine results depend on the plan order (README)
    name = "search_embedded"

    def prepare(self) -> None:
        super().prepare()
        # the exhaustive sweep whose fronts front_recall is measured against
        results = self.ctx.fresh_dir("reference") / "results.jsonl"
        self.ctx.spawn(embedded_run(self.ctx.seed, results))
        self.exhaustive = read_records(results)

    def invocations(self, results: Path) -> list[list[str]]:
        return [["search", "--suite", "embedded", *embedded_axes(self.ctx.seed),
                 "--seed", str(self.ctx.seed), "--results", str(results)]]

    def aes(self, records: list[dict]) -> tuple[float, float] | None:
        return aes_comparison(self.exhaustive)

    def reference(self, records: list[dict]) -> list[dict]:
        return self.exhaustive


class WarmRerun(Workload):
    name = "warm_rerun"
    expected_key = "embedded_grid"
    seed_invariant = True

    def prepare(self) -> None:
        super().prepare()
        self.filled = self.ctx.fresh_dir("warm") / "results.jsonl"
        self.ctx.spawn(embedded_run(self.ctx.seed, self.filled))

    def results(self) -> Path:
        return self.filled

    def invocations(self, results: Path) -> list[list[str]]:
        return [embedded_run(self.ctx.seed, results), ["report", "--results", str(results)]]

    def check(self, children: list[Child], records: list[dict]) -> Rep:
        rep = super().check(children, records)
        run, report = children
        if run.ok and run.payload["observed"].get("evaluations") != 0:
            sys.stderr.write("warm_rerun: the re-run evaluated cells\n")
            rep.failed = rep.attempted
        if report.ok:
            verdicts = [f"-> {name}: " for name in {record["scenario"] for record in records}]
            verdicts.append("-> aes: custom Pareto-dominates the mesh baseline")
            missing = [verdict for verdict in verdicts if verdict not in report.output]
            if missing:
                sys.stderr.write(f"warm_rerun: the report lacks {missing}\n")
                rep.failed = rep.attempted
        return rep


WORKLOADS = {cls.name: cls for cls in (EmbeddedGrid, PajekFig4b, SearchEmbedded, WarmRerun)}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(reps: list[Rep], scale: float) -> dict[str, float]:
    """The end-to-end metrics, timings multiplied by the host-speed ``scale``."""
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    good = [rep for rep in reps if rep.ok]
    aes = next((rep.aes for rep in good if rep.aes), (0.0, 0.0))
    return {
        "wall_s": scale * median([rep.wall_s for rep in good]),
        "setup_s": scale * median([rep.setup_s for rep in good]),
        # a rate over the whole run: on warm_rerun one repetition's window
        # is ~30 ms, so each lands in a fast or a slow phase of the host and
        # their median jumps between the two
        "design_points_per_s": ratio(sum(rep.points for rep in good),
                                     scale * sum(rep.work_s for rep in good)),
        "peak_rss_mb": median([rep.peak_rss_mb for rep in good]),
        "ok_share": 1.0 - failed / attempted,
        "aes_throughput_gain_pct": aes[0],
        "aes_energy_saving_pct": aes[1],
        "front_recall": min((rep.front_recall for rep in reps), default=0.0),
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(rep: Rep) -> dict[str, float]:
    """Per-layer figures of one traced repetition (all its processes)."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    import_s = interpreter_s = 0.0
    for child in rep.children:
        layers = child.payload["layers"]
        import_s += layers["import_s"]
        interpreter_s += child.interpreter_s
        for source, target in ((layers["self_s"], self_s), (layers["calls"], calls),
                               (layers["counts"], counts)):
            for key, value in source.items():
                target[key] = target.get(key, 0) + value
    search = rep.children[0].payload["observed"].get("search", {})
    rungs = search.get("rung_evaluations", {})
    top = search.get("top_rung_evals", 0)
    front = rep.children[0].payload["observed"].get("front", [])
    s, c, n = self_s.get, calls.get, counts.get
    return {
        "setup.interpreter_s": interpreter_s,
        "setup.import_s": import_s,
        "dse.runner.plan_s": s("dse.runner.plan", 0.0),
        "dse.runner.self_s": s("dse.runner", 0.0),
        "dse.cache.load_s": s("dse.cache.load", 0.0),
        "dse.cache.lookup_s": s("dse.cache.get", 0.0),
        "dse.cache.store_s": s("dse.cache.store", 0.0),
        "dse.cache.artifact_load_s": s("dse.cache.artifact_load", 0.0),
        "dse.cache.artifact_store_s": s("dse.cache.artifact_store", 0.0),
        "dse.cache.hit_ratio": ratio(n("cache.hits", 0), n("cache.lookups", 0)),
        "core.decomposition.self_s": s("core.decomposition", 0.0),
        "core.decomposition.calls": c("core.decomposition", 0),
        "core.decomposition.nodes_expanded": n("decomposition.nodes_expanded", 0),
        "core.decomposition.matchings_tried": n("decomposition.matchings_tried", 0),
        "core.decomposition.branches_pruned": n("decomposition.branches_pruned", 0),
        "core.decomposition.untruncated_ratio": ratio(
            n("decomposition.untruncated", 0), c("core.decomposition", 0)),
        "core.decomposition.bound_cache_hit_ratio": ratio(
            n("decomposition.bound_cache_hits", 0), n("decomposition.bound_cache_lookups", 0)),
        "core.decomposition.matching_cache_hit_ratio": ratio(
            n("decomposition.matching_cache_hits", 0),
            n("decomposition.matching_cache_lookups", 0)),
        "dse.stage_reuse.self_s": s("dse.stage_reuse", 0.0),
        "dse.stage_reuse.decompose_ratio": ratio(
            n("stage_reuse.decompose_shared", 0), n("stage_reuse.decompose_cells", 0)),
        "core.synthesis.self_s": s("core.synthesis", 0.0),
        "core.synthesis.calls": c("core.synthesis", 0),
        "routing.self_s": s("routing", 0.0),
        "core.constraints.check_s": s("core.constraints.check", 0.0),
        "routing.deadlock.analyze_s": s("routing.deadlock.analyze", 0.0),
        "noc.self_s": s("noc", 0.0),
        "noc.calls": c("noc", 0),
        "noc.cycles_total": n("noc.cycles_total", 0),
        "noc.cycles_stepped": n("noc.cycles_stepped", 0),
        "noc.stepped_cycles_per_s": ratio(n("noc.cycles_stepped", 0), s("noc", 0.0)),
        "noc.batch.self_s": s("noc.batch", 0.0),
        "noc.batch.calls": c("noc.batch", 0),
        "noc.batch.cells_per_call": ratio(n("noc.batch.cells", 0), c("noc.batch", 0)),
        "dse.search.self_s": s("dse.search", 0.0),
        "dse.search.screen_evals": rungs.get("screen", 0),
        "dse.search.confirm_evals": rungs.get("confirm", 0),
        "dse.search.top_rung_evals": top,
        "dse.search.promotion_precision": ratio(len(set(front)), top),
        "dse.pipeline.score_s": s("dse.pipeline.score", 0.0),
        "dse.analysis.report_s": s("dse.analysis.report", 0.0),
        "unattributed_s": rep.wall_s - interpreter_s - import_s - sum(self_s.values()),
    }


def per_layer(plain: list[Rep], traced: list[Rep]) -> dict[str, float]:
    rows = [layer_metrics(rep) for rep in traced if rep.ok]
    metrics = {key: median([row[key] for row in rows]) for key in (rows[0] if rows else {})}
    metrics["trace_overhead_s"] = (
        median([rep.wall_s for rep in traced if rep.ok])
        - median([rep.wall_s for rep in plain if rep.ok])
    )
    reps = plain + traced
    metrics["failed_share"] = ratio(sum(r.failed for r in reps), sum(r.attempted for r in reps))
    return metrics


def declared(metrics: dict[str, float], section: str) -> dict[str, dict]:
    """The metrics in BENCHMARK.json's order, with its units; names must match."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    names = [entry["name"] for entry in spec]
    if sorted(names) != sorted(metrics):
        raise SystemExit(f"computed {sorted(metrics)} but BENCHMARK.json declares {sorted(names)}")
    return {entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in spec}


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def git_sha() -> str:
    """HEAD's commit; the checkout the benchmark runs in may not be a repository."""
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() or "unavailable"


def numpy_version() -> str | None:
    """numpy's version from its metadata (importing it would cost a measured process ~50 ms)."""
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return None


def measure(workload: Workload, seconds: float, trace: bool):
    """Repetitions until ``seconds`` are used; traced runs alternate plain/traced.

    Returns the plain and the traced repetitions.
    """
    plain: list[Rep] = []
    traced: list[Rep] = []
    workload.ctx.speed.samples.clear()
    start = monotonic()
    last = 0.0
    while True:
        done = len(plain) + len(traced)
        if done >= (4 if trace else MIN_REPS) and monotonic() - start + last / 2 > seconds:
            break
        began = monotonic()
        if trace and done % 2 == 1:
            traced.append(workload.rep(traced=True))
        else:
            plain.append(workload.rep(traced=False))
        last = monotonic() - began
    return plain, traced


def main(argv: list[str] | None = None) -> int:
    # let the main thread take the interpreter lock back promptly when a
    # child exits while the probe thread is running
    sys.setswitchinterval(0.0005)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "dse" / "__main__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    ctx = Context(args.workload, args.seed)
    try:
        ctx.work.mkdir(parents=True, exist_ok=True)
        workload = WORKLOADS[args.workload](ctx)
        setup_start = monotonic()
        workload.prepare()
        setup_done = monotonic()
        plain, traced = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        if ctx.work.parent.is_dir() and not any(ctx.work.parent.iterdir()):
            ctx.work.parent.rmdir()

    reps = plain + traced
    first = next((c.payload for rep in reps for c in rep.children if c.ok), {})
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "pipeline_version": first.get("pipeline_version"),
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "repetitions": {"plain": len(plain), "traced": len(traced)},
        "benchmark_setup_s": round(setup_done - setup_start, 3),
    }
    print(f"manifest {json.dumps(manifest, sort_keys=True)}")
    digests = sorted({rep.digest for rep in reps if rep.digest})
    print(f"digests {digests} (expected {workload.expected['digest'] if workload.pinned_digest() else 'repeatable'})")
    scale = ctx.speed.scale()
    e2e = end_to_end(reps, scale)
    good = [rep for rep in plain if rep.ok]
    print(f"samples n={len(good)} wall_s {[round(rep.wall_s, 4) for rep in good]} "
          f"setup_s {[round(rep.setup_s, 4) for rep in good]} (as measured)")
    print(f"host speed: probe loop {1e3 * REFERENCE_PROBE_S / scale:.3f} ms on average over "
          f"{len(ctx.speed.samples)} samples; end-to-end timings scaled by {scale:.4f}")
    print(
        f"AES at router delay 2, buffer 4: throughput gain {e2e['aes_throughput_gain_pct']:+.1f}% "
        f"(paper +{PAPER_AES_THROUGHPUT_GAIN_PCT:.0f}%, error "
        f"{e2e['aes_throughput_gain_pct'] - PAPER_AES_THROUGHPUT_GAIN_PCT:+.1f} points); "
        f"energy saving {e2e['aes_energy_saving_pct']:.1f}% "
        f"(paper {PAPER_AES_ENERGY_SAVING_PCT:.0f}%, error "
        f"{e2e['aes_energy_saving_pct'] - PAPER_AES_ENERGY_SAVING_PCT:+.1f} points). "
        "No other scenario has a paper reference."
    )
    if args.trace:
        metrics = declared(per_layer(plain, traced), "per_layer")
    else:
        metrics = declared(e2e, "end_to_end")
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    correct = (
        failed == 0
        and len(digests) == 1
        and all(rep.aes is not None for rep in reps)
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
