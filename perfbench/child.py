"""One measured process of the end-to-end benchmark.

``run.py`` spawns this script once per CLI invocation it measures::

    python3 perfbench/child.py --out RESULT.json [--trace] [--setup-only]
        [--suite-dir NAME=DIR] -- ARGV...

It imports the command-line entry point ``repro.dse.__main__``, installs
the boundary hooks (and, with ``--trace``, the per-layer wrappers), runs
``main(ARGV)`` exactly as ``python -m repro.dse ARGV`` would, and writes
what it observed to ``RESULT.json``.  Every timestamp that ``run.py``
compares with its own spawn time is read from ``CLOCK_MONOTONIC``, which
is one clock for all processes of the machine.

Boundary hooks (always on) record when the first sweep, search or report
call starts and when the outermost one returns, plus the values those
calls return.  They add a handful of function calls per process.  With
``--setup-only`` the process stops at that first call; ``run.py`` runs
one such process to byte-compile the program before it times anything.

Per-layer wrappers (``--trace``) wrap the public function of each layer
*under the name its caller looks up*: a module that did
``from repro.dse.pipeline import route_stage`` holds its own reference,
so that module's attribute is replaced, not only the defining one.  A
wrapper charges its layer the call's duration minus the durations of
wrapped calls nested inside it, so each nested layer's time is counted
once, as the innermost layer's self time.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)
ROOT = Path(__file__).resolve().parent.parent


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class LayerTrace:
    """Self time, call counts and counters per layer, from wrapped calls."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._children: list[float] = []

    def wrap(self, owner, name: str, layer: str, observe=None) -> None:
        """Replace ``owner.name`` by a wrapper that charges ``layer``."""
        original = getattr(owner, name)
        children = self._children

        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = children.pop()
                self.self_s[layer] += elapsed - nested
                self.calls[layer] += 1
                if children:
                    children[-1] += elapsed
            if observe is not None:
                observe(self.counts, result, args)
            return result

        setattr(owner, name, wrapper)


def observe_decomposition(counts, result, args) -> None:
    stats = result.statistics
    counts["decomposition.nodes_expanded"] += stats.nodes_expanded
    counts["decomposition.matchings_tried"] += stats.matchings_tried
    counts["decomposition.branches_pruned"] += stats.branches_pruned
    counts["decomposition.untruncated"] += 0 if stats.truncated else 1
    counts["decomposition.bound_cache_hits"] += stats.bound_cache_hits
    counts["decomposition.bound_cache_lookups"] += (
        stats.bound_cache_hits + stats.bound_cache_misses
    )
    counts["decomposition.matching_cache_hits"] += stats.matching_cache_hits
    counts["decomposition.matching_cache_lookups"] += (
        stats.matching_cache_hits + stats.matching_cache_misses
    )


def observe_stage_reuse(counts, result, args) -> None:
    _, provenance = result
    counts["stage_reuse.decompose_cells"] += 1
    if provenance != "computed":
        counts["stage_reuse.decompose_shared"] += 1


def observe_simulation(counts, result, args) -> None:
    counts["noc.cycles_total"] += result.total_cycles
    counts["noc.cycles_stepped"] += result.cycles_stepped


def observe_batch(counts, result, args) -> None:
    counts["noc.batch.cells"] += args[0].num_cells


def observe_cache_get(counts, result, args) -> None:
    counts["cache.lookups"] += 1
    counts["cache.hits"] += result is not None


def install_layers(trace: LayerTrace) -> None:
    """Wrap the public entry of every layer the benchmark attributes."""
    import repro.dse.__main__ as cli
    from repro.core.constraints import ConstraintChecker
    from repro.core.synthesis import TopologySynthesizer
    from repro.dse import cache, pipeline, runner, search
    from repro.noc.batch import BatchSimulator

    trace.wrap(runner, "plan_sweep", "dse.runner.plan")
    trace.wrap(search, "plan_sweep", "dse.runner.plan")
    trace.wrap(runner, "run_cells", "dse.runner")
    trace.wrap(search, "run_cells", "dse.runner")
    trace.wrap(search, "run_search", "dse.search")
    trace.wrap(cache.ResultCache, "load", "dse.cache.load")
    trace.wrap(cache.ResultCache, "store", "dse.cache.store")
    trace.wrap(cache.ResultCache, "get", "dse.cache.get", observe_cache_get)
    trace.wrap(cache.StageArtifactStore, "load_decomposition", "dse.cache.artifact_load")
    trace.wrap(cache.StageArtifactStore, "store_decomposition", "dse.cache.artifact_store")
    trace.wrap(cache.StageContext, "decomposition_for", "dse.stage_reuse", observe_stage_reuse)
    trace.wrap(pipeline, "decompose", "core.decomposition", observe_decomposition)
    trace.wrap(TopologySynthesizer, "build_topology", "core.synthesis")
    trace.wrap(pipeline, "route_stage", "routing")
    trace.wrap(cache, "route_stage", "routing")
    trace.wrap(pipeline, "baseline_route_stage", "routing")
    trace.wrap(ConstraintChecker, "check", "core.constraints.check")
    trace.wrap(pipeline, "analyze_deadlock", "routing.deadlock.analyze")
    trace.wrap(pipeline, "simulate_stage", "noc", observe_simulation)
    trace.wrap(BatchSimulator, "execute", "noc.batch", observe_batch)
    trace.wrap(pipeline, "score_stage", "dse.pipeline.score")
    trace.wrap(cli, "pareto_report", "dse.analysis.report")


class SetupDone(Exception):
    """Raised at the first sweep/search/report call of a set-up-only process."""


class Boundary:
    """When the program's work starts and ends, and what the calls return."""

    def __init__(self, setup_only: bool = False) -> None:
        self.setup_only = setup_only
        self.work_start: float | None = None
        self.work_s = 0.0
        self.points = 0
        self.observed: dict[str, object] = {}

    def enter(self) -> None:
        if self.work_start is None:
            self.work_start = monotonic()
        if self.setup_only:
            raise SetupDone

    def install(self) -> None:
        import repro.dse.__main__ as cli
        from repro.dse import runner, search

        for module in (runner, search):
            self._on_entry(module, "run_cells")
        self._on_call(cli, "run_sweep", self._sweep_done)
        self._on_call(search, "run_search", self._search_done)
        self._on_entry(cli, "_cmd_report")
        self._on_call(cli, "_cmd_report", lambda result, args: self._close_window())
        self._on_call(cli, "pareto_report", self._reported)

    def _on_entry(self, owner, name: str) -> None:
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            self.enter()
            return original(*args, **kwargs)

        setattr(owner, name, wrapper)

    def _on_call(self, owner, name: str, done) -> None:
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            done(result, args)
            return result

        setattr(owner, name, wrapper)

    def _close_window(self) -> None:
        if self.work_start is not None:
            self.work_s = monotonic() - self.work_start

    def _sweep_done(self, result, args) -> None:
        self._close_window()
        self.points = len({record.cache_key for record in result.records})
        self.observed["evaluations"] = result.num_evaluations
        self.observed["front"] = program_front(result.records)

    def _search_done(self, result, args) -> None:
        self._close_window()
        self.points = result.grid_cells
        self.observed["front"] = sorted(
            record.cache_key for record in result.front_records()
        )
        rungs = {name: sweep.num_evaluations
                 for (name, _), sweep in zip(result.rung_counts, result.sweeps)}
        self.observed["search"] = {
            "rung_evaluations": rungs,
            "top_rung_evals": result.top_rung_evaluations,
        }

    def _reported(self, result, args) -> None:
        self.points = len(args[0])


def program_front(records) -> list[str]:
    """Cache keys of the per-scenario fronts the program's Pareto filter keeps."""
    from repro.dse import pareto_front

    by_scenario: dict[str, list] = {}
    for record in records:
        by_scenario.setdefault(record.scenario, []).append(record)
    return sorted(
        {record.cache_key for group in by_scenario.values() for record in pareto_front(group)}
    )


def register_file_suite(spec: str) -> None:
    """``NAME=DIR``: register every ``DIR/*.net`` workload as suite NAME."""
    from repro.dse import SuiteSpec, file_scenario, register_suite

    name, _, directory = spec.partition("=")
    paths = sorted(Path(directory).glob("*.net"))
    register_suite(
        SuiteSpec(
            name=name,
            description=f"generated workloads in {directory}",
            factory=lambda: [file_scenario(path) for path in paths],
            default_axes={"architecture": ("mesh", "custom")},
        )
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--suite-dir", default=None)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    options = parser.parse_args()
    argv = options.argv[1:] if options.argv[:1] == ["--"] else options.argv

    sys.path.insert(0, str(ROOT / "src"))
    import_start = time.perf_counter()
    import repro.dse.__main__ as cli
    import_s = time.perf_counter() - import_start

    trace = LayerTrace() if options.trace else None
    if trace is not None:
        install_layers(trace)
    boundary = Boundary(options.setup_only)
    boundary.install()
    if options.suite_dir:
        register_file_suite(options.suite_dir)

    try:
        code = cli.main(argv)
    except SetupDone:
        code = 0
    sys.stdout.flush()

    from repro.dse import PIPELINE_VERSION

    payload = {
        "t_start": T_START,
        "t_work_start": boundary.work_start,
        "work_s": boundary.work_s,
        "points": boundary.points,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "observed": boundary.observed,
        "pipeline_version": PIPELINE_VERSION,
    }
    if trace is not None:
        payload["layers"] = {
            "import_s": import_s,
            "self_s": dict(trace.self_s),
            "calls": dict(trace.calls),
            "counts": dict(trace.counts),
        }
    options.out.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
