"""Command-line entry point: ``python -m repro.dse <run|report|trace|stats|list-scenarios|list-fabrics|import-workload|export-topology>``.

Examples::

    python -m repro.dse list-scenarios
    python -m repro.dse list-fabrics
    python -m repro.dse run --suite smoke
    python -m repro.dse run --suite file:examples/graphs/pipeline8.net
    python -m repro.dse run --suite random --parallel --axis library=default,extended
    python -m repro.dse run --suite fabrics --topology mesh,torus,ring \\
        --routing-policy xy,dateline,up_down
    python -m repro.dse search --suite embedded --margin 0.1
    python -m repro.dse search --suite embedded \\
        --rung screen:budget_fraction=0.16,simulation_cap=1,engine=batch \\
        --rung full
    python -m repro.dse report
    python -m repro.dse report --suite smoke --csv sweep.csv
    python -m repro.dse run --suite smoke --trace trace.jsonl
    python -m repro.dse trace trace.jsonl
    python -m repro.dse stats trace.jsonl --format prometheus
    python -m repro.dse import-workload app.net --out app.dot
    python -m repro.dse export-topology --family torus --cores 16 --out torus.dot

``--suite`` accepts registered suite names and ``file:PATH`` — the path
is imported through :mod:`repro.io` (Pajek/DOT/edge-list by extension)
and swept as a one-scenario suite.

``run`` executes a suite's grid against the on-disk caches (re-runs only
evaluate new cells, and cells differing only in simulator axes share one
decomposition through the stage-artifact store); ``search`` races the
same grid up a fidelity ladder instead of sweeping it exhaustively
(``docs/search.md``); ``report`` prints
per-scenario Pareto tables with mesh-normalized columns from the cached
results, surfacing the deadlock-gate provenance (``deadlock_free`` /
``vc_channels_needed``) and flagging budget-truncated cells;
``list-fabrics`` prints the topology-family and routing-policy registries
with their compatibility/deadlock matrix.  A worked end-to-end example
lives in ``docs/dse.md``; the fabric axes are documented in
``docs/topologies.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.dse.analysis import (
    normalize_to_mesh,
    pareto_report,
    stage_reuse_summary,
    truncated_cells,
)
from repro.dse.cache import ResultCache, StageArtifactStore
from repro.dse.runner import run_sweep
from repro.dse.scenarios import build_suite, describe_suites, resolve_suite, scenario_rows
from repro.exceptions import ConfigurationError, ReproError
from repro.obs import (
    NULL_SESSION,
    ObsSession,
    get_exporter,
    read_event_log,
    render_trace_summary,
    use_session,
    write_event_log,
)

DEFAULT_RESULTS = Path("dse_results") / "results.jsonl"
#: stage artifacts default to a sibling directory of the results file
DEFAULT_ARTIFACTS_NAME = "stage_artifacts"


def _coerce(text: str) -> object:
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    return text.strip()


def _parse_axes(specs: Sequence[str]) -> dict[str, list[object]]:
    axes: dict[str, list[object]] = {}
    for spec in specs:
        if "=" not in spec:
            raise ConfigurationError(
                f"bad --axis {spec!r}: expected name=value[,value...]"
            )
        name, _, values = spec.partition("=")
        axes[name.strip()] = [_coerce(value) for value in values.split(",") if value != ""]
    return axes


def _artifact_store(arguments: argparse.Namespace) -> StageArtifactStore | None:
    if arguments.no_artifacts:
        return None
    directory = arguments.artifacts
    if directory is None:
        directory = Path(arguments.results).parent / DEFAULT_ARTIFACTS_NAME
    return StageArtifactStore(directory)


def _sweep_grid(arguments: argparse.Namespace):
    """Resolve the suite + grid axes shared by ``run`` and ``search``."""
    spec = resolve_suite(arguments.suite)
    scenarios = spec.build()
    axes = dict(spec.default_axes)
    axes.update(_parse_axes(arguments.axis))
    if arguments.topology:
        axes["topology"] = [value for value in arguments.topology.split(",") if value]
    if arguments.routing_policy:
        axes["routing_policy"] = [
            value for value in arguments.routing_policy.split(",") if value
        ]
    if arguments.engine:
        axes["engine"] = [value for value in arguments.engine.split(",") if value]
    return spec, scenarios, axes


def _finish_sweep_output(arguments, cache, artifacts, session) -> None:
    """The cache/trace/next-step epilogue shared by ``run`` and ``search``."""
    print(f"results: {cache.describe()}")
    if artifacts is not None:
        print(f"stage artifacts: {artifacts.describe()}")
    if arguments.trace is not None:
        events = session.events()
        write_event_log(arguments.trace, events)
        print(f"trace: wrote {len(events)} events to {arguments.trace} "
              f"(inspect with: python -m repro.dse trace {arguments.trace})")
    print("next: python -m repro.dse report"
          + (f" --results {arguments.results}" if arguments.results != DEFAULT_RESULTS else ""))


def _cmd_run(arguments: argparse.Namespace) -> int:
    spec, scenarios, axes = _sweep_grid(arguments)
    cache = ResultCache(arguments.results)
    artifacts = _artifact_store(arguments)
    session = ObsSession.enabled() if arguments.trace is not None else NULL_SESSION
    with use_session(session):
        result = run_sweep(
            scenarios,
            base=spec.base_settings,
            axes=axes,
            cache=cache,
            parallel=arguments.parallel,
            max_workers=arguments.workers,
            artifacts=artifacts,
        )
    print(f"suite {spec.name!r}: {len(scenarios)} scenarios x grid {axes}")
    print(result.describe())
    for record in result.failed():
        print(f"  FAILED {record.scenario} [{record.config_label}]: "
              f"{record.status}: {record.error}")
    _finish_sweep_output(arguments, cache, artifacts, session)
    return 0


def _parse_ladder(specs: Sequence[str]):
    """``--rung NAME[:field=value,...]`` specs into a RungSpec ladder.

    ``budget_fraction`` and ``simulation_cap`` address the rung's own
    knobs; every other field is an :class:`EvaluationSettings` override.
    A final full-fidelity rung is appended automatically when the last
    given rung still carries overrides.
    """
    from repro.dse.search import RungSpec, default_ladder

    if not specs:
        return default_ladder()
    rungs = []
    for spec in specs:
        name, _, rest = spec.partition(":")
        name = name.strip()
        overrides: dict[str, object] = {}
        kwargs: dict[str, object] = {}
        for item in rest.split(",") if rest else []:
            if not item:
                continue
            if "=" not in item:
                raise ConfigurationError(
                    f"bad --rung {spec!r}: expected NAME[:field=value,...]"
                )
            field, _, value = item.partition("=")
            field = field.strip()
            coerced = _coerce(value)
            if field in ("budget_fraction", "simulation_cap"):
                kwargs[field] = coerced
            else:
                overrides[field] = coerced
        rungs.append(RungSpec(name, overrides=overrides, **kwargs))  # type: ignore[arg-type]
    if not rungs[-1].full_fidelity:
        rungs.append(RungSpec("full"))
    return tuple(rungs)


def _cmd_search(arguments: argparse.Namespace) -> int:
    from repro.dse.search import SearchConfig, run_search

    spec, scenarios, axes = _sweep_grid(arguments)
    config = SearchConfig(
        ladder=_parse_ladder(arguments.rung),
        margin=arguments.margin,
        seed=arguments.seed,
        max_promotions=arguments.max_promotions,
    )
    cache = ResultCache(arguments.results)
    artifacts = _artifact_store(arguments)
    session = ObsSession.enabled() if arguments.trace is not None else NULL_SESSION
    with use_session(session):
        result = run_search(
            scenarios,
            base=spec.base_settings,
            axes=axes,
            config=config,
            cache=cache,
            parallel=arguments.parallel,
            max_workers=arguments.workers,
            artifacts=artifacts,
        )
    print(f"suite {spec.name!r}: {len(scenarios)} scenarios x grid {axes}")
    print(result.describe())
    front = result.front_records()
    print(f"Pareto front ({len(front)} full-fidelity cell(s)):")
    for record in front:
        print(f"  * {record.scenario} {record.architecture} [{record.config_label}]")
    for record in result.failed():
        print(f"  FAILED {record.scenario} [{record.config_label}] "
              f"at rung {record.search.get('rung', '?')}: "
              f"{record.status}: {record.error}")
    _finish_sweep_output(arguments, cache, artifacts, session)
    return 0


def _cmd_trace(arguments: argparse.Namespace) -> int:
    events = read_event_log(arguments.path)
    print(render_trace_summary(events, top=arguments.top))
    return 0


def _cmd_stats(arguments: argparse.Namespace) -> int:
    events = read_event_log(arguments.path)
    print(get_exporter(arguments.format).render(events))
    return 0


def _cmd_report(arguments: argparse.Namespace) -> int:
    cache = ResultCache(arguments.results)
    records = cache.all_records()
    if arguments.suite:
        wanted = {scenario.name for scenario in build_suite(arguments.suite)}
        records = [record for record in records if record.scenario in wanted]
    if not records:
        print(f"no records in {arguments.results} — run a sweep first "
              "(python -m repro.dse run --suite smoke)")
        return 1
    print(pareto_report(records))
    reuse = stage_reuse_summary(records)
    if reuse:
        parts = []
        for stage in sorted(reuse):
            counts = reuse[stage]
            breakdown = ", ".join(
                f"{counts[provenance]} {provenance}" for provenance in sorted(counts)
            )
            parts.append(f"{stage}: {breakdown}")
        print(f"\nstage provenance across {len(records)} cells — " + "; ".join(parts))
    truncated = truncated_cells(records)
    if truncated:
        print(f"warning: {len(truncated)} cell(s) were budget-truncated; "
              "see the '!' markers above")
    if arguments.csv:
        # imported lazily for the same reason as in repro.dse.analysis
        from repro.experiments.reporting import rows_to_csv

        rows_to_csv(normalize_to_mesh(records), arguments.csv)
        print(f"\nwrote {len(records)} rows to {arguments.csv}")
    return 0


def _cmd_list_fabrics(arguments: argparse.Namespace) -> int:
    from repro.arch.families import family_names, get_family, pad_node_ids
    from repro.experiments.reporting import format_table
    from repro.routing.policies import get_policy, policy_names, supported_policies

    probe_cores = arguments.cores
    family_rows = []
    fabrics = {}
    for name in family_names():
        spec = get_family(name)
        fabric = spec.build(pad_node_ids(spec, range(1, probe_cores + 1)))
        fabrics[name] = fabric
        family_rows.append(
            {
                "family": name,
                "routers": fabric.num_routers,
                "links": fabric.num_physical_links,
                "max_degree": fabric.max_degree(),
                "description": spec.description,
            }
        )
    print(format_table(family_rows, title=f"topology families ({probe_cores} cores)"))

    policy_rows = [
        {
            "policy": name,
            "deadlock_free": get_policy(name).deadlock_free_by_construction,
            "minimal_on": ",".join(get_policy(name).minimal_families) or "-",
            "description": get_policy(name).description,
        }
        for name in policy_names()
    ]
    print()
    print(format_table(policy_rows, title="routing policies"))

    matrix_rows = []
    for family, fabric in fabrics.items():
        row: dict[str, object] = {"family": family}
        supported = set(supported_policies(fabric))
        for policy in policy_names():
            if policy not in supported:
                row[policy] = "-"
            elif get_policy(policy).deadlock_free_by_construction:
                row[policy] = "free"
            else:
                row[policy] = "gate"
        matrix_rows.append(row)
    print()
    print(format_table(
        matrix_rows,
        title="compatibility (free: deadlock-free by construction; "
        "gate: CDG gate decides per workload)",
    ))
    print("\nsweep these axes with: python -m repro.dse run --suite fabrics "
          "--topology NAME,... --routing-policy NAME,...")
    return 0


def _cmd_import_workload(arguments: argparse.Namespace) -> int:
    from repro.core.graph import GraphStatistics
    from repro.io import read_workload, write_workload

    acg = read_workload(arguments.path, fmt=arguments.format, name=arguments.name)
    stats = GraphStatistics.of(acg)
    print(f"workload {acg.name!r}: {stats.num_nodes} nodes, {stats.num_edges} edges, "
          f"total volume {stats.total_volume:g} bits, "
          f"{'connected' if stats.is_connected else f'{stats.num_components} components'}")
    if arguments.out:
        write_workload(acg, arguments.out, fmt=arguments.out_format)
        print(f"wrote {arguments.out}")
    print("sweep it with: python -m repro.dse run "
          f"--suite file:{arguments.path}")
    return 0


def _cmd_export_topology(arguments: argparse.Namespace) -> int:
    from repro.arch.families import get_family, pad_node_ids
    from repro.io import write_topology

    spec = get_family(arguments.family)
    fabric = spec.build(
        pad_node_ids(spec, range(1, arguments.cores + 1)),
        tile_pitch_mm=arguments.tile_pitch,
        flit_width_bits=arguments.flit_width,
    )
    write_topology(fabric, arguments.out, fmt=arguments.format)
    print(f"wrote {arguments.out}: family {arguments.family!r}, "
          f"{fabric.num_routers} routers, {fabric.num_physical_links} links, "
          f"total wire {fabric.total_wire_length_mm():g} mm")
    return 0


def _cmd_list_scenarios(arguments: argparse.Namespace) -> int:
    from repro.experiments.reporting import format_table

    if arguments.suite:
        rows = scenario_rows(build_suite(arguments.suite))
        print(format_table(rows, title=f"suite: {arguments.suite}"))
    else:
        print(format_table(describe_suites(), title="registered scenario suites"))
        print("\nuse --suite NAME to list a suite's scenarios")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.dse`` argument parser (all defaults documented)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.dse",
        description="batch NoC design-space exploration over scenario suites",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run",
        help="execute a suite's sweep grid (cached)",
        description="Execute a suite's sweep grid against the on-disk caches. "
        "Cells already present in the JSONL result cache are not re-evaluated; "
        "cells differing only in simulator-stage axes share one decomposition "
        "through the stage-artifact store. See docs/dse.md for a worked example.",
    )
    _add_sweep_options(run)
    run.set_defaults(handler=_cmd_run)

    search = commands.add_parser(
        "search",
        help="race the sweep grid up a fidelity ladder (guided search)",
        description="Race a suite's grid up a fidelity ladder instead of "
        "sweeping it exhaustively: every design point is screened at cheap "
        "low rungs (truncated decomposition budgets, short simulation "
        "windows, batch engine) and only points on — or within --margin of — "
        "the incumbent Pareto front are promoted to full fidelity. "
        "Promotions are deterministic (--seed) and every cached record "
        "carries rung/promotion provenance for `report`. See docs/search.md.",
    )
    _add_sweep_options(search)
    search.add_argument("--rung", action="append", default=[],
                        metavar="NAME[:F=V,...]",
                        help="define a ladder rung; repeatable, ordered "
                             "cheap-to-full. Fields: budget_fraction (scales "
                             "max_nodes_expanded), simulation_cap (clamps "
                             "repetitions/aes_blocks), anything else is a "
                             "settings override (e.g. engine=batch, "
                             "decomposition_timeout_seconds=2). A bare final "
                             "full-fidelity rung is appended if missing "
                             "(default: the stock screen/confirm/full ladder)")
    search.add_argument("--margin", type=float, default=0.10,
                        help="dominance slack for promotion: prune a point "
                             "only when a front member beats it by this "
                             "relative factor in every objective; 0 promotes "
                             "exactly the front (default: 0.10)")
    search.add_argument("--seed", type=int, default=0,
                        help="seed for the deterministic promotion tie-break "
                             "(default: 0)")
    search.add_argument("--max-promotions", dest="max_promotions", type=int,
                        default=None, metavar="N",
                        help="cap promotions per scenario per rung; front "
                             "members and margin survivors compete for the "
                             "slots in deterministic rank order (default: "
                             "no cap)")
    search.set_defaults(handler=_cmd_search)

    _add_reporting_commands(commands)
    return parser


def _add_sweep_options(run: argparse.ArgumentParser) -> None:
    """The grid/cache/parallel/trace options shared by run and search."""
    run.add_argument("--suite", default="smoke",
                     help="scenario suite name (see list-scenarios) or file:PATH "
                          "to sweep an imported workload graph (default: smoke)")
    run.add_argument("--results", type=Path, default=DEFAULT_RESULTS,
                     help=f"JSONL result cache file (default: {DEFAULT_RESULTS})")
    run.add_argument("--artifacts", type=Path, default=None, metavar="DIR",
                     help="stage-artifact store directory; shared decompositions "
                          "persist here across runs (default: a "
                          f"'{DEFAULT_ARTIFACTS_NAME}' directory next to --results)")
    run.add_argument("--no-artifacts", action="store_true",
                     help="disable the on-disk stage-artifact store; stage reuse "
                          "stays in-memory within this run (default: off)")
    run.add_argument("--parallel", action="store_true",
                     help="fan decomposition-sharing groups out over a process "
                          "pool (default: serial)")
    run.add_argument("--workers", type=int, default=None,
                     help="process-pool size with --parallel (default: cpu count)")
    run.add_argument("--axis", action="append", default=[], metavar="NAME=V1,V2",
                     help="override/add a grid axis; repeatable; values are "
                          "coerced to bool/int/float/None when they parse as such "
                          "(default: the suite's grid)")
    run.add_argument("--topology", default=None, metavar="FAM1,FAM2",
                     help="topology families to sweep the baseline fabric over "
                          "(shorthand for --axis topology=...; see list-fabrics; "
                          "default: the suite's grid)")
    run.add_argument("--routing-policy", dest="routing_policy", default=None,
                     metavar="POL1,POL2",
                     help="routing policies to sweep the baseline fabric over "
                          "(shorthand for --axis routing_policy=...; see "
                          "list-fabrics; default: the suite's grid)")
    run.add_argument("--engine", default=None, metavar="ENG1,ENG2",
                     help="simulator engines to sweep (shorthand for --axis "
                          "engine=...; 'event', 'reference' or 'batch' — batch "
                          "cells sharing a fabric+routing signature are simulated "
                          "in one vectorized call; default: the suite's grid)")
    run.add_argument("--trace", type=Path, default=None, metavar="FILE",
                     help="record an observability event log (spans + metrics, "
                          "JSONL) of this sweep to FILE; inspect it with the "
                          "'trace' and 'stats' subcommands (default: tracing off)")


def _add_reporting_commands(commands) -> None:
    """The report/trace/stats/listing/interchange subcommands."""
    report = commands.add_parser(
        "report",
        help="Pareto/baseline report from cached results",
        description="Print per-scenario Pareto tables with mesh-normalized "
        "columns from the cached results. Budget-truncated decomposition cells "
        "are marked '!' and called out: their figures are machine-speed-"
        "dependent (see docs/dse.md).",
    )
    report.add_argument("--results", type=Path, default=DEFAULT_RESULTS,
                        help=f"JSONL result cache file (default: {DEFAULT_RESULTS})")
    report.add_argument("--suite", default=None,
                        help="restrict the report to one suite's scenarios "
                             "(default: all scenarios in the results file)")
    report.add_argument("--csv", type=Path, default=None, metavar="FILE",
                        help="also export the report rows as CSV (default: no export)")
    report.set_defaults(handler=_cmd_report)

    trace = commands.add_parser(
        "trace",
        help="summarize an observability event log",
        description="Render a human-readable summary of an event log recorded "
        "with run --trace: the hottest spans (by total wall clock), the DSE "
        "stage breakdown (decompose/synthesize/route/simulate/score shares), "
        "and the hottest routers/channels from the simulator probes. See "
        "docs/observability.md.",
    )
    trace.add_argument("path", type=Path, help="event log file (from run --trace)")
    trace.add_argument("--top", type=int, default=10,
                       help="number of span rows to show (default: 10)")
    trace.set_defaults(handler=_cmd_trace)

    stats = commands.add_parser(
        "stats",
        help="export an event log's metrics in a registered format",
        description="Render an event log recorded with run --trace through a "
        "registered metrics exporter. Built-ins: 'summary' (tables), "
        "'prometheus' (text exposition format), 'jsonl' (the raw events); "
        "plugins may register more via the repro.plugins entry-point group. "
        "See docs/observability.md.",
    )
    stats.add_argument("path", type=Path, help="event log file (from run --trace)")
    stats.add_argument("--format", default="summary",
                       help="exporter name (default: summary)")
    stats.set_defaults(handler=_cmd_stats)

    listing = commands.add_parser(
        "list-scenarios",
        help="list suites or a suite's scenarios",
        description="Without --suite, list every registered suite with its "
        "scenario and grid-cell counts; with --suite, list that suite's "
        "scenarios (nodes, edges, traffic mode).",
    )
    listing.add_argument("--suite", default=None,
                         help="suite whose scenarios to list (default: list suites)")
    listing.set_defaults(handler=_cmd_list_scenarios)

    fabrics = commands.add_parser(
        "list-fabrics",
        help="list topology families, routing policies and their matrix",
        description="Print the registered topology families (with router/link "
        "counts at a probe core count), the registered routing policies, and "
        "the family x policy compatibility matrix: 'free' cells are "
        "deadlock-free by construction, 'gate' cells rely on the per-workload "
        "CDG deadlock gate, '-' cells are unsupported (an explicit routing "
        "failure when swept). See docs/topologies.md.",
    )
    fabrics.add_argument("--cores", type=int, default=16,
                         help="probe core count used for the size columns "
                              "(default: 16)")
    fabrics.set_defaults(handler=_cmd_list_fabrics)

    importer = commands.add_parser(
        "import-workload",
        help="read a workload graph file and summarize/convert it",
        description="Read an application graph through the repro.io format "
        "registry (Pajek .net, Graphviz DOT, weighted edge list — detected "
        "from the extension unless --format pins it), print its statistics, "
        "and optionally convert it with --out. Sweep the file directly with "
        "run --suite file:PATH. See docs/interchange.md.",
    )
    importer.add_argument("path", type=Path, help="workload graph file to read")
    importer.add_argument("--format", default=None,
                          help="input format name (default: by file extension)")
    importer.add_argument("--name", default=None,
                          help="workload name override (default: the file stem)")
    importer.add_argument("--out", type=Path, default=None, metavar="FILE",
                          help="also write the graph to FILE (default: no export)")
    importer.add_argument("--out-format", dest="out_format", default=None,
                          help="output format name for --out "
                               "(default: by file extension)")
    importer.set_defaults(handler=_cmd_import_workload)

    exporter = commands.add_parser(
        "export-topology",
        help="instantiate a fabric family and write it to a graph file",
        description="Build a topology family at a given core count (node ids "
        "1..N padded per the family's rule) and write it through the repro.io "
        "format registry. The exported file re-imports with an identical "
        "structural signature. See docs/interchange.md.",
    )
    exporter.add_argument("--family", required=True,
                          help="topology family name (see list-fabrics)")
    exporter.add_argument("--cores", type=int, default=16,
                          help="application core count (default: 16)")
    exporter.add_argument("--tile-pitch", dest="tile_pitch", type=float, default=2.0,
                          help="tile pitch in mm (default: 2.0)")
    exporter.add_argument("--flit-width", dest="flit_width", type=int, default=32,
                          help="flit width in bits (default: 32)")
    exporter.add_argument("--out", type=Path, required=True, metavar="FILE",
                          help="output file; extension picks the format unless "
                               "--format is given")
    exporter.add_argument("--format", default=None,
                          help="output format name (default: by file extension)")
    exporter.set_defaults(handler=_cmd_export_topology)


def main(argv: Sequence[str] | None = None) -> int:
    """Parse ``argv`` (default: ``sys.argv[1:]``) and run the subcommand."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the downstream consumer (head, grep -q, ...) closed the pipe;
        # silence the interpreter-shutdown flush and exit cleanly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as error:
        # a missing or unreadable input file is CLI misuse, not a crash
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
