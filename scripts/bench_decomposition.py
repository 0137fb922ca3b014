#!/usr/bin/env python
"""Benchmark the exact residual bounds against the legacy coarse bound.

Runs the branch-and-bound decomposition twice per benchmark graph — once
under the legacy per-edge cost-model bound (``lower_bound="cost_model"``)
and once under the stacked exact bounds of :mod:`repro.core.bounds`
(``lower_bound="stacked"``, the default) — over the Fig-4a TGFF sweep,
the Fig-4b Pajek sweep and the embedded suite (MPEG-4, VOPD, MWD,
263enc+mp3dec, the Figure-5 example and the AES case study).

Three claims are measured and gated by ``--check``:

* **parity** — both bounds reach *bit-identical* final decompositions
  (same cost, same cover, same remainder) on every graph.  Admissible
  pruning removes only subtrees that cannot strictly improve the
  incumbent, so untruncated searches must agree exactly; a parity break
  means a bound over-estimated (inadmissible) somewhere.
* **nodes saving** — the stacked bounds expand at least
  ``NODES_SAVING_FLOOR``x fewer search nodes, aggregated as the
  geometric mean of the per-suite savings (SPEC-style), so one
  node-heavy suite cannot mask or inflate the others.  The pooled raw
  totals are reported alongside for transparency.
* **budget quality** — under a ``max_nodes_expanded`` budget ~3x tighter
  than the sweep default (``BUDGET // BUDGET_TIGHTENING`` vs ``BUDGET``),
  the stacked bounds still reach final costs at least as good as the
  legacy bound gets with the full budget, on every graph.  This is the
  experiment that licenses the tighter ``default_ladder()`` screen rung.

Every invocation (without ``--no-write``) appends one entry to
``BENCH_decomposition.json`` so the saving trajectory ratchets across PRs.

Usage::

    PYTHONPATH=src python scripts/bench_decomposition.py            # measure + record
    PYTHONPATH=src python scripts/bench_decomposition.py --check    # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.aes import build_aes_acg  # noqa: E402
from repro.core.cost import LinkCountCostModel  # noqa: E402
from repro.core.decomposition import DecompositionConfig, decompose  # noqa: E402
from repro.core.library import aes_library, default_library  # noqa: E402
from repro.workloads.benchmarks import (  # noqa: E402
    embedded_benchmark_acg,
    embedded_benchmark_names,
)
from repro.workloads.pajek import pajek_benchmark_suite  # noqa: E402
from repro.workloads.random_acg import figure5_example_acg  # noqa: E402
from repro.workloads.tgff import tgff_benchmark_suite  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_decomposition.json"

#: the two bound configurations the benchmark races
BASELINE_BOUND = "cost_model"
CANDIDATE_BOUND = "stacked"

#: nodes-expanded saving (geometric mean over suites) the --check gate
#: enforces (measured ~5.5x on this suite at the default branching width:
#: ~26x on the TGFF sweep, ~5.6x embedded, ~1.15x on the sparse Pajek
#: sweep where both bounds are already near-tight; the floor leaves room
#: for workload drift without letting the headline 3x claim regress)
NODES_SAVING_FLOOR = 3.0

#: the sweep-default node budget and how much the tight run divides it by
BUDGET = 400
BUDGET_TIGHTENING = 3

#: Fig-4a / Fig-4b sweep shapes (matching repro.experiments.runtime_sweep)
TGFF_SIZES = (5, 8, 10, 12, 15, 18)
PAJEK_SIZES = (10, 15, 20, 25, 30, 35, 40)
PAJEK_INSTANCES = 2


def benchmark_cases() -> list[tuple[str, str, object, object]]:
    """(suite, name, acg, library) for every benchmark graph."""
    lib = default_library()
    cases: list[tuple[str, str, object, object]] = []
    for task_graph in tgff_benchmark_suite(sizes=TGFF_SIZES, seed=7):
        cases.append(("fig4a_tgff", task_graph.name, task_graph.to_acg(), lib))
    for acg in pajek_benchmark_suite(
        sizes=PAJEK_SIZES, instances_per_size=PAJEK_INSTANCES, edge_density=0.12, seed=11
    ):
        cases.append(("fig4b_pajek", acg.name, acg, lib))
    for name in embedded_benchmark_names():
        cases.append(("embedded", name, embedded_benchmark_acg(name), lib))
    cases.append(("embedded", "figure5", figure5_example_acg(), lib))
    cases.append(("embedded", "aes", build_aes_acg(), aes_library()))
    return cases


def _config(lower_bound: str, max_nodes: int | None = None) -> DecompositionConfig:
    """One benchmark search config: deterministic, untruncated unless capped.

    All budgets that could vary by machine speed are off (wall-clock and
    VF2 timeouts), so runs reproduce bit-identically anywhere; only the
    deterministic ``max_nodes_expanded`` counter is used, and only by the
    budget-quality experiment.
    """
    return DecompositionConfig(
        max_matchings_per_primitive=4,
        isomorphism_timeout_seconds=None,
        total_timeout_seconds=None,
        max_leaves=None,
        max_nodes_expanded=max_nodes,
        lower_bound=lower_bound,
    )


def _result_identity(result) -> tuple:
    """Bit-identity key: cost, the exact cover, the exact remainder."""
    return (
        result.total_cost,
        tuple(sorted(m.sort_key() for m in result.matchings)),
        tuple(sorted(result.remainder.edges())),
    )


def run_benchmark() -> dict[str, object]:
    """Race the two bounds over the full suite; measure the three claims."""
    per_graph = []
    totals = {BASELINE_BOUND: 0, CANDIDATE_BOUND: 0}
    walls = {BASELINE_BOUND: 0.0, CANDIDATE_BOUND: 0.0}
    parity_breaks = []
    budget_losses = []
    pruned_by_total: dict[str, int] = {}
    tight_budget = BUDGET // BUDGET_TIGHTENING

    for suite, name, acg, library in benchmark_cases():
        row: dict[str, object] = {"suite": suite, "graph": name, "edges": acg.num_edges}
        identities = {}
        for bound in (BASELINE_BOUND, CANDIDATE_BOUND):
            start = time.perf_counter()
            result = decompose(acg, library, LinkCountCostModel(), _config(bound))
            wall = time.perf_counter() - start
            statistics = result.statistics
            identities[bound] = _result_identity(result)
            totals[bound] += statistics.nodes_expanded
            walls[bound] += wall
            row[f"{bound}_nodes"] = statistics.nodes_expanded
            row[f"{bound}_wall_s"] = round(wall, 4)
            row[f"{bound}_cost"] = result.total_cost
            if bound == CANDIDATE_BOUND:
                for reason, count in statistics.branches_pruned_by.items():
                    pruned_by_total[reason] = pruned_by_total.get(reason, 0) + count
        row["identical"] = identities[BASELINE_BOUND] == identities[CANDIDATE_BOUND]
        if not row["identical"]:
            parity_breaks.append(f"{suite}/{name}")

        # equal quality under a ~3x tighter deterministic node budget
        budget_baseline = decompose(
            acg, library, LinkCountCostModel(), _config(BASELINE_BOUND, BUDGET)
        )
        budget_tight = decompose(
            acg, library, LinkCountCostModel(), _config(CANDIDATE_BOUND, tight_budget)
        )
        row["budget_baseline_cost"] = budget_baseline.total_cost
        row["budget_tight_cost"] = budget_tight.total_cost
        if budget_tight.total_cost > budget_baseline.total_cost + 1e-9:
            budget_losses.append(
                f"{suite}/{name}: {budget_tight.total_cost:g} @ {tight_budget} nodes vs "
                f"{budget_baseline.total_cost:g} @ {BUDGET} nodes"
            )
        per_graph.append(row)

    suites = sorted({row["suite"] for row in per_graph})
    per_suite = {
        suite: {
            "graphs": sum(1 for row in per_graph if row["suite"] == suite),
            "baseline_nodes": sum(
                row[f"{BASELINE_BOUND}_nodes"] for row in per_graph if row["suite"] == suite
            ),
            "candidate_nodes": sum(
                row[f"{CANDIDATE_BOUND}_nodes"] for row in per_graph if row["suite"] == suite
            ),
            "baseline_wall_s": round(
                sum(row[f"{BASELINE_BOUND}_wall_s"] for row in per_graph if row["suite"] == suite),
                3,
            ),
            "candidate_wall_s": round(
                sum(row[f"{CANDIDATE_BOUND}_wall_s"] for row in per_graph if row["suite"] == suite),
                3,
            ),
        }
        for suite in suites
    }
    for stats in per_suite.values():
        stats["saving"] = round(stats["baseline_nodes"] / max(stats["candidate_nodes"], 1), 2)
    suite_savings = [stats["saving"] for stats in per_suite.values()]
    geomean = 1.0
    for ratio in suite_savings:
        geomean *= ratio
    geomean **= 1.0 / max(len(suite_savings), 1)
    pooled = totals[BASELINE_BOUND] / max(totals[CANDIDATE_BOUND], 1)
    return {
        "baseline_bound": BASELINE_BOUND,
        "candidate_bound": CANDIDATE_BOUND,
        "graphs": len(per_graph),
        "baseline_nodes": totals[BASELINE_BOUND],
        "candidate_nodes": totals[CANDIDATE_BOUND],
        "nodes_saving_factor": round(geomean, 2),
        "pooled_saving_factor": round(pooled, 2),
        "per_suite": per_suite,
        "parity": not parity_breaks,
        "parity_breaks": parity_breaks,
        "budget": BUDGET,
        "tight_budget": tight_budget,
        "budget_quality": not budget_losses,
        "budget_losses": budget_losses,
        "branches_pruned_by": dict(sorted(pruned_by_total.items())),
        "baseline_wall_seconds": round(walls[BASELINE_BOUND], 3),
        "candidate_wall_seconds": round(walls[CANDIDATE_BOUND], 3),
        "per_graph": per_graph,
    }


def check(result: dict[str, object]) -> list[str]:
    """The ``--check`` gate: parity + nodes saving + tight-budget quality."""
    failures = []
    if not result["parity"]:
        failures.append(
            "bounds changed the final decomposition (inadmissible pruning?) on: "
            + ", ".join(result["parity_breaks"])
        )
    if result["nodes_saving_factor"] < NODES_SAVING_FLOOR:
        per_suite = ", ".join(
            f"{suite} {stats['saving']:.2f}x" for suite, stats in result["per_suite"].items()
        )
        failures.append(
            f"nodes saving {result['nodes_saving_factor']:.2f}x (geomean over "
            f"suites: {per_suite}) below the {NODES_SAVING_FLOOR}x floor"
        )
    if not result["budget_quality"]:
        failures.append(
            f"tight budget ({result['tight_budget']} nodes) lost quality vs the "
            f"full budget ({result['budget']} nodes) on: "
            + "; ".join(result["budget_losses"])
        )
    return failures


def write_job_summary(result: dict[str, object]) -> None:
    """Append the savings table to the CI job summary, when in CI."""
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    lines = [
        "### Decomposition bounds: stacked exact bounds vs legacy coarse bound",
        "",
        "| suite | graphs | legacy nodes | stacked nodes | saving | legacy wall | stacked wall |",
        "|---|---|---|---|---|---|---|",
    ]
    for suite, stats in result["per_suite"].items():
        lines.append(
            f"| {suite} | {stats['graphs']} | {stats['baseline_nodes']} | "
            f"{stats['candidate_nodes']} | {stats['saving']:.2f}x | "
            f"{stats['baseline_wall_s']:.2f} s | {stats['candidate_wall_s']:.2f} s |"
        )
    lines += [
        f"| **all (geomean)** | {result['graphs']} | {result['baseline_nodes']} | "
        f"{result['candidate_nodes']} | **{result['nodes_saving_factor']:.2f}x** | "
        f"{result['baseline_wall_seconds']:.2f} s | {result['candidate_wall_seconds']:.2f} s |",
        "",
        "Parity (bit-identical decompositions): {parity}; tight-budget "
        "({tight} vs {full} nodes) quality: {quality}.".format(
            parity=result["parity"],
            tight=result["tight_budget"],
            full=result["budget"],
            quality=result["budget_quality"],
        ),
        "Prune provenance: "
        + ", ".join(
            f"{reason} {count}" for reason, count in result["branches_pruned_by"].items()
        ),
    ]
    with open(summary_path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--label", default="", help="trajectory entry label")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless decompositions are bit-identical, the "
        f"nodes saving reaches {NODES_SAVING_FLOOR}x, and the tight budget "
        "loses no quality",
    )
    parser.add_argument(
        "--no-write", action="store_true", help="measure and print only"
    )
    args = parser.parse_args(argv)

    result = run_benchmark()
    for suite, stats in result["per_suite"].items():
        print(
            f"{suite}: {stats['graphs']} graphs, nodes {stats['baseline_nodes']} -> "
            f"{stats['candidate_nodes']} ({stats['saving']:.2f}x), wall "
            f"{stats['baseline_wall_s']:.2f}s -> {stats['candidate_wall_s']:.2f}s"
        )
    print(
        f"saving: {result['nodes_saving_factor']:.2f}x fewer nodes (geomean over "
        f"suites; pooled {result['baseline_nodes']} -> {result['candidate_nodes']}, "
        f"{result['pooled_saving_factor']:.2f}x), parity={result['parity']}, "
        f"tight-budget quality={result['budget_quality']}"
    )
    print(
        f"walls: legacy {result['baseline_wall_seconds']:.3f}s, "
        f"stacked {result['candidate_wall_seconds']:.3f}s; prune provenance "
        + json.dumps(result["branches_pruned_by"])
    )
    if result["parity_breaks"]:
        print(f"parity breaks: {result['parity_breaks']}")
    if result["budget_losses"]:
        print(f"budget losses: {result['budget_losses']}")

    if not args.no_write:
        payload = {"entries": []}
        if args.output.exists():
            try:
                payload = json.loads(args.output.read_text(encoding="utf-8"))
            except json.JSONDecodeError:
                pass
        entry = {
            "label": args.label or "bounds vs legacy run",
            "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            **{key: value for key, value in result.items() if key != "per_graph"},
        }
        payload.setdefault("entries", []).append(entry)
        args.output.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"trajectory written to {args.output}")

    write_job_summary(result)

    failures = check(result) if args.check else []
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
