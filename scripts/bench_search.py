#!/usr/bin/env python
"""Benchmark the multi-fidelity guided search against the exhaustive grid.

Runs the embedded benchmark suite (MPEG-4, VOPD, MWD, 263enc+mp3dec and
the AES case study) over a 162-design-point grid twice: once exhaustively
(every cell at full fidelity) and once through
:func:`repro.dse.search.run_search` (Pareto-aware successive halving over
the screen -> confirm -> full fidelity ladder).  It verifies that the
guided search reproduces the exhaustive per-scenario Pareto fronts
*exactly* (same cache keys, scenario by scenario), records how many
full-fidelity top-rung evaluations the ladder needed, and appends one
entry per invocation to ``BENCH_search.json`` so the savings trajectory
is tracked across PRs.

Usage::

    PYTHONPATH=src python scripts/bench_search.py                 # measure + record
    PYTHONPATH=src python scripts/bench_search.py --check         # CI gate
    PYTHONPATH=src python scripts/bench_search.py --margin 0.05   # margin knob

``--check`` exits non-zero unless the guided fronts match the exhaustive
fronts exactly on every scenario and the guided search performed at
least ``SAVING_FLOOR``x fewer top-rung evaluations than the grid.
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

from repro.dse import (  # noqa: E402
    SUITES,
    pareto_front,
    plan_sweep,
    run_cells,
)
from repro.dse.records import EvaluationRecord  # noqa: E402
from repro.dse.search import SearchConfig, run_search  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_search.json"

#: the benchmark grid: 54 settings per ACG scenario, 18 for AES (whose
#: scenario pins the matchings axis), 162 distinct design points total
BENCH_AXES: dict[str, tuple[object, ...]] = {
    "architecture": ("mesh", "custom"),
    "max_matchings_per_primitive": (1, 2, 3),
    "router_pipeline_delay_cycles": (1, 2, 4),
    "buffer_capacity_packets": (2, 4, 8),
}

#: the guided search must reach the top rung on at most 1/SAVING_FLOOR of
#: the grid's design points (measured 6.0x at the default margin; the
#: floor leaves room for ladder/scenario drift without letting the
#: headline claim regress below the issue's 5x bar)
SAVING_FLOOR = 5.0


def scenario_fronts(records: list[EvaluationRecord]) -> dict[str, set[str]]:
    """Per-scenario Pareto front membership, as full-fidelity cache keys."""
    by_scenario: dict[str, list[EvaluationRecord]] = {}
    for record in records:
        by_scenario.setdefault(record.scenario, []).append(record)
    return {
        scenario: {record.cache_key for record in pareto_front(group)}
        for scenario, group in by_scenario.items()
    }


def run_benchmark(margin: float, seed: int) -> dict[str, object]:
    """One exhaustive-vs-guided comparison on the embedded suite."""
    spec = SUITES.get("embedded")
    scenarios = spec.build()
    cells = plan_sweep(scenarios, spec.base_settings, BENCH_AXES)
    grid_cells = len({cell.key for cell in cells})

    start = time.perf_counter()
    exhaustive = run_cells(cells)
    exhaustive_wall = time.perf_counter() - start
    exhaustive_fronts = scenario_fronts(
        [record for record in exhaustive.records if record.succeeded]
    )

    config = SearchConfig(margin=margin, seed=seed)
    start = time.perf_counter()
    search = run_search(scenarios, spec.base_settings, BENCH_AXES, config=config)
    search_wall = time.perf_counter() - start
    guided_fronts = scenario_fronts(search.front_records())

    front_parity = guided_fronts == exhaustive_fronts
    mismatches = {}
    for scenario in sorted(set(exhaustive_fronts) | set(guided_fronts)):
        exhaustive_keys = exhaustive_fronts.get(scenario, set())
        guided_keys = guided_fronts.get(scenario, set())
        if exhaustive_keys != guided_keys:
            mismatches[scenario] = {
                "exhaustive_only": sorted(exhaustive_keys - guided_keys),
                "guided_only": sorted(guided_keys - exhaustive_keys),
            }

    return {
        "margin": margin,
        "seed": seed,
        "grid_cells": grid_cells,
        "ladder": [name for name, _ in search.rung_counts],
        "rung_design_points": {name: count for name, count in search.rung_counts},
        "top_rung_evaluations": search.top_rung_evaluations,
        "top_rung_saved": search.top_rung_saved,
        "saving_factor": round(search.saving_factor, 2),
        "front_parity": front_parity,
        "front_sizes": {
            scenario: len(keys) for scenario, keys in sorted(exhaustive_fronts.items())
        },
        "mismatches": mismatches,
        "exhaustive_wall_seconds": round(exhaustive_wall, 3),
        "search_wall_seconds": round(search_wall, 3),
        "failures": len(search.failed()),
    }


def check(result: dict[str, object]) -> list[str]:
    """The ``--check`` gate: exact front parity + >= SAVING_FLOOR x savings."""
    failures = []
    if not result["front_parity"]:
        failures.append(
            "guided fronts differ from the exhaustive fronts: "
            + json.dumps(result["mismatches"], sort_keys=True)
        )
    if result["saving_factor"] < SAVING_FLOOR:
        failures.append(
            f"saving factor {result['saving_factor']:.2f}x below the "
            f"{SAVING_FLOOR}x floor ({result['top_rung_evaluations']} top-rung "
            f"evaluations for {result['grid_cells']} grid cells)"
        )
    if result["failures"]:
        failures.append(f"{result['failures']} pipeline cell(s) failed")
    return failures


def write_job_summary(result: dict[str, object]) -> None:
    """Append the savings table to the CI job summary, when in CI."""
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    rungs = " -> ".join(
        f"{name} {count}" for name, count in result["rung_design_points"].items()
    )
    lines = [
        "### Guided search vs exhaustive grid (embedded suite)",
        "",
        "| grid cells | rung ladder | top-rung evals | saved | saving | "
        "front parity |",
        "|---|---|---|---|---|---|",
        "| {grid} | {rungs} | {top} | {saved} | {factor:.2f}x | {parity} |".format(
            grid=result["grid_cells"],
            rungs=rungs,
            top=result["top_rung_evaluations"],
            saved=result["top_rung_saved"],
            factor=result["saving_factor"],
            parity=result["front_parity"],
        ),
        "",
        "Walls: exhaustive {exhaustive:.3f}s, guided {guided:.3f}s "
        "(margin {margin}, seed {seed}).".format(
            exhaustive=result["exhaustive_wall_seconds"],
            guided=result["search_wall_seconds"],
            margin=result["margin"],
            seed=result["seed"],
        ),
    ]
    with open(summary_path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--margin", type=float, default=0.10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--label", default="", help="trajectory entry label")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the guided fronts match the exhaustive "
        f"fronts exactly and savings reach {SAVING_FLOOR}x",
    )
    parser.add_argument(
        "--no-write", action="store_true", help="measure and print only"
    )
    args = parser.parse_args(argv)

    result = run_benchmark(args.margin, args.seed)
    rungs = " -> ".join(
        f"{name} {count}" for name, count in result["rung_design_points"].items()
    )
    print(
        f"grid {result['grid_cells']} design points; ladder {rungs}; "
        f"top-rung evaluations {result['top_rung_evaluations']} "
        f"({result['saving_factor']:.2f}x fewer, {result['top_rung_saved']} saved)"
    )
    print(
        f"front parity: {result['front_parity']} "
        f"(per-scenario front sizes {result['front_sizes']})"
    )
    print(
        f"walls: exhaustive {result['exhaustive_wall_seconds']:.3f}s, "
        f"guided {result['search_wall_seconds']:.3f}s"
    )
    if result["mismatches"]:
        print(f"mismatches: {json.dumps(result['mismatches'], sort_keys=True)}")

    if not args.no_write:
        payload = {"entries": []}
        if args.output.exists():
            try:
                payload = json.loads(args.output.read_text(encoding="utf-8"))
            except json.JSONDecodeError:
                pass
        entry = {
            "label": args.label or "embedded grid run",
            "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            **result,
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
