"""Experiment drivers: one module per figure/table of the paper's evaluation,
plus the ablations called out in DESIGN.md."""

from repro.experiments.ablation import (
    AblationResult,
    run_library_ablation,
    run_strategy_ablation,
    standard_ablation_acgs,
)
from repro.experiments.aes_experiment import (
    PAPER_AES_COST,
    PAPER_AES_PRIMITIVES,
    AesSynthesisResult,
    run_aes_synthesis,
)
from repro.experiments.comparison import (
    PAPER_RESULTS,
    ArchitectureMetrics,
    PrototypeComparison,
    evaluate_custom,
    evaluate_fabric,
    export_comparison_topologies,
    run_prototype_comparison,
)
from repro.experiments.example_decomposition import (
    EXPECTED_PRIMITIVE_COUNTS,
    Figure5Result,
    run_figure5_example,
)
from repro.experiments.reporting import (
    format_series,
    format_table,
    improvement_factor,
    percentage_change,
    rows_to_csv,
)
from repro.experiments.runtime_sweep import (
    RuntimePoint,
    RuntimeSweepResult,
    run_pajek_runtime_sweep,
    run_tgff_runtime_sweep,
)

__all__ = [
    "run_tgff_runtime_sweep",
    "run_pajek_runtime_sweep",
    "RuntimePoint",
    "RuntimeSweepResult",
    "run_figure5_example",
    "Figure5Result",
    "EXPECTED_PRIMITIVE_COUNTS",
    "run_aes_synthesis",
    "AesSynthesisResult",
    "PAPER_AES_COST",
    "PAPER_AES_PRIMITIVES",
    "run_prototype_comparison",
    "export_comparison_topologies",
    "evaluate_fabric",
    "evaluate_custom",
    "PrototypeComparison",
    "ArchitectureMetrics",
    "PAPER_RESULTS",
    "run_strategy_ablation",
    "run_library_ablation",
    "standard_ablation_acgs",
    "AblationResult",
    "format_table",
    "format_series",
    "rows_to_csv",
    "percentage_change",
    "improvement_factor",
]
