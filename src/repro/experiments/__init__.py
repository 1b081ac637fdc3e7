"""Experiment harness regenerating every table and figure of the paper.

The sweep engine itself lives in :mod:`repro.api` (``Study``/``ResultSet``);
this package hosts the figure drivers, the aggregation helpers and the
experiment scaling knobs.
"""

from ..api.results import ResultSet, RunRecord
from .aggregate import (
    CategoryPick,
    best_variant_per_category,
    best_variant_series,
    group_by_capacity_and_heuristic,
    summaries_by_capacity,
)
from .config import PAPER_CAPACITY_FACTORS, ExperimentConfig, scaled_config
from .figures import (
    ALL_FIGURES,
    FigureResult,
    figure04_static_examples,
    figure05_dynamic_examples,
    figure06_corrected_examples,
    figure07_milp_comparison,
    figure08_workload_characteristics,
    figure09_hf_heuristics,
    figure10_hf_best_variants,
    figure11_ccsd_heuristics,
    figure12_ccsd_best_variants,
    figure13_batches,
    table02_proposition1,
    table06_favorable_situations,
)

__all__ = [
    "ALL_FIGURES",
    "CategoryPick",
    "ExperimentConfig",
    "FigureResult",
    "PAPER_CAPACITY_FACTORS",
    "ResultSet",
    "RunRecord",
    "best_variant_per_category",
    "best_variant_series",
    "figure04_static_examples",
    "figure05_dynamic_examples",
    "figure06_corrected_examples",
    "figure07_milp_comparison",
    "figure08_workload_characteristics",
    "figure09_hf_heuristics",
    "figure10_hf_best_variants",
    "figure11_ccsd_heuristics",
    "figure12_ccsd_best_variants",
    "figure13_batches",
    "group_by_capacity_and_heuristic",
    "scaled_config",
    "summaries_by_capacity",
    "table02_proposition1",
    "table06_favorable_situations",
]
