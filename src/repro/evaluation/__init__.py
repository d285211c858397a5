"""Evaluation harness: metrics, Table 3 configurations, LoC counting and
experiment drivers for every table and figure of the paper's evaluation.

Experiment index (the drivers iterate ``applications.APPLICATIONS``, Table 2 as data):

* Figure 5 — :func:`repro.evaluation.experiments.fig5_performance`
* Figure 6 — :func:`repro.evaluation.experiments.fig6_accelerators`
* Figure 7 / Table 3 — :func:`repro.evaluation.experiments.fig7_optimizations`
* Table 2 — :func:`repro.evaluation.experiments.table2_applications`
* Table 4 — :func:`repro.evaluation.experiments.table4_loc`
"""

from repro.evaluation.configs import OptimizationSetting, table3_settings
from repro.evaluation.metrics import geomean, relative_speedup
from repro.evaluation.loc import count_lines_of_code, table4_rows
from repro.evaluation.experiments import (
    EvaluationScale,
    fig5_performance,
    fig6_accelerators,
    fig7_optimizations,
    table2_applications,
    table4_loc,
)

__all__ = [
    "OptimizationSetting",
    "table3_settings",
    "geomean",
    "relative_speedup",
    "count_lines_of_code",
    "table4_rows",
    "EvaluationScale",
    "fig5_performance",
    "fig6_accelerators",
    "fig7_optimizations",
    "table2_applications",
    "table4_loc",
]
