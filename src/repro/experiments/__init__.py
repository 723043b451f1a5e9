"""Experiment harness: method registry, sweep runner, per-figure configs."""

from repro.experiments.methods import DISTRIBUTION_METRICS, METHOD_REGISTRY
from repro.experiments.plans import (
    report_errors,
    run_plan_trial,
    table2_plan,
)
from repro.experiments.reporting import format_series_table, group_rows, rows_to_csv
from repro.experiments.runner import ResultRow, SweepConfig, evaluate_histogram, run_sweep

__all__ = [
    "table2_plan",
    "run_plan_trial",
    "report_errors",
    "METHOD_REGISTRY",
    "DISTRIBUTION_METRICS",
    "SweepConfig",
    "ResultRow",
    "run_sweep",
    "evaluate_histogram",
    "format_series_table",
    "rows_to_csv",
    "group_rows",
]
