"""Sweeps, tables, and paper-vs-measured experiment reports."""

from repro.analysis.experiments import run_all_experiments
from repro.analysis.parallel import (
    ScenarioSpec,
    default_workers,
    expand,
    run_tasks,
    sweep_parallel,
)
from repro.analysis.report import ExperimentRecord, ExperimentReport
from repro.analysis.search import probe, worst_case_probe
from repro.analysis.sweep import SweepPoint, measure, worst_case
from repro.analysis.tables import format_markdown_table, format_table
from repro.analysis.trace import render_trace, trace_lines

__all__ = [
    "ExperimentRecord",
    "ExperimentReport",
    "ScenarioSpec",
    "SweepPoint",
    "default_workers",
    "expand",
    "run_tasks",
    "sweep_parallel",
    "format_markdown_table",
    "format_table",
    "measure",
    "probe",
    "render_trace",
    "run_all_experiments",
    "trace_lines",
    "worst_case",
    "worst_case_probe",
]
