"""Sweeps, tables, and paper-vs-measured experiment reports."""

from repro.analysis.experiments import run_all_experiments
from repro.analysis.fitting import (
    LinearFit,
    PowerFit,
    crossover_point,
    fit_linear,
    fit_power,
    history_to_networkx,
)
from repro.analysis.export import (
    read_json,
    report_to_dict,
    run_to_dict,
    sweep_to_dicts,
    write_json,
)
from repro.analysis.parallel import (
    ScenarioSpec,
    default_workers,
    expand,
    run_tasks,
    sweep_parallel,
)
from repro.analysis.report import ExperimentRecord, ExperimentReport
from repro.analysis.search import ProbeResult, probe, worst_case_probe
from repro.analysis.sweep import SweepPoint, measure, worst_case
from repro.analysis.tables import format_markdown_table, format_table, ratio_series
from repro.analysis.trace import (
    phase_summary,
    processor_summary,
    render_trace,
    trace_lines,
)

__all__ = [
    "ExperimentRecord",
    "LinearFit",
    "PowerFit",
    "ProbeResult",
    "crossover_point",
    "fit_linear",
    "fit_power",
    "history_to_networkx",
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
    "phase_summary",
    "probe",
    "processor_summary",
    "ratio_series",
    "read_json",
    "render_trace",
    "report_to_dict",
    "run_all_experiments",
    "run_to_dict",
    "sweep_to_dicts",
    "trace_lines",
    "worst_case",
    "worst_case_probe",
    "write_json",
]
