"""Shared helpers for the experiment benchmarks.

Every ``benchmarks/test_eN_*.py`` regenerates one of the paper's results:
it sweeps the relevant parameters, prints the measured table next to the
paper's closed-form bound, and asserts that the claim's *shape* holds
(counts within bounds, ratios bounded, attacks succeeding/failing as the
theorems predict).

The benchmark fixture times a single representative execution per
experiment (``pedantic(rounds=1)``): these are worst-case-count
experiments, not throughput experiments, so one timed round is enough and
keeps ``pytest benchmarks/ --benchmark-only`` fast.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from repro.analysis.parallel import (
    FAULT_FREE,
    AdversaryFactory,
    AlgorithmFactory,
    sweep_parallel,
)
from repro.analysis.sweep import SweepPoint
from repro.analysis.tables import format_table


def run_once(benchmark, workload: Callable[[], object]) -> object:
    """Execute *workload* exactly once under the benchmark timer."""
    return benchmark.pedantic(workload, rounds=1, iterations=1)


def grid_points(
    configurations: Iterable[tuple[Mapping[str, object], AlgorithmFactory]],
    values: Iterable[object] = (1,),
    adversaries: Iterable[tuple[str, AdversaryFactory | None]] = FAULT_FREE,
    *,
    workers: int | None = None,
) -> list[SweepPoint]:
    """Run one experiment grid through the parallel sweep executor.

    The point stream is identical for any worker count (see
    ``tests/analysis/test_parallel.py``); *workers* defaults to
    ``$REPRO_SWEEP_WORKERS`` or the CPU count, so the full-resolution
    benchmarks use every core available.
    """
    return sweep_parallel(configurations, values, adversaries, workers=workers)


def show(title: str, rows: Sequence[dict], columns: Sequence[str] | None = None) -> None:
    """Print one experiment table (visible with ``pytest -s`` and in the
    captured output of failing runs)."""
    print()
    print(format_table(rows, columns, title=title))
