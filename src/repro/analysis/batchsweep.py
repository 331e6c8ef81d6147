"""Batched sweep execution: scenario grids through the batch engine.

:func:`~repro.analysis.parallel.sweep_parallel` amortises nothing — every
:class:`~repro.analysis.sweep.SweepPoint` pays algorithm construction,
digest computation and a full scalar run, even when thousands of grid
points differ only in their seed or repeat index.  This module routes a
spec list through :func:`~repro.core.batch.run_batch` instead:

* specs are **grouped by factory** (equal pickled factories share one
  arena — one algorithm instance, one shared digest table, one run-class
  dedup space);
* each group is split into **stripes** that the self-healing
  :func:`~repro.analysis.parallel.run_tasks` pool executes as single
  tasks, so one worker runs a whole sub-batch instead of pickling
  per-scenario results back one by one.

The output is element-wise equal to ``[spec.run() for spec in specs]`` in
the same order, verdicts included: the engine judges each run by its
family's conditions, as :func:`~repro.analysis.sweep.measure` does (the
property suites assert this).  Traced specs (``trace_dir`` set) keep the
scalar path so their per-run JSONL files come out byte-identical.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from math import ceil
from typing import Any, Sequence

from repro.analysis.parallel import ScenarioSpec, default_workers, run_tasks
from repro.analysis.sweep import SweepPoint
from repro.core.batch import BatchCase, BatchOutcome, BatchStats, run_batch
from repro.core.protocol import AgreementAlgorithm

#: Below this many specs a group is not worth splitting across workers —
#: smaller stripes would shrink each stripe's dedup/digest-sharing scope.
MIN_STRIPE = 64


def _spec_case(spec: ScenarioSpec) -> BatchCase:
    """The batch case of one (untraced) scenario spec."""
    return BatchCase(
        value=spec.value,
        adversary_name=spec.adversary_name,
        adversary_factory=spec.adversary_factory,
    )


def _point(
    spec: ScenarioSpec, algorithm: AgreementAlgorithm, outcome: BatchOutcome
) -> SweepPoint:
    """Assemble the SweepPoint exactly as :func:`~repro.analysis.sweep.measure` would."""
    return SweepPoint(
        algorithm=algorithm.name,
        n=algorithm.n,
        t=algorithm.t,
        params=spec.params,
        adversary=spec.adversary_name,
        value=spec.value,
        messages=outcome.messages_by_correct,
        signatures=outcome.signatures_by_correct,
        phases_used=outcome.phases_used,
        phases_configured=algorithm.num_phases(),
        message_bound=algorithm.upper_bound_messages(),
        agreement_ok=outcome.agreement_ok,
    )


@dataclass(frozen=True, slots=True)
class BatchStripe:
    """One pool task: a slice of same-factory specs run as a single batch."""

    specs: tuple[ScenarioSpec, ...]
    strict: bool = False

    def run(self) -> tuple[list[SweepPoint], dict[str, Any]]:
        algorithm = self.specs[0].factory()
        result = run_batch(
            algorithm,
            [_spec_case(spec) for spec in self.specs],
            strict=self.strict,
        )
        points = [
            _point(spec, algorithm, outcome)
            for spec, outcome in zip(self.specs, result.outcomes)
        ]
        return points, result.stats.to_json_dict()


@dataclass(slots=True)
class BatchSweepResult:
    """The point stream plus the aggregated amortisation stats."""

    points: list[SweepPoint] = field(default_factory=list)
    stats: BatchStats = field(default_factory=BatchStats)


def _merge_stats(total: BatchStats, part: dict[str, Any]) -> None:
    for name in (
        "runs",
        "unique_runs",
        "replicated_runs",
        "kernel_runs",
        "scalar_runs",
        "digest_hits",
        "digest_misses",
    ):
        setattr(total, name, getattr(total, name) + int(part[name]))


def _group_key(spec: ScenarioSpec) -> Any:
    """Arena-sharing key: equal pickled factories share one batch."""
    try:
        return pickle.dumps(spec.factory)
    except Exception:
        return ("unpicklable", id(spec.factory))


def _stripes(indices: Sequence[int], workers: int) -> list[list[int]]:
    """Split one group's spec indices into at most *workers* stripes."""
    target = max(1, min(workers, ceil(len(indices) / MIN_STRIPE)))
    size = ceil(len(indices) / target)
    return [list(indices[i : i + size]) for i in range(0, len(indices), size)]


def batch_specs(
    specs: Sequence[ScenarioSpec],
    *,
    workers: int | None = None,
    strict: bool = False,
    task_timeout: float | None = None,
    max_retries: int = 2,
) -> BatchSweepResult:
    """Execute *specs* through the batch engine, in spec order.

    Specs are grouped by factory (one arena per group), groups are split
    into worker stripes, and the stripes run on the self-healing pool.
    *strict* forwards to :func:`~repro.core.batch.run_batch` (every unique
    run re-checked against the scalar runner).  Traced specs always take
    the scalar path so their JSONL trace files are produced exactly as the
    scalar sweep would.
    """
    specs = list(specs)
    workers = default_workers() if workers is None else max(1, workers)
    points: list[SweepPoint | None] = [None] * len(specs)
    stats = BatchStats()

    groups: dict[Any, list[int]] = {}
    for index, spec in enumerate(specs):
        if spec.trace_dir is None:
            groups.setdefault(_group_key(spec), []).append(index)
        else:
            points[index] = spec.run()
            stats.runs += 1
            stats.unique_runs += 1
            stats.scalar_runs += 1

    stripe_indices: list[list[int]] = []
    for indices in groups.values():
        stripe_indices.extend(_stripes(indices, workers))
    outputs = run_tasks(
        [
            BatchStripe(specs=tuple(specs[index] for index in indices), strict=strict)
            for indices in stripe_indices
        ],
        workers=workers,
        chunk_size=1,
        task_timeout=task_timeout,
        max_retries=max_retries,
    )
    for indices, (stripe_points, stripe_stats) in zip(stripe_indices, outputs):
        _merge_stats(stats, stripe_stats)
        for index, point in zip(indices, stripe_points):
            points[index] = point

    final = [point for point in points if point is not None]
    assert len(final) == len(specs), "every spec must produce a point"
    return BatchSweepResult(points=final, stats=stats)
