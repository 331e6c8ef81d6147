"""Striped sweep execution: every scenario grid runs through the batch engine.

:func:`~repro.analysis.parallel.sweep_parallel` hands its spec list to
:func:`batch_specs`, which routes it through
:func:`~repro.core.batch.run_batch`:

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
property suites assert this).  Traced specs (``trace_dir`` set) form
stripes of their own, which run each spec through
:meth:`~repro.analysis.parallel.ScenarioSpec.run` in the worker, so each
writes the JSONL trace the scalar path writes, at any worker count.  The
engine's amortisation counters are on each stripe's
:class:`~repro.core.batch.BatchResult`; the sweep returns points only.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from math import ceil
from typing import Any, Sequence

from repro.analysis.parallel import ScenarioSpec, default_workers, run_tasks
from repro.analysis.sweep import SweepPoint
from repro.core.batch import BatchCase, BatchOutcome, run_batch
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
    spec: ScenarioSpec,
    algorithm: AgreementAlgorithm,
    message_bound: int | None,
    outcome: BatchOutcome,
) -> SweepPoint:
    """Assemble the SweepPoint exactly as :func:`~repro.analysis.sweep.measure`
    would; *message_bound* is the algorithm's, evaluated once per stripe."""
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
        message_bound=message_bound,
        agreement_ok=outcome.agreement_ok,
    )


@dataclass(frozen=True, slots=True)
class BatchStripe:
    """One pool task: a slice of same-factory specs, all traced or none.

    An untraced stripe builds one algorithm and runs as a single batch; a
    traced stripe runs each spec on its own, writing its trace file.
    """

    specs: tuple[ScenarioSpec, ...]

    def run(self) -> list[SweepPoint]:
        if self.specs[0].trace_dir is not None:
            return [spec.run() for spec in self.specs]
        algorithm = self.specs[0].factory()
        result = run_batch(algorithm, [_spec_case(spec) for spec in self.specs])
        bound = algorithm.upper_bound_messages()
        return [
            _point(spec, algorithm, bound, outcome)
            for spec, outcome in zip(self.specs, result.outcomes)
        ]


def _group_key(spec: ScenarioSpec) -> Any:
    """Arena-sharing key: equal pickled factories share one batch, and
    traced specs never share a stripe with untraced ones."""
    try:
        factory: Any = pickle.dumps(spec.factory)
    except Exception:
        factory = ("unpicklable", id(spec.factory))
    return spec.trace_dir, factory


def _stripes(indices: Sequence[int], workers: int) -> list[list[int]]:
    """Split one group's spec indices into at most *workers* stripes."""
    target = max(1, min(workers, ceil(len(indices) / MIN_STRIPE)))
    size = ceil(len(indices) / target)
    return [list(indices[i : i + size]) for i in range(0, len(indices), size)]


def batch_specs(
    specs: Sequence[ScenarioSpec], *, workers: int | None = None
) -> list[SweepPoint]:
    """Execute *specs* through the batch engine, in spec order.

    Specs are grouped by factory (one arena per group), groups are split
    into worker stripes, and the stripes run on the self-healing pool.
    """
    specs = list(specs)
    workers = default_workers() if workers is None else max(1, workers)
    groups: dict[Any, list[int]] = {}
    for index, spec in enumerate(specs):
        groups.setdefault(_group_key(spec), []).append(index)

    stripe_indices = [
        stripe for indices in groups.values() for stripe in _stripes(indices, workers)
    ]
    outputs = run_tasks(
        [
            BatchStripe(specs=tuple(specs[index] for index in indices))
            for indices in stripe_indices
        ],
        workers=workers,
        chunk_size=1,
    )
    points: list[SweepPoint | None] = [None] * len(specs)
    for indices, stripe_points in zip(stripe_indices, outputs):
        for index, point in zip(indices, stripe_points):
            points[index] = point

    final = [point for point in points if point is not None]
    assert len(final) == len(specs), "every spec must produce a point"
    return final
