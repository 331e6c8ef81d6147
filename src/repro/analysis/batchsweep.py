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
property suites assert this).  A traced spec (``trace_dir`` set) is one
more case of its stripe's batch, carrying the path of its trace file:
it runs with the stripe's digest table and an interned signature
service, so its trace records the work the untraced sweep does.  The
engine's amortisation counters are on each stripe's
:class:`~repro.core.batch.BatchResult`; the sweep returns points only.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from math import ceil
from pathlib import Path
from typing import Any, Sequence

from repro.analysis.parallel import ScenarioSpec, default_workers, run_tasks
from repro.analysis.sweep import SweepPoint, sweep_points
from repro.core.batch import BatchCase, run_batch
from repro.core.protocol import AgreementAlgorithm

#: Below this many specs a group is not worth splitting across workers —
#: smaller stripes would shrink each stripe's dedup/digest-sharing scope.
MIN_STRIPE = 64


def _spec_case(spec: ScenarioSpec, algorithm: AgreementAlgorithm) -> BatchCase:
    """The batch case of one scenario spec; a traced spec's case names its
    trace file, whose directory is created here."""
    trace = None
    if spec.trace_dir is not None:
        directory = Path(spec.trace_dir)
        directory.mkdir(parents=True, exist_ok=True)
        trace = str(directory / spec.trace_file_name(algorithm))
    return BatchCase(
        value=spec.value,
        adversary_name=spec.adversary_name,
        adversary_factory=spec.adversary_factory,
        trace=trace,
    )


@dataclass(frozen=True, slots=True)
class BatchStripe:
    """One pool task: a slice of same-factory specs, run as one batch on
    one algorithm instance."""

    specs: tuple[ScenarioSpec, ...]

    def run(self) -> list[SweepPoint]:
        algorithm = self.specs[0].factory()
        cases = [_spec_case(spec, algorithm) for spec in self.specs]
        result = run_batch(algorithm, cases)
        return sweep_points(algorithm, cases, [spec.params for spec in self.specs], result)


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
