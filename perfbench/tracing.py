"""Per-layer tracing of the program from outside it.

:func:`install` wraps public entry points at the names their callers look
up, so no source module changes:

* crypto: ``payload_digest`` as :mod:`repro.crypto.signatures` sees it,
  ``SignatureService.sign`` / ``.verify`` and ``SignatureChain.verify``;
* runner: ``run`` as :mod:`repro.analysis.sweep`, :mod:`repro.core.batch`
  and :mod:`repro.service.scheduler` (``run_algorithm``) call it, and the
  ledger's ``repro.core.metrics.count_signatures``;
* transport: ``deliver`` of ``LockstepTransport`` and ``FaultyTransport``
  (a call nested in another ``deliver`` is not counted again);
* batch: ``run_batch`` as the scheduler imports it;
* pool: ``run_tasks`` as the scheduler and ``run_specs`` look it up;
* service and tasks: ``ServiceStripe.run``, ``ScenarioSpec.run`` and
  ``Scheduler.serve``.

Every wrapper records a span: the time of the call and the part of it spent
in spans of *other* layers, so a layer's self time is its time minus its
nested layer spans.  Spans are folded into per-process totals on the spot.
The wrappers are installed before the pool forks, so the workers inherit
them; a fork hook clears the inherited totals, and each worker appends its
totals and the task's interval to ``<directory>/<pid>.jsonl`` after every
task.  After each ``run_tasks`` call the parent merges those lines, which
also gives the task intervals the pool metrics are computed from.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

__all__ = ["install", "derive"]


class _Frame:
    __slots__ = ("key", "layer", "nested_s")

    def __init__(self, key: str, layer: str) -> None:
        self.key = key
        self.layer = layer
        #: Time spent in directly nested spans of other layers.
        self.nested_s = 0.0


class Tracer:
    """Span stack and running totals of one process."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.owner = os.getpid()
        self.stack: list[_Frame] = []
        self.totals: defaultdict[str, float] = defaultdict(float)
        #: Task intervals ``(start, end)`` run in the owner process.
        self.local_tasks: list[tuple[float, float]] = []
        self.offsets: dict[Path, int] = {}
        self.queue_waits: list[float] = []

    def after_fork(self) -> None:
        """In a pool worker: forget the totals inherited from the parent."""
        self.stack = []
        self.totals = defaultdict(float)
        self.local_tasks = []
        self.queue_waits = []

    # ----------------------------------------------------------------- spans

    def span(self, key: str, layer: str, original: Callable, args, kwargs, after=None):
        stack = self.stack
        if stack and stack[-1].key == key:
            return original(*args, **kwargs)
        frame = _Frame(key, layer)
        stack.append(frame)
        started = perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            elapsed = perf_counter() - started
            stack.pop()
            if stack:
                parent = stack[-1]
                parent.nested_s += frame.nested_s if parent.layer == layer else elapsed
            totals = self.totals
            totals[key + ".calls"] += 1
            totals[key + ".s"] += elapsed
            totals[key + ".self_s"] += elapsed - frame.nested_s
        if after is not None:
            after(self, result, args, kwargs, elapsed, started)
        return result

    # ------------------------------------------------------------ tasks/pool

    def task_done(self, started: float, ended: float) -> None:
        """Record one task execution; a worker ships its totals with it."""
        if os.getpid() == self.owner:
            self.local_tasks.append((started, ended))
            return
        line = json.dumps({"task": [started, ended], "totals": self.totals})
        with open(self.directory / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        self.totals = defaultdict(float)

    def harvest(self) -> list[tuple[float, float]]:
        """Merge worker lines written since the last harvest."""
        intervals: list[tuple[float, float]] = []
        for path in sorted(self.directory.glob("*.jsonl")):
            offset = self.offsets.get(path, 0)
            with open(path, encoding="utf-8") as handle:
                handle.seek(offset)
                text = handle.read()
            complete = text[: text.rfind("\n") + 1]
            self.offsets[path] = offset + len(complete.encode("utf-8"))
            for line in complete.splitlines():
                record = json.loads(line)
                intervals.append(tuple(record["task"]))
                for key, value in record["totals"].items():
                    self.totals[key] += value
        return intervals

    def pool_call(self, tasks: int, workers: int, wall: tuple[float, float], mark: int) -> None:
        remote = self.harvest()
        local = self.local_tasks[mark:]
        intervals = remote + local
        start, end = wall
        totals = self.totals
        totals["pool.tasks"] += tasks
        totals["pool.serial_calls"] += 1 if not remote else 0
        totals["pool.task_s"] += sum(e - s for s, e in intervals)
        totals["pool.overhead_s"] += (end - start) - _union(intervals, start, end)
        totals["pool.capacity_s"] += (end - start) * max(1, min(workers, tasks))
        totals["pool.retries"] += len(intervals) - tasks

    def collect(self) -> dict[str, float]:
        """This rep's raw totals (the parent derives the metrics)."""
        self.harvest()
        raw = dict(self.totals)
        if self.queue_waits:
            raw["service.queue_p50_s"] = _nearest_rank(self.queue_waits, 0.50)
            raw["service.queue_p99_s"] = _nearest_rank(self.queue_waits, 0.99)
        return raw


def _union(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of *intervals* clipped to ``[start, end]``."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def _nearest_rank(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(len(ordered) * q - 1e-9)) - 1]


# ------------------------------------------------------------------- hooks


def _after_run(tracer: Tracer, result, args, kwargs, elapsed: float, started: float) -> None:
    totals = tracer.totals
    totals["runner.messages"] += result.metrics.total_messages
    totals["transport.fault_events"] += len(result.fault_events)
    if kwargs.get("collect_telemetry"):
        totals["runner.telemetry_runs"] += 1
        totals["runner.telemetry_s"] += elapsed


def _after_batch(tracer: Tracer, result, args, kwargs, elapsed: float, started: float) -> None:
    stats = result.stats
    totals = tracer.totals
    totals["batch.cases"] += stats.runs
    totals["batch.unique_runs"] += stats.unique_runs
    totals["batch.kernel_runs"] += stats.kernel_runs
    totals["batch.scalar_runs"] += stats.scalar_runs


def _after_task(tracer: Tracer, result, args, kwargs, elapsed: float, started: float) -> None:
    tracer.task_done(started, started + elapsed)


def _after_serve(tracer: Tracer, report, args, kwargs, elapsed: float, started: float) -> None:
    stats = report.stats
    totals = tracer.totals
    scheduled = args[1]
    last_arrival = max((item.arrival_s for item in scheduled), default=0.0)
    totals["service.waves"] += stats.waves
    totals["service.requests"] += stats.requests
    totals["service.unique_runs"] += stats.unique_runs
    totals["service.setup_hits"] += stats.setup_hits
    totals["service.setup_misses"] += stats.setup_misses
    totals["crypto.table_hits"] += stats.digest_hits
    totals["crypto.table_misses"] += stats.digest_misses
    totals["service.drain_s"] += max(0.0, elapsed - last_arrival)
    tracer.queue_waits.extend(outcome.queue_wait_s for outcome in report.outcomes)


def install(directory: str) -> Tracer:
    """Wrap the entry points listed in the module docstring; return the
    tracer whose :meth:`Tracer.collect` reads the totals."""
    import repro.analysis.parallel as parallel
    import repro.core.batch as batch
    import repro.core.metrics as metrics
    import repro.crypto.signatures as signatures
    import repro.service.scheduler as scheduler
    from repro.analysis.parallel import ScenarioSpec, default_workers
    from repro.crypto.chains import SignatureChain
    from repro.transport.base import LockstepTransport
    from repro.transport.faulty import FaultyTransport

    # ``repro.analysis`` re-exports a function named ``sweep``, which
    # shadows the submodule as an attribute of the package.
    sweep_module = sys.modules["repro.analysis.sweep"]

    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(path)
    os.register_at_fork(after_in_child=tracer.after_fork)

    def wrap(owner: Any, attr: str, key: str, layer: str, after=None) -> None:
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return tracer.span(key, layer, original, args, kwargs, after)

        setattr(owner, attr, wrapper)

    wrap(signatures, "payload_digest", "crypto.digest", "crypto")
    wrap(signatures.SignatureService, "sign", "crypto.sign", "crypto")
    wrap(signatures.SignatureService, "verify", "crypto.verify", "crypto")
    wrap(SignatureChain, "verify", "crypto.chain_verify", "crypto")
    wrap(metrics, "count_signatures", "runner.ledger", "runner")
    for module, attr in ((sweep_module, "run"), (batch, "run"), (scheduler, "run_algorithm")):
        wrap(module, attr, "runner.run", "runner", _after_run)
    wrap(LockstepTransport, "deliver", "transport.deliver", "transport")
    wrap(FaultyTransport, "deliver", "transport.deliver", "transport")
    wrap(scheduler, "run_batch", "batch.run_batch", "batch", _after_batch)
    wrap(ScenarioSpec, "run", "task.scenario", "task", _after_task)
    wrap(scheduler.ServiceStripe, "run", "service.stripe", "service", _after_task)
    wrap(scheduler.Scheduler, "serve", "service.serve", "service", _after_serve)

    for module in (parallel, scheduler):
        original = module.run_tasks

        def run_tasks(tasks, *args, _original=original, **kwargs):
            tasks = list(tasks)
            workers = kwargs.get("workers") or default_workers()
            mark = len(tracer.local_tasks)
            started = perf_counter()
            result = tracer.span("pool.run_tasks", "pool", _original, (tasks, *args), kwargs)
            ended = perf_counter()
            tracer.pool_call(len(tasks), workers, (started, ended), mark)
            return result

        module.run_tasks = run_tasks
    return tracer


# ------------------------------------------------------------------ metrics

#: The call count that shows whether a layer was reached at all.
LAYER_CALLS = {
    "crypto": "crypto.digest.calls",
    "runner": "runner.run.calls",
    "transport": "transport.deliver.calls",
    "batch": "batch.run_batch.calls",
    "pool": "pool.run_tasks.calls",
    "service": "service.serve.calls",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(raws: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the raw totals of the traced reps.

    Counts and times are means per rep; ratios come from the summed
    totals; queue percentiles are the median over reps.  Returns the
    metrics and the layers that were never called (their metrics read 0).
    """
    reps = max(1, len(raws))
    total: defaultdict[str, float] = defaultdict(float)
    for raw in raws:
        for key, value in raw.items():
            total[key] += value

    def mean(key: str) -> float:
        return total[key] / reps

    def median(key: str) -> float:
        values = sorted(raw.get(key, 0.0) for raw in raws)
        return values[len(values) // 2] if values else 0.0

    runs = total["runner.run.calls"]
    metrics = {
        "crypto.digest_calls": mean("crypto.digest.calls"),
        "crypto.digest_s": mean("crypto.digest.s"),
        "crypto.sign_calls": mean("crypto.sign.calls"),
        "crypto.verify_calls": mean("crypto.verify.calls"),
        "crypto.chain_verify_calls": mean("crypto.chain_verify.calls"),
        "crypto.chain_verify_s": mean("crypto.chain_verify.s"),
        "crypto.table_hit_rate": _ratio(
            total["crypto.table_hits"], total["crypto.table_hits"] + total["crypto.table_misses"]
        ),
        "runner.runs": mean("runner.run.calls"),
        "runner.busy_s": mean("runner.run.s"),
        "runner.self_s": mean("runner.run.self_s"),
        "runner.ledger_s": mean("runner.ledger.s"),
        "runner.messages": mean("runner.messages"),
        "runner.useful_frac": _ratio(runs - total["runner.telemetry_runs"], runs),
        "transport.deliver_calls": mean("transport.deliver.calls"),
        "transport.deliver_s": mean("transport.deliver.s"),
        "transport.fault_events": mean("transport.fault_events"),
        "batch.calls": mean("batch.run_batch.calls"),
        "batch.busy_s": mean("batch.run_batch.s"),
        "batch.self_s": mean("batch.run_batch.self_s"),
        "batch.cases": mean("batch.cases"),
        "batch.unique_runs": mean("batch.unique_runs"),
        "batch.kernel_runs": mean("batch.kernel_runs"),
        "batch.scalar_runs": mean("batch.scalar_runs"),
        "batch.dedup_ratio": _ratio(total["batch.cases"], total["batch.unique_runs"]),
        "pool.calls": mean("pool.run_tasks.calls"),
        "pool.serial_calls": mean("pool.serial_calls"),
        "pool.tasks": mean("pool.tasks"),
        "pool.wall_s": mean("pool.run_tasks.s"),
        "pool.task_s": mean("pool.task_s"),
        "pool.overhead_s": mean("pool.overhead_s"),
        "pool.utilization": _ratio(total["pool.task_s"], total["pool.capacity_s"]),
        "pool.retries": mean("pool.retries"),
        "service.waves": mean("service.waves"),
        "service.stripes": mean("service.stripe.calls"),
        "service.requests_per_wave": _ratio(total["service.requests"], total["service.waves"]),
        "service.stripe_s": mean("service.stripe.s"),
        "service.queue_p50_s": median("service.queue_p50_s"),
        "service.queue_p99_s": median("service.queue_p99_s"),
        "service.telemetry_runs": mean("runner.telemetry_runs"),
        "service.telemetry_s": mean("runner.telemetry_s"),
        "service.setup_hit_rate": _ratio(
            total["service.setup_hits"], total["service.setup_hits"] + total["service.setup_misses"]
        ),
        "service.dedup_ratio": _ratio(total["service.requests"], total["service.unique_runs"]),
        "service.drain_s": mean("service.drain_s"),
    }
    never = [layer for layer, key in LAYER_CALLS.items() if not total[key]]
    return metrics, never
