"""The agreement scheduler: many concurrent instances, one worker pool.

``Scheduler.serve`` takes an open-loop arrival schedule of
:class:`~repro.service.request.AgreementRequest`\\ s and multiplexes them
over the self-healing :func:`~repro.analysis.parallel.run_tasks` pool in
**waves**:

1. wait until at least one scheduled arrival is due (arrivals happen on
   the wall clock, independent of service progress — open loop);
2. take everything that has arrived, shard it by
   :meth:`~repro.service.request.AgreementRequest.config_key` into
   :class:`ServiceStripe` tasks (at most ``max_stripe`` requests each);
3. dispatch the stripes across the pool, harvest, and stamp every
   request in the wave with the wave's dispatch/harvest times.

Inside a stripe every request rides :func:`repro.core.batch.run_batch`:

* **setup cache** — the per-worker :func:`~repro.service.cache.worker_cache`
  hands every stripe of a configuration the same arena and
  :class:`~repro.crypto.signatures.SharedDigestTable`; workers live as
  long as the scheduler, so signature setup amortises across requests,
  waves and ``serve`` calls;
* **run-class dedup + kernels** — requests with equal
  ``(value, fault plan, coin seed)`` share one execution (or one row of a
  vectorised kernel), so a thousand identical requests cost one run;
* **one verdict** — the engine judges each run with
  :func:`repro.approx.validation.judge_run`, excusing the processors an
  injected fault touched; a request's ``kind`` is the verdict class, and
  only ``safety``, ``eps_violation`` and ``bound`` fail it.

Verdicts are deterministic in the request content (never in timing), so
the same schedule produces the same verdict multiset for any worker
count — the property ``make serve-smoke`` pins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.analysis.parallel import WorkerPool, default_workers, run_tasks
from repro.approx.coins import coins_for
from repro.core.batch import BatchCase, BatchOutcome, run_batch
from repro.core.runner import run as run_algorithm
from repro.core.types import Value
from repro.service.cache import worker_cache
from repro.service.request import AgreementRequest, RequestOutcome, ScheduledRequest
from repro.service.stats import ServiceStats, build_stats

__all__ = ["ServiceStripe", "StripeResult", "Scheduler", "ServiceReport"]


@dataclass(slots=True)
class StripeResult:
    """Everything one executed stripe reports back to the scheduler."""

    #: One outcome per case, in case order; the scheduler stamps the times.
    outcomes: list[RequestOutcome] = field(default_factory=list)
    wall_s: float = 0.0
    unique_runs: int = 0
    replicated_runs: int = 0
    kernel_runs: int = 0
    scalar_runs: int = 0
    digest_hits: int = 0
    digest_misses: int = 0
    setup_hits: int = 0
    setup_misses: int = 0
    #: Sampled per-phase wall seconds: ``(phase, seconds)`` pairs from
    #: instrumented representative runs (the per-phase percentile source).
    phase_samples: tuple[tuple[int, float], ...] = ()


def _decided(outcome: BatchOutcome) -> tuple[Any, ...]:
    """The distinct values the unexcused processors decided, repr-sorted."""
    excused = outcome.excused
    return tuple(
        sorted({v for pid, v in outcome.decisions if pid not in excused}, key=repr)
    )


@dataclass(frozen=True, slots=True)
class ServiceStripe:
    """One shard of a wave: same-configuration requests, one worker task.

    Picklable by construction (strings, ints and frozen fault plans), so
    the self-healing pool can ship, retry and re-ship it.  ``cases``
    holds ``(submission index, request id, value, fault plan, coin seed)``
    tuples.
    """

    algorithm: str
    n: int
    t: int
    params: tuple[tuple[str, Any], ...]
    cases: tuple[tuple[int, int, Value, Any, int | None], ...]
    #: Instrumented representative runs per stripe feeding the per-phase
    #: latency percentiles (0 disables sampling).
    telemetry_sample: int = 1

    def run(self) -> StripeResult:
        """Execute every case as one batch on the worker's cached arena."""
        started = time.perf_counter()
        cache = worker_cache()
        hits0, misses0 = cache.hits, cache.misses
        algorithm, table = cache.setup((self.algorithm, self.n, self.t, self.params))
        setup_hits, setup_misses = cache.hits - hits0, cache.misses - misses0

        batch = run_batch(
            algorithm,
            [
                BatchCase(value=value, fault_plan=plan, coin_seed=coin_seed)
                for _, _, value, plan, coin_seed in self.cases
            ],
            table=table,
        )

        outcomes = [
            RequestOutcome(
                request_id=request_id,
                algorithm=self.algorithm,
                ok=outcome.agreement_ok,
                verdict=outcome.verdict,
                kind=outcome.kind,
                decided=_decided(outcome),
                messages=outcome.messages_by_correct,
                signatures=outcome.signatures_by_correct,
                phases_used=outcome.phases_used,
                replicated=outcome.replicated,
                kernel=outcome.kernel,
                fault_events=outcome.fault_events,
                excused=outcome.excused,
            )
            for (_, request_id, *_), outcome in zip(self.cases, batch.outcomes)
        ]
        phase_samples = self._sample_phases(algorithm)
        stats = batch.stats
        return StripeResult(
            outcomes=outcomes,
            wall_s=time.perf_counter() - started,
            unique_runs=stats.unique_runs,
            replicated_runs=stats.replicated_runs,
            kernel_runs=stats.kernel_runs,
            scalar_runs=stats.scalar_runs,
            digest_hits=stats.digest_hits,
            digest_misses=stats.digest_misses,
            setup_hits=setup_hits,
            setup_misses=setup_misses,
            phase_samples=phase_samples,
        )

    def _sample_phases(self, algorithm) -> tuple[tuple[int, float], ...]:
        """Per-phase wall times from instrumented representative runs."""
        samples: list[tuple[int, float]] = []
        for _, _, value, plan, coin_seed in self.cases[: self.telemetry_sample]:
            if plan is not None and not plan.is_empty:
                continue  # faulted runs would time the fault, not the phase
            run_result = run_algorithm(
                algorithm,
                value,
                record_history=False,
                collect_telemetry=True,
                coins=coins_for(algorithm, coin_seed),
            )
            telemetry = run_result.telemetry
            if telemetry is not None:
                samples.extend(
                    (timing.phase, timing.wall_s) for timing in telemetry.per_phase
                )
        return tuple(samples)


@dataclass(slots=True)
class ServiceReport:
    """What ``Scheduler.serve`` returns: per-request outcomes + stats."""

    outcomes: list[RequestOutcome]
    stats: ServiceStats

    def failures(self) -> list[RequestOutcome]:
        """The outcomes whose verdict class fails."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def verdict_counts(self) -> dict[str, int]:
        """Multiset of verdict strings (the determinism witness)."""
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.verdict] = counts.get(outcome.verdict, 0) + 1
        return dict(sorted(counts.items()))


class Scheduler:
    """Wave-dispatching front end over one long-lived worker pool.

    The pool forks on the first wave that has more than one stripe (a
    one-stripe wave runs in-process) and keeps its workers, and so their
    setup caches, for every later wave and ``serve`` call.  :meth:`close`
    or leaving a ``with`` block shuts them down; a scheduler dropped
    without either shuts them down when it is collected.

    Args:
        workers: worker processes in the pool (``None``:
            ``$REPRO_SWEEP_WORKERS`` or the CPU count; ``1`` serves
            serially in-process and never forks).
        max_stripe: cap on requests per stripe — the batching stripe of
            the sizing formula (``workers × max_stripe`` requests in
            flight per wave).
        telemetry_sample: instrumented representative runs per stripe
            feeding the per-phase percentiles (0 disables).
    """

    def __init__(
        self,
        *,
        workers: int | None = None,
        max_stripe: int = 256,
        telemetry_sample: int = 1,
    ) -> None:
        if max_stripe < 1:
            raise ValueError(f"max_stripe must be >= 1, got {max_stripe}")
        if telemetry_sample < 0:
            raise ValueError(
                f"telemetry_sample must be >= 0, got {telemetry_sample}"
            )
        self.workers = workers
        self.max_stripe = max_stripe
        self.telemetry_sample = telemetry_sample
        self._pool = WorkerPool(default_workers() if workers is None else workers)

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._pool.close()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _stripes(
        self, wave: Sequence[tuple[int, AgreementRequest]]
    ) -> list[ServiceStripe]:
        """Shard one wave by configuration, splitting at ``max_stripe``."""
        shards: dict[tuple, list[tuple[int, int, Value, Any, int | None]]] = {}
        for index, request in wave:
            shards.setdefault(request.config_key(), []).append(
                (
                    index,
                    request.request_id,
                    request.value,
                    request.fault_plan,
                    request.coin_seed,
                )
            )
        stripes: list[ServiceStripe] = []
        for key in sorted(shards, key=repr):
            name, n, t, params = key
            cases = shards[key]
            for offset in range(0, len(cases), self.max_stripe):
                stripes.append(
                    ServiceStripe(
                        algorithm=name,
                        n=n,
                        t=t,
                        params=params,
                        cases=tuple(cases[offset : offset + self.max_stripe]),
                        telemetry_sample=self.telemetry_sample,
                    )
                )
        return stripes

    def serve(
        self,
        scheduled: Sequence[ScheduledRequest],
        *,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> ServiceReport:
        """Serve *scheduled* open-loop; block until every request finished.

        *clock* and *sleep* are injectable for deterministic tests; the
        defaults are the real wall clock.  Outcomes are returned in
        submission order regardless of wave or worker assignment.
        """
        submissions = list(scheduled)
        outcomes: list[RequestOutcome | None] = [None] * len(submissions)
        # Arrival order, stable on submission index for equal offsets.
        order = sorted(
            range(len(submissions)), key=lambda i: (submissions[i].arrival_s, i)
        )
        aggregates = StripeResult()
        phase_samples: list[tuple[int, float]] = []
        waves = 0
        start = clock()
        cursor = 0
        while cursor < len(order):
            now = clock() - start
            head = submissions[order[cursor]].arrival_s
            if head > now:
                sleep(min(head - now, 0.05))
                continue
            wave: list[tuple[int, AgreementRequest]] = []
            while cursor < len(order):
                item = submissions[order[cursor]]
                if item.arrival_s > now:
                    break
                wave.append((order[cursor], item.request))
                cursor += 1
            dispatch_s = clock() - start
            stripes = self._stripes(wave)
            stripe_results: list[StripeResult] = run_tasks(
                stripes, workers=self.workers, pool=self._pool
            )
            harvest_s = clock() - start
            waves += 1
            for stripe, stripe_result in zip(stripes, stripe_results):
                per_request = (
                    stripe_result.wall_s / len(stripe_result.outcomes)
                    if stripe_result.outcomes
                    else 0.0
                )
                for case, outcome in zip(stripe.cases, stripe_result.outcomes):
                    index = case[0]
                    outcome.arrival_s = submissions[index].arrival_s
                    outcome.start_s = dispatch_s
                    outcome.finish_s = harvest_s
                    outcome.stripe_s = per_request
                    outcomes[index] = outcome
                for counter in (
                    "unique_runs",
                    "replicated_runs",
                    "kernel_runs",
                    "scalar_runs",
                    "digest_hits",
                    "digest_misses",
                    "setup_hits",
                    "setup_misses",
                ):
                    setattr(
                        aggregates,
                        counter,
                        getattr(aggregates, counter) + getattr(stripe_result, counter),
                    )
                phase_samples.extend(stripe_result.phase_samples)
        wall_s = clock() - start
        finished = [outcome for outcome in outcomes if outcome is not None]
        assert len(finished) == len(submissions), "every request must complete"
        stats = build_stats(
            finished,
            wall_s=wall_s,
            waves=waves,
            aggregates=aggregates,
            phase_samples=phase_samples,
        )
        return ServiceReport(outcomes=finished, stats=stats)
