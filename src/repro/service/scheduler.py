"""The agreement scheduler: many concurrent instances, one worker pool.

``Scheduler.serve`` takes an open-loop arrival schedule of
:class:`~repro.service.request.AgreementRequest`\\ s and multiplexes them
over the self-healing :func:`~repro.analysis.parallel.run_tasks` pool in
**waves**:

1. wait until at least one scheduled arrival is due (arrivals happen on
   the wall clock, independent of service progress — open loop);
2. take everything that has arrived, key each request by its
   :meth:`~repro.service.request.AgreementRequest.config_key` and its
   run class (:func:`repro.core.batch.class_key`), and shard the wave
   into :class:`ServiceStripe` tasks of whole classes: a class with a
   fault plan is a stripe of its own, and plan-free classes fill stripes
   of at most :data:`~repro.analysis.parallel.MAX_STRIPE` requests each
   unless one class holds more, the rule sweeps stripe by;
3. dispatch the stripes across the pool, one per chunk, by the requests
   they serve, most first, and stamp each stripe when its result
   reaches this process (the pool hands stripes back as they land).
   Once the wave's last stripe is in, every request gets the wave's
   dispatch time as ``start_s`` and its own stripe's harvest time as
   ``finish_s``.

The run class, not the request, is the unit of work: a stripe ships one
case per class and returns one :class:`ClassOutcome` per class, and
``serve`` builds each member request's outcome from its class's.  Inside
a stripe the classes ride :func:`repro.core.batch.run_batch`:

* **setup cache** — the per-worker :func:`~repro.service.cache.setup`
  hands every stripe of a configuration the same arena and
  :class:`~repro.crypto.signatures.SharedDigestTable`; workers live as
  long as the scheduler, so signature setup amortises across requests,
  waves and ``serve`` calls;
* **run-class dedup + kernels** — requests with equal configuration and
  ``(value, fault plan, coin seed)`` share one execution, or one kernel
  row the engine writes down from the algorithm's fault-free schedule,
  so a thousand identical requests in a wave cost one run;
* **one verdict** — the engine judges each run with
  :func:`repro.core.validation.judge_run`, excusing the processors an
  injected fault touched; a request's ``kind`` is the verdict class, and
  only ``safety``, ``eps_violation`` and ``bound`` fail it;
* **crash isolation** — a class whose run raises is ``crash`` and fails
  its own requests; the rest of its stripe and wave is served.

Verdicts are deterministic in the request content (never in timing), so
the same schedule produces the same verdict multiset for any worker
count — the property ``make serve-smoke`` pins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

from repro.algorithms.registry import get
from repro.analysis.parallel import WorkerPool, default_workers, run_tasks, stripe_positions
from repro.core.batch import BatchCase, BatchOutcome, class_key, run_batch
from repro.core.counters import Counters
# Unused here; perfbench/tracing.py wraps the runner under this name.
from repro.core.runner import run as run_algorithm  # noqa: F401
from repro.core.types import Value
from repro.core.validation import CRASH
from repro.service.cache import setup
from repro.service.request import AgreementRequest, RequestOutcome, ScheduledRequest
from repro.service.stats import ServiceStats, build_stats

__all__ = ["ClassOutcome", "ServiceStripe", "StripeResult", "Scheduler", "ServiceReport"]


class ClassOutcome(NamedTuple):
    """One executed run class: the outcome fields its member requests share."""

    ok: bool
    verdict: str
    kind: str
    #: The distinct values the unexcused processors decided, repr-sorted.
    decided: tuple[Any, ...]
    messages: int
    signatures: int
    phases_used: int
    kernel: bool
    fault_events: int
    excused: tuple[int, ...]

    @classmethod
    def of(cls, outcome: BatchOutcome) -> "ClassOutcome":
        """The fields of the engine's *outcome* a request reports."""
        excused = outcome.excused
        decided = {v for pid, v in outcome.decisions if pid not in excused}
        return cls(
            ok=outcome.agreement_ok,
            verdict=outcome.verdict,
            kind=outcome.kind,
            decided=tuple(sorted(decided, key=repr)),
            messages=outcome.messages_by_correct,
            signatures=outcome.signatures_by_correct,
            phases_used=outcome.phases_used,
            kernel=outcome.kernel,
            fault_events=outcome.fault_events,
            excused=excused,
        )

    @classmethod
    def crashed(cls, error: Exception) -> "ClassOutcome":
        """The outcome of a class whose run raised *error*: it fails, as
        ``crash``, and reports no counts."""
        return cls(
            ok=False,
            verdict=f"{CRASH}: {type(error).__name__}: {error}",
            kind=CRASH,
            decided=(),
            messages=0,
            signatures=0,
            phases_used=0,
            kernel=False,
            fault_events=0,
            excused=(),
        )


@dataclass(slots=True)
class StripeResult:
    """Everything one executed stripe reports back to the scheduler."""

    #: One outcome per run class, in case order.
    outcomes: list[ClassOutcome]
    #: The batch's counters (one run per class) plus this stripe's
    #: setup-cache lookup.
    counters: Counters


@dataclass(frozen=True, slots=True)
class ServiceStripe:
    """One shard of a wave: whole run classes of one configuration, one
    worker task.

    Picklable by construction (strings, ints and frozen fault plans), so
    the self-healing pool can ship, retry and re-ship it.  ``cases``
    holds one ``(value, fault plan, coin seed)`` per run class; which
    requests a class serves stays with the scheduler.  Every runner
    execution it makes serves one of its classes.
    """

    algorithm: str
    n: int
    t: int
    params: tuple[tuple[str, Any], ...]
    cases: tuple[tuple[Value, Any, int | None], ...]

    def run(self) -> StripeResult:
        """Execute every class as one batch on the worker's cached arena.

        If a run raises, each class runs again as a one-case batch, as
        the fuzz oracle runs a case, so a class whose run raises gets a
        ``crash`` outcome (counted as one scalar run) and the others are
        served."""
        lookup = Counters()
        algorithm, table = setup((self.algorithm, self.n, self.t, self.params), lookup)
        cases = [
            BatchCase(value=value, fault_plan=plan, coin_seed=coin_seed)
            for value, plan, coin_seed in self.cases
        ]
        try:
            batch = run_batch(algorithm, cases, table=table)
        except Exception:
            outcomes: list[ClassOutcome] = []
            counters = lookup
            for case in cases:
                try:
                    alone = run_batch(algorithm, [case], table=table)
                except Exception as error:
                    outcomes.append(ClassOutcome.crashed(error))
                    counters += Counters(runs=1, unique_runs=1, scalar_runs=1)
                else:
                    outcomes.append(ClassOutcome.of(alone.outcomes[0]))
                    counters += alone.stats
            return StripeResult(outcomes=outcomes, counters=counters)
        return StripeResult(
            outcomes=[ClassOutcome.of(outcome) for outcome in batch.outcomes],
            counters=batch.stats + lookup,
        )


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

    Every runner execution serves a run class, and the report's counters
    are the sum of its stripes' :class:`~repro.core.counters.Counters`
    plus the members each class served beyond its first, counted as
    ``runs`` and ``replicated_runs``.
    Per-phase wall time is not sampled here; it is measured on a run
    itself (``repro run --metrics-out``, JSONL traces).

    Args:
        workers: worker processes in the pool (``None``:
            ``$REPRO_SWEEP_WORKERS`` or the CPU count; ``1`` serves
            serially in-process and never forks).
    """

    def __init__(self, *, workers: int | None = None) -> None:
        self.workers = workers
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
    ) -> list[tuple[ServiceStripe, list[list[int]]]]:
        """Shard one wave into stripes of whole run classes.

        Each request is keyed by its configuration and its run class
        (:func:`~repro.core.batch.class_key` of its value, fault plan and
        coin seed, with ``uses_coins`` read off the registry's class once
        per algorithm, so no arena is built here), and
        :func:`~repro.analysis.parallel.stripe_positions` cuts the wave.
        A class whose key carries a fault plan always executes through
        the runner, so it is a group, and hence a stripe, of its own; the
        plan-free classes of a configuration fill stripes as sweeps do.
        Each stripe comes with its classes' members, as ascending
        submission indices.  The stripes dispatch by the requests they
        serve, most first (stable, so ties keep first-seen order): the
        one-class plan stripes come last, where the pool spreads them
        over its workers."""
        uses_coins = {
            name: get(name).build.uses_coins
            for name in {request.algorithm for _, request in wave}
        }
        keys: list[tuple[Any, Any]] = []
        for _, request in wave:
            config = request.config_key()
            run_class = class_key(
                request.value,
                request.fault_plan,
                request.coin_seed,
                uses_coins[request.algorithm],
            )
            # The key's plan field is None unless the plan injects a fault.
            if run_class is not None and run_class[1] is not None:
                config = (config, run_class)
            keys.append((config, run_class))
        shards = sorted(
            stripe_positions(keys),
            key=lambda classes: sum(map(len, classes)),
            reverse=True,
        )
        planned: list[tuple[ServiceStripe, list[list[int]]]] = []
        for classes in shards:
            name, n, t, params = wave[classes[0][0]][1].config_key()
            cases = tuple(
                (request.value, request.fault_plan, request.coin_seed)
                for request in (wave[positions[0]][1] for positions in classes)
            )
            members = [
                sorted([wave[position][0] for position in positions]) for positions in classes
            ]
            stripe = ServiceStripe(algorithm=name, n=n, t=t, params=params, cases=cases)
            planned.append((stripe, members))
        return planned

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
        submission order regardless of wave or worker assignment.  Each
        request gets its run class's outcome; every member of a class
        after the first, in submission order, is ``replicated``.
        """
        submissions = list(scheduled)
        outcomes: list[RequestOutcome | None] = [None] * len(submissions)
        # Arrival order, stable on submission index for equal offsets.
        order = sorted(
            range(len(submissions)), key=lambda i: (submissions[i].arrival_s, i)
        )
        counters = Counters()
        waves = 0
        start = clock()
        cursor = 0
        # Each stripe of the wave in flight is stamped when its result
        # reaches this process.
        harvested: list[float] = []

        def landed(position: int, _: StripeResult) -> None:
            harvested[position] = clock() - start

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
            planned = self._stripes(wave)
            harvested[:] = [0.0] * len(planned)
            stripe_results: list[StripeResult] = run_tasks(
                [stripe for stripe, _ in planned],
                workers=self.workers,
                chunk_size=1,
                pool=self._pool,
                on_result=landed,
            )
            waves += 1
            # Outcomes are built once the wave's last stripe is in: built
            # as each stripe lands, they would compete with the workers
            # for the host's cores.
            for (stripe, classes), stripe_result, harvest_s in zip(
                planned, stripe_results, harvested
            ):
                algorithm = stripe.algorithm
                for members, outcome in zip(classes, stripe_result.outcomes):
                    (ok, verdict, kind, decided, messages, signatures, phases_used,
                     kernel, fault_events, excused) = outcome
                    replicated = False
                    for index in members:
                        submission = submissions[index]
                        # Positional, in RequestOutcome's field order.
                        outcomes[index] = RequestOutcome(
                            submission.request.request_id, algorithm, ok, verdict,
                            kind, decided, messages, signatures, phases_used,
                            replicated, kernel, submission.arrival_s, dispatch_s,
                            harvest_s, fault_events, excused,
                        )
                        replicated = True
                # The stripe ran one case per class; its other members
                # are served, replicated, here.
                replicas = sum(len(members) for members in classes) - len(classes)
                counters += stripe_result.counters + Counters(
                    runs=replicas, replicated_runs=replicas
                )
        wall_s = clock() - start
        finished = [outcome for outcome in outcomes if outcome is not None]
        assert len(finished) == len(submissions), "every request must complete"
        stats = build_stats(finished, wall_s=wall_s, waves=waves, counters=counters)
        return ServiceReport(outcomes=finished, stats=stats)
