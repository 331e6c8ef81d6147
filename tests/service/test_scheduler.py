"""Tests for the wave-dispatching scheduler and its stripes."""

import gc
import multiprocessing
import os
import threading
import time as wallclock
from dataclasses import dataclass, fields, replace
from pathlib import Path

import pytest

from repro.algorithms.base import input_value_from
from repro.algorithms.dolev_strong import DolevStrongProcessor
from repro.algorithms.registry import get
import repro.service.scheduler as scheduler_module
from repro.analysis.parallel import MAX_STRIPE, WorkerPool
from repro.core.batch import BatchCase, run_batch
from repro.core.counters import Counters
from repro.core.metrics import MetricsLedger
from repro.obs.telemetry import RunTelemetry
from repro.service.cache import reset_worker_cache
from repro.service.loadgen import generate_schedule
from repro.service.request import AgreementRequest, ScheduledRequest
from repro.service.scheduler import ClassOutcome, Scheduler, ServiceStripe
from repro.transport.faults import CrashFault, FaultPlan, Partition, random_plan
from repro.transport.faulty import FaultyTransport


class VirtualTime:
    """Injectable clock/sleep pair: time advances only when slept."""

    def __init__(self):
        self.now = 0.0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def immediate(requests):
    """Wrap *requests* as arrivals at t=0 (a single wave)."""
    return [ScheduledRequest(arrival_s=0.0, request=r) for r in requests]


def request(request_id, algorithm="phase-king", n=8, t=1, value=1, **overrides):
    return AgreementRequest(
        request_id=request_id,
        algorithm=algorithm,
        n=n,
        t=t,
        value=value,
        **overrides,
    )


@pytest.fixture(autouse=True)
def fresh_worker_cache():
    reset_worker_cache()
    yield
    reset_worker_cache()


class TestScheduler:
    def test_single_wave_outcomes_in_submission_order(self):
        time = VirtualTime()
        requests = [request(i, value=i % 2) for i in range(6)]
        report = Scheduler(workers=1).serve(
            immediate(requests), clock=time.clock, sleep=time.sleep
        )
        assert [o.request_id for o in report.outcomes] == list(range(6))
        assert report.stats.waves == 1
        assert report.verdict_counts() == {"ok": 6}
        assert not report.failures()

    def test_spread_arrivals_make_multiple_waves(self):
        time = VirtualTime()
        scheduled = [
            ScheduledRequest(arrival_s=float(i), request=request(i))
            for i in range(3)
        ]
        report = Scheduler(workers=1).serve(
            scheduled, clock=time.clock, sleep=time.sleep
        )
        assert report.stats.waves == 3
        # Open loop: a request dispatched at its arrival never waits.
        assert all(o.queue_wait_s == 0.0 for o in report.outcomes)

    def test_identical_requests_deduplicate(self):
        time = VirtualTime()
        requests = [request(i, value=1) for i in range(50)]
        report = Scheduler(workers=1).serve(
            immediate(requests), clock=time.clock, sleep=time.sleep
        )
        stats = report.stats
        assert stats.ok == 50
        assert stats.unique_runs == 1
        assert stats.replicated_runs == 49
        assert stats.dedup_ratio == pytest.approx(50.0)

    def test_faulted_requests_judged_crash_tolerantly(self):
        time = VirtualTime()
        plan = random_plan(11, n=9, t=2, num_phases=4, rate=0.8)
        assert not plan.is_empty
        requests = [
            request(0, algorithm="dolev-strong", n=9, t=2),
            request(1, algorithm="dolev-strong", n=9, t=2, fault_plan=plan),
        ]
        report = Scheduler(workers=1).serve(
            immediate(requests), clock=time.clock, sleep=time.sleep
        )
        assert report.verdict_counts() == {"ok": 2}
        faulted = report.outcomes[1]
        assert faulted.fault_events > 0
        # A faulted run never takes a kernel row: the runner executes it.
        assert report.stats.scalar_runs >= 1

    def test_partitioned_receiver_is_excused(self):
        # A one-pid cut while processor 1 only receives: the verdict must
        # excuse processor 1, not the correct senders on the other side.
        time = VirtualTime()
        plan = FaultPlan(faults=(Partition(group=(1,), first=1, last=2),), seed=0)
        requests = [request(0, algorithm="algorithm-3", n=60, t=2, fault_plan=plan)]
        report = Scheduler(workers=1).serve(
            immediate(requests), clock=time.clock, sleep=time.sleep
        )
        assert report.verdict_counts() == {"ok": 1}

    def test_mixed_families_all_verdict_ok(self):
        time = VirtualTime()
        requests = [
            request(0, algorithm="midpoint-approx", n=6, t=1, value=2.0),
            request(1, algorithm="ben-or", n=7, t=1, value=1, coin_seed=5),
            request(2, algorithm="phase-king", n=8, t=1, value=0),
        ]
        report = Scheduler(workers=1).serve(
            immediate(requests), clock=time.clock, sleep=time.sleep
        )
        assert report.verdict_counts() == {"ok": 3}

    def test_setup_cache_amortises_across_waves(self):
        time = VirtualTime()
        scheduled = [
            ScheduledRequest(arrival_s=float(i), request=request(i))
            for i in range(4)
        ]
        report = Scheduler(workers=1).serve(
            scheduled, clock=time.clock, sleep=time.sleep
        )
        # One miss builds the arena; every later stripe of the same
        # configuration hits (workers=1 keeps the cache process-local).
        assert report.stats.setup_misses == 1
        assert report.stats.setup_hits == 3

    def test_verdicts_identical_across_worker_counts(self):
        schedule = generate_schedule(
            requests=16, rate=100_000, seed=5, fault_rate=0.25
        )
        serial = Scheduler(workers=1).serve(schedule)
        pooled = Scheduler(workers=2).serve(schedule)
        assert serial.verdict_counts() == pooled.verdict_counts()
        assert [o.verdict for o in serial.outcomes] == [
            o.verdict for o in pooled.outcomes
        ]
        assert [o.decided for o in serial.outcomes] == [
            o.decided for o in pooled.outcomes
        ]


#: Three small configurations: every wave of :func:`multi_stripe_waves`
#: shards into three stripes, so it runs on the pool at ``workers=2``.
CONFIGS = (("phase-king", 8, 1), ("dolev-strong", 5, 1), ("oral-messages", 4, 1))


def multi_stripe_waves(waves, first_id=0):
    """*waves* waves one virtual second apart, two requests per configuration."""
    scheduled = []
    for wave in range(waves):
        for offset, (name, n, t) in enumerate(CONFIGS * 2):
            request_id = first_id + wave * 2 * len(CONFIGS) + offset
            scheduled.append(
                ScheduledRequest(
                    arrival_s=float(wave),
                    request=request(
                        request_id, algorithm=name, n=n, t=t, value=request_id % 2
                    ),
                )
            )
    return scheduled


@dataclass(frozen=True, slots=True)
class DieOnceStripe(ServiceStripe):
    """A stripe whose first run in a pool worker kills that worker
    (``os._exit``, behind a marker file); every later run serves."""

    marker: str = ""
    parent: int = 0

    def run(self):
        marker = Path(self.marker)
        if os.getpid() != self.parent and not marker.exists():
            marker.write_text("died")
            os._exit(1)
        return ServiceStripe.run(self)


class DieInWave(Scheduler):
    """Ships the first stripe of wave *wave* as a :class:`DieOnceStripe`."""

    def __init__(self, marker, wave, **kwargs):
        super().__init__(**kwargs)
        self.marker = str(marker)
        self.wave = wave
        self.waves_seen = 0

    def _stripes(self, wave):
        planned = super()._stripes(wave)
        if self.waves_seen == self.wave:
            first, members = planned[0]
            dying = DieOnceStripe(
                **{f.name: getattr(first, f.name) for f in fields(ServiceStripe)},
                marker=self.marker,
                parent=os.getpid(),
            )
            planned[0] = (dying, members)
        self.waves_seen += 1
        return planned


@dataclass(frozen=True, slots=True)
class NapStripe(ServiceStripe):
    """A stripe that sleeps *nap* seconds before it runs."""

    nap: float = 0.0

    def run(self):
        wallclock.sleep(self.nap)
        return ServiceStripe.run(self)


class SlowFirstStripe(Scheduler):
    """Ships each wave's first stripe as a :class:`NapStripe` and keeps
    every wave's stripe members in ``members``."""

    def __init__(self, nap, **kwargs):
        super().__init__(**kwargs)
        self.nap = nap
        self.members = []

    def _stripes(self, wave):
        planned = super()._stripes(wave)
        first, members = planned[0]
        slow = NapStripe(
            **{f.name: getattr(first, f.name) for f in fields(ServiceStripe)}, nap=self.nap
        )
        planned[0] = (slow, members)
        self.members.append([sum(classes, []) for _, classes in planned])
        return planned


def executor_threads():
    """The live threads of :mod:`concurrent.futures` (an executor's manager)."""
    return [
        thread
        for thread in threading.enumerate()
        if type(thread).__module__.startswith("concurrent.futures")
    ]


def wait_for_no_children(seconds=10.0):
    deadline = wallclock.monotonic() + seconds
    while multiprocessing.active_children() and wallclock.monotonic() < deadline:
        wallclock.sleep(0.05)
    return multiprocessing.active_children()


class TestPoolLifetime:
    def test_workers_keep_their_setup_cache_across_waves_and_serves(self):
        time = VirtualTime()
        with Scheduler(workers=2) as scheduler:
            first = scheduler.serve(
                multi_stripe_waves(3), clock=time.clock, sleep=time.sleep
            )
            second = scheduler.serve(
                multi_stripe_waves(3, first_id=100), clock=time.clock, sleep=time.sleep
            )
        assert first.stats.waves == second.stats.waves == 3
        assert first.verdict_counts() == second.verdict_counts() == {"ok": 18}
        # Two workers and the serving process each miss a configuration
        # at most once over the scheduler's life; a pool per wave would
        # miss up to twice per configuration per wave.
        misses = first.stats.setup_misses + second.stats.setup_misses
        assert misses <= (2 + 1) * len(CONFIGS)

    def test_killed_worker_is_replaced_once_and_every_request_served(
        self, tmp_path, monkeypatch
    ):
        rebuilt_in_wave = []
        rebuild = WorkerPool._rebuild

        def counting_rebuild(pool):
            rebuilt_in_wave.append(scheduler.waves_seen - 1)
            rebuild(pool)

        monkeypatch.setattr(WorkerPool, "_rebuild", counting_rebuild)
        schedule = multi_stripe_waves(4)
        time = VirtualTime()
        with DieInWave(tmp_path / "died", wave=1, workers=2) as scheduler:
            report = scheduler.serve(schedule, clock=time.clock, sleep=time.sleep)
        assert (tmp_path / "died").exists(), "the stripe must have killed a worker"
        # One rebuild, in the wave that lost its worker; waves 2 and 3 (three
        # stripes each) ran on the rebuilt pool without another.
        assert rebuilt_in_wave == [1]
        assert report.stats.waves == 4
        ids = [outcome.request_id for outcome in report.outcomes]
        assert ids == [item.request.request_id for item in schedule]
        time = VirtualTime()
        serial = Scheduler(workers=1).serve(schedule, clock=time.clock, sleep=time.sleep)
        assert report.verdict_counts() == serial.verdict_counts()
        assert [(o.verdict, o.decided) for o in report.outcomes] == [
            (o.verdict, o.decided) for o in serial.outcomes
        ]

    @pytest.mark.parametrize("ending", ["close", "with", "dropped"])
    def test_no_worker_outlives_the_scheduler(self, ending):
        assert wait_for_no_children() == []
        time = VirtualTime()
        scheduled = multi_stripe_waves(1)
        if ending == "with":
            with Scheduler(workers=2) as scheduler:
                scheduler.serve(scheduled, clock=time.clock, sleep=time.sleep)
                assert multiprocessing.active_children()
        else:
            scheduler = Scheduler(workers=2)
            scheduler.serve(scheduled, clock=time.clock, sleep=time.sleep)
            assert multiprocessing.active_children()
            if ending == "close":
                scheduler.close()
            else:
                del scheduler
                gc.collect()
        # Closing joins the executor: its manager thread is gone at once,
        # not left to wake a closed pipe at interpreter exit.
        assert executor_threads() == []
        assert wait_for_no_children() == []


class TestStamps:
    def test_each_stripe_is_stamped_at_its_own_harvest(self):
        # One wave of three stripes on two workers: the first naps, so
        # the other two land (and are stamped) before it.
        with SlowFirstStripe(0.5, workers=2) as scheduler:
            report = scheduler.serve(multi_stripe_waves(1))
        (stripes,) = scheduler.members
        assert len(stripes) == len(CONFIGS)
        finish = {outcome.request_id: outcome.finish_s for outcome in report.outcomes}
        stamps = [{finish[request_id] for request_id in members} for members in stripes]
        assert all(len(stamp) == 1 for stamp in stamps), "a stripe's members share one stamp"
        slow, *fast = (stamp.pop() for stamp in stamps)
        assert all(stamp < slow for stamp in fast)
        assert slow - min(fast) > 0.25
        assert report.verdict_counts() == {"ok": 2 * len(CONFIGS)}

    def test_a_slow_faulted_run_holds_back_only_its_own_request(self, monkeypatch):
        # One configuration: twenty plan-free requests (two kernel classes)
        # and one whose crash plan sends it through the runner, slowed by
        # a nap per delivered phase.  The plan class is a stripe of its
        # own, dispatched after the plan-free one.
        plan = FaultPlan(faults=(CrashFault(pid=3, phase=2),))
        requests = [request(i, value=i % 2) for i in range(20)]
        requests.append(request(20, fault_plan=plan))
        deliver = FaultyTransport.deliver

        def slow_deliver(transport, *args, **kwargs):
            wallclock.sleep(0.1)
            return deliver(transport, *args, **kwargs)

        # Patched before the pool forks, so the workers inherit it.
        monkeypatch.setattr(FaultyTransport, "deliver", slow_deliver)
        with Scheduler(workers=2) as scheduler:
            report = scheduler.serve(immediate(requests))
        assert report.verdict_counts() == {"ok": len(requests)}
        *plan_free, planned = report.outcomes
        assert planned.fault_events > 0
        assert max(outcome.finish_s for outcome in plan_free) < planned.finish_s

    def test_serial_stripes_are_stamped_one_by_one(self):
        ticks = iter(range(1000))
        report = Scheduler(workers=1).serve(
            multi_stripe_waves(1), clock=lambda: float(next(ticks))
        )
        assert report.stats.waves == 1
        assert len({outcome.finish_s for outcome in report.outcomes}) == len(CONFIGS)
        assert len({outcome.start_s for outcome in report.outcomes}) == 1


ORIGINAL_ON_PHASE = DolevStrongProcessor.on_phase


def raise_on_seven(processor, phase, inbox):
    """``DolevStrongProcessor.on_phase``, but the transmitter raises on
    input 7."""
    if phase == 1 and processor.ctx.pid == processor.ctx.transmitter:
        if input_value_from(inbox) == 7:
            raise RuntimeError("no sevens")
    return ORIGINAL_ON_PHASE(processor, phase, inbox)


class TestCrashIsolation:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_raising_run_fails_its_own_request_only(self, workers, monkeypatch):
        # Ten dolev-strong classes share one stripe, and two more
        # configurations make the wave three stripes.
        requests = [request(i, algorithm="dolev-strong", n=5, t=1, value=i) for i in range(10)]
        requests += [
            request(10 + i, algorithm=name, n=n, t=t, value=i % 2)
            for i, (name, n, t) in enumerate(CONFIGS[::2] * 2)
        ]
        requests.append(request(14, algorithm="dolev-strong", n=5, t=1, value=7))
        reference = Scheduler(workers=1).serve(immediate(requests), clock=lambda: 0.0)
        assert reference.verdict_counts() == {"ok": len(requests)}
        # Patched before the pool forks, so the workers inherit it.
        monkeypatch.setattr(DolevStrongProcessor, "on_phase", raise_on_seven)
        submitted = []
        submit = WorkerPool._submit

        def counting_submit(pool, chunk):
            submitted.append(chunk)
            return submit(pool, chunk)

        monkeypatch.setattr(WorkerPool, "_submit", counting_submit)
        with Scheduler(workers=workers) as scheduler:
            report = scheduler.serve(immediate(requests), clock=lambda: 0.0)
        assert [o.request_id for o in report.outcomes] == list(range(len(requests)))
        for served, usual in zip(report.outcomes, reference.outcomes):
            if served.request_id in (7, 14):
                assert (served.ok, served.kind) == (False, "crash")
                assert served.verdict == "crash: RuntimeError: no sevens"
                assert served.replicated == (served.request_id == 14)
            else:
                assert served == usual
        stats = report.stats
        assert (stats.failed, stats.ok) == (2, len(requests) - 2)
        assert stats.runs == stats.requests == stats.unique_runs + stats.replicated_runs
        assert stats.unique_runs == stats.kernel_runs + stats.scalar_runs
        assert run_classes(stats) == run_classes(reference.stats)
        # No stripe raised, so the pool resubmitted nothing.
        assert len(submitted) == (len(CONFIGS) if workers > 1 else 0)


class TestStripes:
    def test_sharded_by_config_key_and_split_at_max_stripe(self, monkeypatch):
        # A configuration's run classes fill stripes whole, in first-seen
        # order, up to MAX_STRIPE requests, at any pool size.  Value 0's
        # class has two members, so it and the next MAX_STRIPE - 2 classes
        # fill the first stripe.  The stripes dispatch by the requests they
        # serve, most first, and stably: the full stripe, then the
        # one-request stripes in first-seen order.  They go one per chunk
        # and ship one case per class.
        values = [*range(MAX_STRIPE - 1), 0, MAX_STRIPE]
        wave = [(i, request(i, value=value)) for i, value in enumerate(values)]
        last = len(wave)
        wave.append((last, request(last, algorithm="dolev-strong", n=9, t=2)))
        expected = [
            ("phase-king", [[0, MAX_STRIPE - 1]] + [[i] for i in range(1, MAX_STRIPE - 1)]),
            ("phase-king", [[MAX_STRIPE]]),
            ("dolev-strong", [[last]]),
        ]
        for workers in (1, 2):
            planned = Scheduler(workers=workers)._stripes(wave)
            assert [(s.algorithm, members) for s, members in planned] == expected
            assert [[case[0] for case in s.cases] for s, _ in planned] == [
                list(range(MAX_STRIPE - 1)), [MAX_STRIPE], [1]
            ]
        dispatched = []
        real = scheduler_module.run_tasks

        def spy(tasks, **kwargs):
            dispatched.append(([len(task.cases) for task in tasks], kwargs["chunk_size"]))
            return real(tasks, **kwargs)

        monkeypatch.setattr(scheduler_module, "run_tasks", spy)
        report = Scheduler(workers=1).serve(
            immediate([item for _, item in wave]), clock=lambda: 0.0
        )
        assert dispatched == [([MAX_STRIPE - 1, 1, 1], 1)]
        assert [o.request_id for o in report.outcomes] == list(range(last + 1))
        assert [o.replicated for o in report.outcomes] == [
            i == MAX_STRIPE - 1 for i in range(last + 1)
        ]

    def test_an_empty_fault_plan_serves_as_no_plan(self):
        # Requests with no plan, an empty plan and an empty seeded plan are
        # one run class: one kernel row, two replicas, and every outcome
        # the plan-free one's but for the provenance flags.
        plans = (None, FaultPlan(), FaultPlan(seed=5))
        requests = [request(i, n=9, t=2, fault_plan=plan) for i, plan in enumerate(plans)]
        report = Scheduler(workers=1).serve(immediate(requests), clock=lambda: 0.0)
        stats = report.stats
        assert (stats.unique_runs, stats.replicated_runs) == (1, 2)
        assert (stats.kernel_runs, stats.scalar_runs) == (1, 0)
        plan_free = report.outcomes[0]
        assert plan_free.kernel
        assert [
            replace(outcome, request_id=0, kernel=True, replicated=False)
            for outcome in report.outcomes
        ] == [plan_free] * 3

    @pytest.mark.parametrize("name,n,t", [("algorithm-3", 20, 2), ("phase-king", 9, 2)])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_class_wider_than_a_stripe_executes_once(self, name, n, t, workers):
        size = 3 * MAX_STRIPE + 1
        requests = [request(i, algorithm=name, n=n, t=t) for i in range(size)]
        with Scheduler(workers=workers) as scheduler:
            report = scheduler.serve(immediate(requests), clock=lambda: 0.0)
        stats = report.stats
        assert (stats.runs, stats.unique_runs, stats.replicated_runs) == (size, 1, size - 1)
        assert report.verdict_counts() == {"ok": size}
        assert [o.request_id for o in report.outcomes] == list(range(size))
        assert [o.replicated for o in report.outcomes] == [False] + [True] * (size - 1)

    def test_stripe_batches_clean_exact_and_memoises_scalar(self):
        # The stripe runs one case per class, kernel rows and scalar runs
        # alike, each equal to its one-case batch.
        plan = random_plan(3, n=8, t=1, num_phases=3, rate=0.8)
        cases = ((1, None, None), (0, None, None), (1, plan, None))
        result = ServiceStripe(algorithm="phase-king", n=8, t=1, params=(), cases=cases).run()
        algorithm = get("phase-king")(8, 1)
        assert result.outcomes == [
            ClassOutcome.of(
                run_batch(algorithm, [BatchCase(value=value, fault_plan=case_plan)]).outcomes[0]
            )
            for value, case_plan, _ in cases
        ]
        counters = result.counters
        assert (counters.runs, counters.unique_runs, counters.replicated_runs) == (3, 3, 0)
        assert (counters.kernel_runs, counters.scalar_runs) == (2, 1)
        # Two faulted requests share one class: one scalar execution.
        requests = [request(i, fault_plan=plan if i % 2 else None) for i in range(4)]
        report = Scheduler(workers=1).serve(immediate(requests), clock=lambda: 0.0)
        stats = report.stats
        assert (stats.unique_runs, stats.replicated_runs) == (2, 2)
        assert (stats.kernel_runs, stats.scalar_runs) == (1, 1)
        assert [o.replicated for o in report.outcomes] == [False, False, True, True]
        assert [o.kernel for o in report.outcomes] == [True, False, True, False]
        # Each served outcome carries its class's fields under their names.
        by_class = {case[:2]: outcome for case, outcome in zip(cases, result.outcomes)}
        assert by_class[1, plan].fault_events and by_class[1, plan].excused
        for served, asked in zip(report.outcomes, requests):
            assert (served.request_id, served.algorithm) == (asked.request_id, "phase-king")
            fields_of_class = {name: getattr(served, name) for name in ClassOutcome._fields}
            assert fields_of_class == by_class[asked.value, asked.fault_plan]._asdict()


class TestOneVerdict:
    @pytest.mark.parametrize(
        "name,n,t", [("dolev-strong", 7, 2), ("phase-king", 9, 2), ("algorithm-3", 20, 2)]
    )
    def test_crashed_transmitter_is_excused_on_both_paths(self, name, n, t):
        plan = FaultPlan(faults=(CrashFault(pid=0, phase=1),), seed=0)
        batch = run_batch(get(name)(n, t), [BatchCase(value=1, fault_plan=plan)])
        (outcome,) = batch.outcomes
        assert outcome.agreement_ok
        assert (outcome.verdict, outcome.excused) == ("ok", (0,))
        stripe = ServiceStripe(
            algorithm=name,
            n=n,
            t=t,
            params=(),
            cases=((1, plan, None),),
        )
        (served,) = stripe.run().outcomes
        assert (served.ok, served.verdict, served.excused) == (True, "ok", (0,))


def counting(cls):
    """A subclass of *cls* that counts its constructions in ``built``."""

    class Counting(cls):
        built = 0

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            type(self).built += 1

    return Counting


def run_classes(stats):
    return (
        stats.requests,
        stats.unique_runs,
        stats.replicated_runs,
        stats.kernel_runs,
        stats.scalar_runs,
    )


class TestCounters:
    def test_every_runner_execution_serves_a_request(self, monkeypatch):
        # The runner builds exactly one ledger per run(), whatever name
        # its caller imported it under.
        ledger, telemetry = counting(MetricsLedger), counting(RunTelemetry)
        monkeypatch.setattr("repro.core.runner.MetricsLedger", ledger)
        monkeypatch.setattr("repro.core.runner.RunTelemetry", telemetry)
        time = VirtualTime()
        report = Scheduler(workers=1).serve(
            multi_stripe_waves(4), clock=time.clock, sleep=time.sleep
        )
        assert report.stats.scalar_runs > 0
        assert ledger.built == report.stats.scalar_runs
        assert telemetry.built == 0

    def test_add_merges_every_field_and_zero_is_the_identity(self):
        names = [f.name for f in fields(Counters)]
        a = Counters(**{name: 1 + i for i, name in enumerate(names)})
        b = Counters(**{name: 100 * (1 + i) for i, name in enumerate(names)})
        merged = a + b
        assert {name: getattr(merged, name) for name in names} == {
            name: 101 * (1 + i) for i, name in enumerate(names)
        }
        assert a + Counters() == a == Counters() + a

    def test_serve_reports_the_sum_of_its_stripes(self, monkeypatch):
        stripe_counters = []
        original = ServiceStripe.run

        def spy(stripe):
            result = original(stripe)
            stripe_counters.append(result.counters)
            return result

        monkeypatch.setattr(ServiceStripe, "run", spy)
        # Every request twice, under a second id: each class has two members.
        schedule = multi_stripe_waves(3)
        schedule += [
            ScheduledRequest(
                arrival_s=item.arrival_s,
                request=replace(item.request, request_id=item.request.request_id + 1000),
            )
            for item in schedule
        ]
        time = VirtualTime()
        stats = (
            Scheduler(workers=1)
            .serve(schedule, clock=time.clock, sleep=time.sleep)
            .stats
        )
        assert len(stripe_counters) == 3 * len(CONFIGS)
        total = sum(stripe_counters, Counters())
        # A stripe runs one case per class; the scheduler serves each
        # class's second member as a replica.
        classes = len(schedule) // 2
        assert (total.runs, total.unique_runs, total.replicated_runs) == (classes, classes, 0)
        expected = total + Counters(runs=classes, replicated_runs=classes)
        names = [f.name for f in fields(Counters)]
        assert [getattr(stats, name) for name in names] == [
            getattr(expected, name) for name in names
        ]
        assert stats.runs == stats.requests == stats.unique_runs + stats.replicated_runs
        assert stats.unique_runs == stats.kernel_runs + stats.scalar_runs
        assert (total.setup_misses, total.setup_hits) == (len(CONFIGS), 2 * len(CONFIGS))

    def test_run_class_counts_equal_across_worker_counts(self):
        # One wave (every arrival at 0): each run class of a wave executes
        # once, so the run-class counts depend on the requests alone.
        # Digest and setup counts depend on which process's cache serves a
        # stripe, so they are left out.
        schedule = [
            ScheduledRequest(arrival_s=0.0, request=item.request)
            for item in generate_schedule(
                requests=300, rate=100_000, seed=5, fault_rate=0.25
            )
        ]
        counts = []
        for workers in (1, 2):
            with Scheduler(workers=workers) as scheduler:
                stats = scheduler.serve(schedule, clock=lambda: 0.0).stats
            counts.append(run_classes(stats))
            requests, unique, replicated, kernel, scalar = counts[-1]
            assert requests == unique + replicated == 300
            assert unique == kernel + scalar
        assert counts[0] == counts[1]
