"""Tests for the wave-dispatching scheduler and its stripes."""

import pytest

from repro.algorithms.registry import get
from repro.core.batch import BatchCase, run_batch
from repro.service import (
    AgreementRequest,
    ScheduledRequest,
    Scheduler,
    ServiceStripe,
    generate_schedule,
    reset_worker_cache,
)
from repro.transport.faults import CrashFault, FaultPlan, Partition, random_plan


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

    def test_max_stripe_must_be_positive(self):
        with pytest.raises(ValueError, match="max_stripe"):
            Scheduler(max_stripe=0)


class TestStripes:
    def test_sharded_by_config_key_and_split_at_max_stripe(self):
        scheduler = Scheduler(workers=1, max_stripe=2)
        wave = [
            (0, request(0)),
            (1, request(1)),
            (2, request(2)),
            (3, request(3, algorithm="dolev-strong", n=9, t=2)),
        ]
        stripes = scheduler._stripes(wave)
        assert len(stripes) == 3  # phase-king split 2+1, dolev-strong 1
        sizes = sorted(len(s.cases) for s in stripes)
        assert sizes == [1, 1, 2]
        assert all(len(s.cases) <= 2 for s in stripes)

    def test_stripe_batches_clean_exact_and_memoises_scalar(self):
        plan = random_plan(3, n=8, t=1, num_phases=3, rate=0.8)
        stripe = ServiceStripe(
            algorithm="phase-king",
            n=8,
            t=1,
            params=(),
            cases=(
                (0, 0, 1, None, None),
                (1, 1, 1, None, None),
                (2, 2, 1, plan, None),
                (3, 3, 1, plan, None),
            ),
            telemetry_sample=0,
        )
        result = stripe.run()
        assert len(result.outcomes) == 4
        # The two faulted cases share one run class: one scalar execution.
        assert result.scalar_runs == 1
        assert result.replicated_runs >= 1
        assert result.phase_samples == ()

    def test_telemetry_sampling_yields_phase_samples(self):
        stripe = ServiceStripe(
            algorithm="phase-king",
            n=8,
            t=1,
            params=(),
            cases=((0, 0, 1, None, None),),
            telemetry_sample=1,
        )
        result = stripe.run()
        phases = {phase for phase, _ in result.phase_samples}
        assert phases, "sampling must produce per-phase timings"
        assert all(seconds >= 0.0 for _, seconds in result.phase_samples)


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
            cases=((0, 0, 1, plan, None),),
            telemetry_sample=0,
        )
        (served,) = stripe.run().outcomes
        assert (served.ok, served.verdict, served.excused) == (True, "ok", (0,))
