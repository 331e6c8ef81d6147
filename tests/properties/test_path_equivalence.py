"""Differential suite: every execution path reaches the same outcome.

One input is a registry entry at a small valid ``(n, t)``, a value from
its domain, optionally a seeded fault plan (exact entries: benign, or
over the fault budget) and optionally a coin seed (randomized entries).
Five paths run it: the scalar ``measure()``, ``run_batch(strict=True)``
(which also re-checks every class against the runner),
``sweep_parallel``, the service ``Scheduler`` and the fuzz oracle's
``execute_script`` with an empty script.  They must agree on the
unexcused decisions, messages, signatures, phases used and the verdict,
its class and text included where the path reports them.
``measure()`` and the sweeps take no plan or coin seed, so they are
compared with the engine on the plain value.  The strawmen are included
so that failing verdicts are compared too.
"""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.phase_king import PhaseKing
from repro.algorithms.registry import ALGORITHMS, STRAWMEN, WORKLOADS, get
from repro.analysis.parallel import MAX_STRIPE, sweep_parallel
from repro.analysis.sweep import measure
from repro.core.batch import BatchCase, BatchOutcome, run_batch
from repro.core.validation import BENIGN, BOUND
from repro.fuzz.oracle import FuzzOutcome, execute_script
from repro.fuzz.script import AdversaryScript
from repro.service.cache import reset_worker_cache
from repro.service.request import AgreementRequest, RequestOutcome, ScheduledRequest
from repro.service.scheduler import Scheduler
from repro.transport.faults import (
    CrashFault,
    FaultPlan,
    LinkDrop,
    SendOmission,
    random_plan,
)

#: One small valid configuration per registry entry.
ENTRIES = [
    ("dolev-strong", 5, 2),
    ("active-set", 5, 2),
    ("oral-messages", 7, 2),
    ("algorithm-1", 5, 2),
    ("algorithm-2", 5, 2),
    ("algorithm-3", 9, 2),
    ("algorithm-5", 9, 1),
    ("informed-algorithm-2", 9, 2),
    ("phase-king", 9, 2),
    ("midpoint-approx", 7, 2),
    ("filtered-mean-approx", 7, 1),
    ("ben-or", 6, 1),
    ("strawman-undersigning", 5, 2),
    ("strawman-echo", 5, 2),
    ("strawman-overshoot", 7, 2),
]


def test_entries_cover_the_whole_registry():
    assert sorted(name for name, _, _ in ENTRIES) == sorted(
        [*ALGORITHMS, *WORKLOADS, *STRAWMEN]
    )


def serve(requests, workers=1) -> list[RequestOutcome]:
    """Serve *requests* as one wave and return the outcomes in order."""
    scheduled = [ScheduledRequest(arrival_s=0.0, request=r) for r in requests]
    with Scheduler(workers=workers) as scheduler:
        report = scheduler.serve(scheduled, clock=lambda: 0.0)
    return report.outcomes


def fuzz(name, n, t, value, plan=None, coin_seed=None) -> FuzzOutcome:
    """The oracle's path: an empty script, so only *plan* faults the run."""
    return execute_script(
        get(name)(n, t),
        value,
        AdversaryScript(faulty=()),
        fault_plan=plan,
        coin_seed=coin_seed,
    )


def unexcused_decided(outcome: BatchOutcome) -> tuple:
    """The engine's outcome in the service's ``decided`` shape."""
    return tuple(
        sorted(
            {v for pid, v in outcome.decisions if pid not in outcome.excused},
            key=repr,
        )
    )


def assert_same(served: RequestOutcome, outcome: BatchOutcome) -> None:
    assert served.decided == unexcused_decided(outcome)
    assert served.messages == outcome.messages_by_correct
    assert served.signatures == outcome.signatures_by_correct
    assert served.phases_used == outcome.phases_used
    assert (served.ok, served.kind, served.verdict) == (
        outcome.agreement_ok,
        outcome.kind,
        outcome.verdict,
    )
    assert served.excused == outcome.excused
    assert served.fault_events == outcome.fault_events


def assert_same_class(fuzzed: FuzzOutcome, outcome: BatchOutcome) -> None:
    assert (fuzzed.verdict, fuzzed.detail, fuzzed.failed) == (
        outcome.kind,
        outcome.verdict,
        not outcome.agreement_ok,
    )
    assert (fuzzed.messages, fuzzed.signatures, fuzzed.phases_used) == (
        outcome.messages_by_correct,
        outcome.signatures_by_correct,
        outcome.phases_used,
    )


def assert_paths_agree(name, n, t, value, plan, coin_seed) -> None:
    info = get(name)
    cases = [
        BatchCase(value=value),
        BatchCase(value=value, fault_plan=plan, coin_seed=coin_seed),
    ]
    plain, drawn = run_batch(info(n, t), cases, strict=True).outcomes

    point = measure(info(n, t), value)
    assert (
        point.messages,
        point.signatures,
        point.phases_used,
        point.agreement_ok,
    ) == (
        plain.messages_by_correct,
        plain.signatures_by_correct,
        plain.phases_used,
        plain.agreement_ok,
    )
    configs = [({}, partial(info.build, n, t))]
    assert sweep_parallel(configs, values=(value,), workers=1) == [point]

    reset_worker_cache()
    served = serve(
        [
            AgreementRequest(request_id=0, algorithm=name, n=n, t=t, value=value),
            AgreementRequest(
                request_id=1,
                algorithm=name,
                n=n,
                t=t,
                value=value,
                fault_plan=plan,
                coin_seed=coin_seed,
            ),
        ]
    )
    assert_same(served[0], plain)
    assert_same(served[1], drawn)
    assert_same_class(fuzz(name, n, t, value), plain)
    assert_same_class(fuzz(name, n, t, value, plan, coin_seed), drawn)


def domain_of(name, n, t) -> list:
    domain = get(name)(n, t).value_domain
    return sorted(domain, key=repr) if domain is not None else [0, 1, 2]


@st.composite
def over_budget_plans(draw, n, t, num_phases) -> FaultPlan:
    """t+1 to 2t+1 processors, each crashed or omitting every send."""
    size = draw(st.integers(t + 1, min(2 * t + 1, n)), label="faulted")
    pids = draw(st.permutations(range(n)), label="pids")[:size]
    faults = []
    for pid in pids:
        first = draw(st.integers(1, num_phases), label=f"first {pid}")
        if draw(st.booleans(), label=f"crash {pid}"):
            faults.append(CrashFault(pid=pid, phase=first))
        else:
            faults.append(SendOmission(pid=pid, rate=1.0, first=first))
    return FaultPlan(faults=tuple(faults))


#: ``oral-messages`` (n=7, t=2), input 1, pids 1-3 crashed at phase 1: three
#: faults against t=2, so the divergence among the rest is benign.
OVER_BUDGET = FaultPlan(faults=tuple(CrashFault(pid=pid, phase=1) for pid in (1, 2, 3)))


class TestPathEquivalence:
    @pytest.mark.parametrize("name,n,t", ENTRIES)
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_every_path_agrees(self, name, n, t, data):
        info = get(name)
        value = data.draw(st.sampled_from(domain_of(name, n, t)), label="value")
        plan = None
        if info.family == "exact":
            plan_seed = data.draw(st.none() | st.integers(0, 2**16), label="plan")
            if plan_seed is not None:
                plan = random_plan(
                    plan_seed,
                    n=n,
                    t=t,
                    num_phases=info(n, t).num_phases(),
                    rate=0.5,
                )
        coin_seed = None
        if info.family == "randomized":
            coin_seed = data.draw(st.none() | st.integers(0, 2**32), label="coins")
        assert_paths_agree(name, n, t, value, plan, coin_seed)

    @pytest.mark.parametrize(
        "name,n,t", [entry for entry in ENTRIES if get(entry[0]).family == "exact"]
    )
    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_over_budget_plans_agree(self, name, n, t, data):
        value = data.draw(st.sampled_from(domain_of(name, n, t)), label="value")
        num_phases = get(name)(n, t).num_phases()
        plan = data.draw(over_budget_plans(n, t, num_phases), label="plan")
        assert_paths_agree(name, n, t, value, plan, None)

    def test_failing_verdicts_agree(self):
        # The transmitter's link to processor 1 is cut: the transmitter is
        # excused, yet processor 1 keeps the default while the others
        # decide 1, which the unexcused processors may not do.
        plan = FaultPlan(faults=(LinkDrop(src=0, dst=1, first=1),), seed=0)
        assert_paths_agree("strawman-undersigning", 5, 2, 1, plan, None)
        reset_worker_cache()
        (served,) = serve(
            [
                AgreementRequest(
                    request_id=0,
                    algorithm="strawman-undersigning",
                    n=5,
                    t=2,
                    value=1,
                    fault_plan=plan,
                )
            ]
        )
        assert not served.ok
        assert served.verdict.startswith("agreement violated")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_class_wider_than_a_stripe_is_served_like_one_case(self, workers):
        # One wave: a kernel class of MAX_STRIPE + 2 requests, interleaved
        # with a second kernel class and scalar, faulty and coin-seeded
        # classes of five requests each.
        phases = get("dolev-strong")(5, 2).num_phases()
        plan = random_plan(7, n=5, t=2, num_phases=phases, rate=0.5)
        others = [
            ("phase-king", 9, 2, 0, None, None),
            ("dolev-strong", 5, 2, 1, None, None),
            ("dolev-strong", 5, 2, 1, plan, None),
            ("dolev-strong", 5, 2, 0, plan, None),
            ("ben-or", 6, 1, 1, None, 3),
            ("ben-or", 6, 1, 1, None, 4),
        ]
        shapes = []
        for index in range(MAX_STRIPE + 2):
            shapes.append(("phase-king", 9, 2, 1, None, None))
            if index % 64 == 0:
                shapes.extend(others)
        requests = [
            AgreementRequest(
                request_id=request_id,
                algorithm=name,
                n=n,
                t=t,
                value=value,
                fault_plan=fault_plan,
                coin_seed=coin_seed,
            )
            for request_id, (name, n, t, value, fault_plan, coin_seed) in enumerate(shapes)
        ]
        reset_worker_cache()
        served = serve(requests, workers=workers)
        assert [outcome.request_id for outcome in served] == list(range(len(requests)))
        for request, outcome in zip(requests, served):
            case = BatchCase(
                value=request.value,
                fault_plan=request.fault_plan,
                coin_seed=request.coin_seed,
            )
            (expected,) = run_batch(get(request.algorithm)(request.n, request.t), [case]).outcomes
            assert_same(outcome, expected)

    def test_a_worker_pool_serves_the_same_outcomes(self):
        requests = []
        for name, n, t in ENTRIES:
            info = get(name)
            for value in domain_of(name, n, t)[:2]:
                plan = None
                if info.family == "exact":
                    plan = random_plan(
                        len(requests), n=n, t=t, num_phases=info(n, t).num_phases(), rate=0.5
                    )
                requests.append(
                    AgreementRequest(
                        request_id=len(requests),
                        algorithm=name,
                        n=n,
                        t=t,
                        value=value,
                        fault_plan=plan,
                        coin_seed=len(requests) if info.family == "randomized" else None,
                    )
                )

        def comparable(outcome: RequestOutcome) -> tuple:
            return (
                outcome.request_id,
                outcome.ok,
                outcome.verdict,
                outcome.decided,
                outcome.messages,
                outcome.signatures,
                outcome.phases_used,
                outcome.excused,
                outcome.fault_events,
            )

        reset_worker_cache()
        serial = [comparable(o) for o in serve(requests, workers=1)]
        reset_worker_cache()
        pooled = [comparable(o) for o in serve(requests, workers=2)]
        assert pooled == serial


class TestOneVerdict:
    def test_over_budget_crashes_are_benign_on_every_path(self):
        (outcome,) = run_batch(
            get("oral-messages")(7, 2),
            [BatchCase(value=1, fault_plan=OVER_BUDGET)],
            strict=True,
        ).outcomes
        assert outcome.kind == BENIGN and outcome.agreement_ok
        assert outcome.verdict.startswith("fault budget exceeded: agreement violated")
        assert outcome.excused == (1, 2, 3)
        assert_same_class(fuzz("oral-messages", 7, 2, 1, OVER_BUDGET), outcome)
        requests = [
            AgreementRequest(
                request_id=0,
                algorithm="oral-messages",
                n=7,
                t=2,
                value=1,
                fault_plan=OVER_BUDGET,
            ),
            # A second configuration gives the wave two stripes, so the
            # two-worker scheduler serves them on its pool.
            AgreementRequest(request_id=1, algorithm="phase-king", n=9, t=2, value=1),
        ]
        for workers in (1, 2):
            reset_worker_cache()
            served = serve(requests, workers=workers)
            assert_same(served[0], outcome)
            assert served[1].kind == "ok"

    def test_exceeded_declared_bound_is_bound_on_every_path(self, monkeypatch):
        n, t, value = 9, 2, 1
        measured = measure(PhaseKing(n, t), value).messages
        monkeypatch.setattr(PhaseKing, "message_bound", str(measured - 1))
        expected = (
            f"correct processors sent {measured} messages, "
            f"declared bound {measured - 1}"
        )

        point = measure(PhaseKing(n, t), value)
        assert (point.message_bound, point.agreement_ok) == (measured - 1, False)
        # A kernel row, and the same input forced through the runner (an
        # adversary factory disables dedup and kernels); strict mode
        # re-runs the row's class through the runner too.
        kernel_row, scalar_run = run_batch(
            PhaseKing(n, t),
            [
                BatchCase(value=value),
                BatchCase(value=value, adversary_factory=lambda algorithm: None),
            ],
            strict=True,
        ).outcomes
        assert kernel_row.kernel and not scalar_run.kernel
        for outcome in (kernel_row, scalar_run):
            assert (outcome.kind, outcome.verdict) == (BOUND, expected)
            assert not outcome.agreement_ok
        configs = [({}, partial(get("phase-king").build, n, t))]
        assert sweep_parallel(configs, values=(value,), workers=1) == [point]
        reset_worker_cache()
        (served,) = serve(
            [AgreementRequest(request_id=0, algorithm="phase-king", n=n, t=t, value=value)]
        )
        assert (served.ok, served.kind, served.verdict) == (False, BOUND, expected)
        fuzzed = fuzz("phase-king", n, t, value)
        assert (fuzzed.verdict, fuzzed.detail, fuzzed.failed) == (BOUND, expected, True)
