"""FaultyTransport behaviour: each fault kind, observed through real runs."""

from repro.algorithms.registry import get
from repro.core.runner import run
from repro.core.validation import check_byzantine_agreement
from repro.obs.events import ListSink
from repro.transport.faults import (
    CrashFault,
    Delay,
    Duplicate,
    FaultPlan,
    LinkDrop,
    Partition,
    ReceiveOmission,
    SendOmission,
    excused_processors,
)
from repro.transport.faulty import FaultyTransport


def run_with(plan, *, algorithm="dolev-strong", n=6, t=2, value=1, sinks=()):
    return run(
        get(algorithm)(n, t), value, transport=FaultyTransport(plan), sinks=sinks
    )


def kinds(result):
    return {event["kind"] for event in result.fault_events}


class TestCrash:
    def test_crash_is_recorded_and_excused(self):
        result = run_with(FaultPlan(faults=(CrashFault(pid=2, phase=1),)))
        assert kinds(result) == {"crash"}
        excused = excused_processors(result.fault_events)
        assert excused == frozenset({2})
        # Survivors still reach Byzantine Agreement without the crashed pid.
        report = check_byzantine_agreement(result, excused=excused)
        assert report.ok
        assert "excused: [2]" in str(report)

    def test_crashed_processor_may_diverge(self):
        result = run_with(FaultPlan(faults=(CrashFault(pid=2, phase=1),)))
        # pid 2 hears nothing after phase 1, so the full (unexcused) check
        # sees its stale decision.
        assert result.decisions[2] != result.decisions[0]
        assert not check_byzantine_agreement(result).ok

    def test_recovery_resumes_delivery(self):
        crashed = run_with(FaultPlan(faults=(CrashFault(pid=2, phase=1),)))
        recovered = run_with(
            FaultPlan(faults=(CrashFault(pid=2, phase=1, recovery_phase=2),))
        )
        assert len(recovered.fault_events) < len(crashed.fault_events)


class TestOmissionsAndDrops:
    def test_send_omission_rate_one_silences_the_sender(self):
        result = run_with(FaultPlan(faults=(SendOmission(pid=1, rate=1.0),)))
        assert kinds(result) == {"omission_send"}
        assert all(e["src"] == 1 for e in result.fault_events)

    def test_receive_omission_targets_the_receiver(self):
        result = run_with(FaultPlan(faults=(ReceiveOmission(pid=4, rate=1.0),)))
        assert kinds(result) == {"omission_recv"}
        assert all(e["dst"] == 4 for e in result.fault_events)

    def test_probabilistic_omission_is_seed_deterministic(self):
        plan = FaultPlan(faults=(SendOmission(pid=1, rate=0.5),), seed=9)
        a, b = run_with(plan), run_with(plan)
        assert a.fault_events == b.fault_events
        assert a.decisions == b.decisions
        other = FaultPlan(faults=(SendOmission(pid=1, rate=0.5),), seed=10)
        assert run_with(other).fault_events != a.fault_events

    def test_link_drop_severs_one_direction_only(self):
        result = run_with(FaultPlan(faults=(LinkDrop(src=0, dst=4),)))
        assert {(e["src"], e["dst"]) for e in result.fault_events} == {(0, 4)}

    def test_partition_cuts_both_directions(self):
        # The cut starts at phase 2: pid 2 received the transmitter's
        # chain in phase 1, so it has relays to lose — and everyone
        # else's phase-2 relays to it are lost too.
        result = run_with(
            FaultPlan(faults=(Partition(group=(2,), first=2, last=2),))
        )
        endpoints = {(e["src"], e["dst"]) for e in result.fault_events}
        assert all(2 in pair for pair in endpoints)
        assert any(e["src"] == 2 for e in result.fault_events)
        assert any(e["dst"] == 2 for e in result.fault_events)

    def test_partition_blames_the_isolated_receiver(self):
        # Processor 1 is cut off while it only receives: the transmitter's
        # phase-1 chain and the phase-2 relays to it are lost.  Blaming the
        # senders would excuse {0, 3, 4} (more than t) and leave 1's stale
        # decision unexplained.
        plan = FaultPlan(faults=(Partition(group=(1,), first=1, last=2),), seed=0)
        algorithm = get("algorithm-1")(5, 2)
        result = run(algorithm, 1, transport=FaultyTransport(plan))
        assert {e["pid"] for e in result.fault_events} == {1}
        excused = excused_processors(result.fault_events)
        assert excused == frozenset({1})
        assert algorithm.conditions(result, excused).ok


class TestDelayAndDuplicate:
    def test_delay_postpones_and_records_due_phase(self):
        result = run_with(FaultPlan(faults=(Delay(src=0, dst=3, delay=1),)))
        delays = [e for e in result.fault_events if e["kind"] == "delay"]
        assert delays
        assert all(e["until"] == e["phase"] + 2 for e in delays)

    def test_delay_past_the_end_is_lost(self):
        # A 10-phase delay on a 3-phase run can never be delivered: the
        # capture is recorded as 'delay', the write-off as 'lost'.
        plan = FaultPlan(faults=(Delay(src=0, dst=3, delay=10),))
        result = run_with(plan)
        assert kinds(result) == {"delay", "lost"}

    def test_duplicate_preserves_agreement(self):
        result = run_with(FaultPlan(faults=(Duplicate(src=0, dst=3, copies=3),)))
        assert "duplicate" in kinds(result)
        assert check_byzantine_agreement(result).ok


class TestEventPlumbing:
    def test_fault_events_reach_the_sinks(self):
        sink = ListSink()
        result = run_with(
            FaultPlan(faults=(CrashFault(pid=2, phase=1),)), sinks=(sink,)
        )
        traced = sink.of_kind("fault")
        assert traced == list(result.fault_events)
        assert all(e["fault_schema"] == "repro-fault/1" for e in traced)

    def test_instance_reusable_across_runs(self):
        transport = FaultyTransport(FaultPlan(faults=(CrashFault(pid=2),)))
        algorithm = get("dolev-strong")(6, 2)
        first = run(algorithm, 1, transport=transport)
        second = run(algorithm, 1, transport=transport)
        assert first.fault_events == second.fault_events
        assert first.decisions == second.decisions

    def test_input_edge_is_exempt(self):
        # Even a fully crashed transmitter keeps its own input: no fault
        # event ever names the phase-0 input edge.
        result = run_with(FaultPlan(faults=(CrashFault(pid=0, phase=1),)))
        assert all(e["phase"] >= 1 for e in result.fault_events)
