"""The fault filter pinned against a per-envelope reference judge.

Each phase, :class:`~repro.transport.faulty.FaultyTransport` judges only
the envelopes an active fault can touch and passes the rest untouched.
:class:`ReferenceJudge` below is the plain reading of a
:class:`~repro.transport.faults.FaultPlan`: it judges every envelope
against every fault, in plan order (the sender's side at the sending
phase, the receiver's at the delivery phase), delivers each survivor once
in sending order, then the extra copies of duplicated envelopes, then the
delayed envelopes due in that phase, and routes them with the reference
per-inbox sort (``route_by_inbox``).  Over plans that mix all seven fault
kinds (windows, rates, delays, copies and multi-pid partitions), both must
hand out the same inboxes and record the same fault events in the same
order, phase by phase and at the end of the run: on synthetic traffic, and
inside real runs of an authenticated and an unauthenticated algorithm.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import get
from repro.core.message import Envelope
from repro.core.runner import run
from repro.transport.faults import (
    FAULT_KINDS,
    FAULT_SCHEMA,
    CrashFault,
    Delay,
    Duplicate,
    FaultPlan,
    LinkDrop,
    Partition,
    ReceiveOmission,
    SendOmission,
    unit_coin,
)
from repro.transport.faulty import FaultyTransport
from tests.conftest import route_by_inbox

#: (name, n, t): one authenticated and one unauthenticated algorithm.
RUNS = (("dolev-strong", 6, 2), ("phase-king", 9, 2))


class ReferenceJudge:
    """Every envelope against every fault, one envelope at a time."""

    def __init__(self, plan):
        self.plan = plan
        self.delayed = {}
        self.events = []

    def deliver(self, phase, sent):
        survivors, extras = [], []
        for envelope in sent:
            copies = self.send_side(phase, envelope)
            if copies and self.receivable(phase + 1, envelope):
                survivors.append(envelope)
                extras.extend([envelope] * (copies - 1))
        for envelope in self.delayed.pop(phase + 1, []):
            if self.receivable(phase + 1, envelope):
                extras.append(envelope)
        return route_by_inbox(survivors + extras)

    def drain_faults(self):
        events, self.events = self.events, []
        return events

    def end_run(self):
        for due in sorted(self.delayed):
            for envelope in self.delayed[due]:
                self.record(
                    "lost", phase=envelope.phase, src=envelope.src, dst=envelope.dst,
                    detail=f"delayed past the final phase (due {due})",
                )
        self.delayed = {}
        return self.drain_faults()

    def send_side(self, phase, envelope):
        """How many copies the sender's side lets through (0: none)."""
        if envelope.is_input_edge():
            return 1
        src, dst = envelope.src, envelope.dst
        for fault in self.plan.faults:
            if not fault.active(phase):
                continue
            if fault.kind == "crash" and fault.pid == src:
                self.record(
                    "crash", phase=phase, pid=src, src=src, dst=dst,
                    detail=f"sender {src} crashed at phase {fault.phase}",
                )
                return 0
            if (
                fault.kind == "omission_send"
                and fault.pid == src
                and self.coin("omission_send", phase, envelope) < fault.rate
            ):
                self.record(
                    "omission_send", phase=phase, src=src, dst=dst,
                    detail=f"send omission at rate {fault.rate}",
                )
                return 0
            if fault.kind == "drop" and (fault.src, fault.dst) == (src, dst):
                self.record(
                    "drop", phase=phase, src=src, dst=dst, detail=f"link {src}->{dst} down"
                )
                return 0
            if fault.kind == "partition" and fault.severs(src, dst):
                self.record(
                    "partition", phase=phase,
                    pid=src if src in fault.group else dst, src=src, dst=dst,
                    detail=f"cut {{{','.join(map(str, fault.group))}}} | rest",
                )
                return 0
            if fault.kind == "delay" and (fault.src, fault.dst) == (src, dst):
                due = phase + 1 + fault.delay
                self.delayed.setdefault(due, []).append(envelope)
                self.record(
                    "delay", phase=phase, src=src, dst=dst, until=due,
                    detail=f"delivery postponed to phase {due}",
                )
                return 0
        copies = 1
        for fault in self.plan.faults:
            if (
                fault.kind == "duplicate"
                and (fault.src, fault.dst) == (src, dst)
                and fault.active(phase)
            ):
                copies = max(copies, fault.copies)
                self.record(
                    "duplicate", phase=phase, src=src, dst=dst,
                    copies=copies, detail=f"delivered {copies} times",
                )
        return copies

    def receivable(self, delivery_phase, envelope):
        """Whether the receiver's side lets *envelope* in."""
        dst = envelope.dst
        for fault in self.plan.faults:
            if not fault.active(delivery_phase):
                continue
            if fault.kind == "crash" and fault.pid == dst:
                self.record(
                    "crash", phase=delivery_phase, pid=dst, src=envelope.src, dst=dst,
                    detail=f"receiver {dst} crashed at phase {fault.phase}",
                )
                return False
            if (
                fault.kind == "omission_recv"
                and fault.pid == dst
                and self.coin("omission_recv", delivery_phase, envelope) < fault.rate
            ):
                self.record(
                    "omission_recv", phase=delivery_phase, src=envelope.src, dst=dst,
                    detail=f"receive omission at rate {fault.rate}",
                )
                return False
        return True

    def coin(self, kind, phase, envelope):
        return unit_coin(
            self.plan.seed, kind, phase, envelope.src, envelope.dst, envelope.phase
        )

    def record(self, kind, **data):
        self.events.append(
            {"event": "fault", "fault_schema": FAULT_SCHEMA, "kind": kind, **data}
        )


def ordered(events):
    """Events as text: equal only with the same keys in the same order."""
    return [json.dumps(event) for event in events]


class Twin:
    """A transport that delivers through the filter and checks every phase,
    and the end of the run, against the reference judge."""

    def __init__(self, plan):
        self.filtered = FaultyTransport(plan)
        self.reference = ReferenceJudge(plan)
        self.events = []
        self.recorded = 0

    def deliver(self, phase, sent):
        inboxes = self.filtered.deliver(phase, list(sent))
        expected = self.reference.deliver(phase, list(sent))
        assert inboxes == expected, f"phase {phase}"
        self.events = self.filtered.drain_faults()
        assert ordered(self.events) == ordered(self.reference.drain_faults())
        self.recorded += len(self.events)
        return inboxes

    def drain_faults(self):
        events, self.events = self.events, []
        return events

    def end_run(self):
        leftovers = self.filtered.end_run()
        assert ordered(leftovers) == ordered(self.reference.end_run())
        self.recorded += len(leftovers)
        return leftovers


@st.composite
def faults(draw, n, phases):
    """One fault of any kind whose window may open past the last phase."""
    kind = draw(st.sampled_from(sorted(FAULT_KINDS)))
    first = draw(st.integers(1, phases + 1))
    last = draw(st.none() | st.integers(first, phases + 1))
    pid = st.integers(0, n - 1)
    if kind == "crash":
        recovery = None if last is None else last + 1
        return CrashFault(pid=draw(pid), phase=first, recovery_phase=recovery)
    if kind in ("omission_send", "omission_recv"):
        rate = draw(st.sampled_from((0.0, 0.25, 0.5, 1.0)))
        omission = SendOmission if kind == "omission_send" else ReceiveOmission
        return omission(pid=draw(pid), rate=rate, first=first, last=last)
    if kind == "partition":
        group = draw(st.lists(pid, min_size=1, max_size=n - 1, unique=True))
        return Partition(group=tuple(group), first=first, last=last)
    src = draw(pid)
    dst = draw(pid.filter(lambda q: q != src))
    if kind == "drop":
        return LinkDrop(src=src, dst=dst, first=first, last=last)
    if kind == "delay":
        return Delay(src=src, dst=dst, delay=draw(st.integers(1, 3)), first=first, last=last)
    return Duplicate(src=src, dst=dst, copies=draw(st.integers(2, 3)), first=first, last=last)


@st.composite
def plans(draw, n, phases):
    plan = FaultPlan(
        faults=tuple(draw(st.lists(faults(n, phases), min_size=1, max_size=6))),
        seed=draw(st.integers(0, 2**16)),
    )
    plan.check(n)
    return plan


def traffic(rng, n, phase):
    """One phase of sends: the correct processors' in ascending pid order
    (several to one receiver allowed), then the faulty ones' in any order."""
    faulty = set(rng.sample(range(n), rng.randint(0, 2)))
    correct = [
        Envelope(src=src, dst=dst, phase=phase, payload=(src, dst, k))
        for src in range(n)
        if src not in faulty
        for dst in rng.sample(range(n), rng.randint(0, n - 1))
        if dst != src
        for k in range(rng.choice((1, 1, 2)))
    ]
    adversary = [
        Envelope(src=src, dst=dst, phase=phase, payload=("x", src, dst))
        for src in faulty
        for dst in range(n)
        if dst != src and rng.random() < 0.6
    ]
    rng.shuffle(adversary)
    return correct + adversary


class TestFaultFilter:
    @settings(max_examples=60, deadline=None)
    @given(plan=plans(7, 6), seed=st.integers(0, 2**16))
    def test_synthetic_traffic_matches_the_reference(self, plan, seed):
        rng = random.Random(seed)
        twin = Twin(plan)
        for phase in range(1, 7):
            twin.deliver(phase, traffic(rng, 7, phase))
        twin.end_run()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_runs_match_the_reference(self, data):
        for name, n, t in RUNS:
            algorithm = get(name)(n, t)
            plan = data.draw(plans(n, algorithm.num_phases()), label=name)
            value = data.draw(st.sampled_from((0, 1)), label="value")
            twin = Twin(plan)
            result = run(algorithm, value, transport=twin, record_history=False)
            assert len(result.fault_events) == twin.recorded
            plain = run(
                get(name)(n, t), value, transport=FaultyTransport(plan), record_history=False
            )
            assert ordered(plain.fault_events) == ordered(result.fault_events)
            assert plain.decisions == result.decisions

    def test_a_plan_of_every_kind_records_every_kind(self):
        # The harness sees what it checks: a fixed plan of all seven
        # kinds, with a delay that outlives the run, records each kind.
        plan = FaultPlan(
            faults=(
                CrashFault(pid=5, phase=2, recovery_phase=3),
                SendOmission(pid=1, rate=0.5, first=1),
                ReceiveOmission(pid=4, rate=1.0, first=2),
                LinkDrop(src=2, dst=3, first=1),
                Delay(src=0, dst=3, delay=9, first=1),
                Duplicate(src=0, dst=2, copies=3, first=1),
                Partition(group=(3, 4), first=3, last=3),
            ),
            seed=4,
        )
        for name, n, t in RUNS:
            twin = Twin(plan)
            result = run(get(name)(n, t), 1, transport=twin, record_history=False)
            assert {event["kind"] for event in result.fault_events} == {
                "crash", "omission_send", "omission_recv", "drop", "delay",
                "duplicate", "partition", "lost",
            }, name
