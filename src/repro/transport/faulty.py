"""FaultyTransport: a fault-injecting decorator over any base transport.

Wraps a base :class:`~repro.transport.base.Transport` (the perfect
lockstep network by default) and applies a seeded
:class:`~repro.transport.faults.FaultPlan` to every phase's traffic:
crash-stop processors (with optional recovery), send/receive omissions,
per-link drops, k-phase delays, duplicates, and network partitions.

Every intervention is recorded as a schema-versioned ``fault`` event
(``repro-fault/1``) which the runner forwards into the ``repro-trace/1``
sinks — ``repro inspect`` can attribute any divergence from the
fault-free run to the exact injected faults.  The phase-0 input edge is
exempt: a processor always knows its own private value; withholding the
input is an adversary strategy, not a network fault.

With an empty plan the decorator is behaviourally transparent: the
equivalence tests pin that traces and metrics are byte-identical to the
undecorated base transport.
"""

from __future__ import annotations

from typing import Any

from repro.core.message import Envelope
from repro.core.types import ProcessorId
from repro.transport.base import LockstepTransport, Transport
from repro.transport.faults import FAULT_SCHEMA, FaultPlan, unit_coin


class FaultyTransport:
    """Applies a :class:`FaultPlan` around a base transport's routing.

    Per-run state (delayed envelopes, recorded events) is reset by
    :meth:`begin_run`, so one instance can be reused across sequential
    runs — each run replays the same plan, which is what a seeded chaos
    campaign wants.
    """

    def __init__(self, plan: FaultPlan, base: Transport | None = None) -> None:
        self.plan = plan
        self.base: Transport = base if base is not None else LockstepTransport()
        self._delayed: dict[int, list[Envelope]] = {}
        self._events: list[dict[str, Any]] = []

    # ------------------------------------------------------------- lifecycle

    def begin_run(self) -> None:
        self._delayed = {}
        self._events = []
        self.base.begin_run()

    def deliver(
        self, phase: int, sent: list[Envelope], correct_count: int
    ) -> dict[ProcessorId, list[Envelope]]:
        """Filter *sent* through the plan, then route the survivors.

        Send-side faults (sender crash, send omission, link drop,
        partition, delay capture, duplication) are judged at the sending
        phase; receive-side faults (receiver crash, receive omission) at
        the delivery phase ``phase + 1`` — including for envelopes that
        were delayed into this delivery round.
        """
        survivors: list[Envelope] = []
        extras: list[Envelope] = []
        surviving_correct = 0
        for index, envelope in enumerate(sent):
            copies = self._send_side(phase, envelope)
            if copies == 0:
                continue
            if not self._receivable(phase + 1, envelope):
                continue
            survivors.append(envelope)
            if index < correct_count:
                surviving_correct += 1
            extras.extend([envelope] * (copies - 1))
        # Envelopes delayed from earlier phases that are due now; their
        # receive side is judged against *this* delivery phase.
        for envelope in self._delayed.pop(phase + 1, []):
            if self._receivable(phase + 1, envelope):
                extras.append(envelope)
        # Survivors keep the runner's ordering invariant (a filtered
        # subsequence of correct-then-adversary traffic); duplicates and
        # late arrivals are routed as adversary-style extras, so the
        # base transport's merge stays valid.
        return self.base.deliver(phase, survivors + extras, surviving_correct)

    def drain_faults(self) -> list[dict[str, Any]]:
        events, self._events = self._events, []
        return events

    def end_run(self) -> list[dict[str, Any]]:
        """Report delayed envelopes that never made it before the end."""
        for due_phase in sorted(self._delayed):
            for envelope in self._delayed[due_phase]:
                self._record(
                    "lost",
                    phase=envelope.phase,
                    src=envelope.src,
                    dst=envelope.dst,
                    detail=f"delayed past the final phase (due {due_phase})",
                )
        self._delayed = {}
        leftovers = self.base.end_run()
        return self.drain_faults() + list(leftovers)

    # ------------------------------------------------------------ fault logic

    def _send_side(self, phase: int, envelope: Envelope) -> int:
        """Judge sender-side faults; returns how many copies to deliver
        (0 = dropped or captured for later delivery)."""
        if envelope.is_input_edge():
            return 1
        src, dst = envelope.src, envelope.dst
        for fault in self.plan.faults:
            kind = fault.kind
            if kind == "crash" and fault.pid == src and fault.active(phase):
                self._record(
                    "crash", phase=phase, pid=src, src=src, dst=dst,
                    detail=f"sender {src} crashed at phase {fault.phase}",
                )
                return 0
            if (
                kind == "omission_send"
                and fault.pid == src
                and fault.active(phase)
                and self._coin("omission_send", phase, envelope) < fault.rate
            ):
                self._record(
                    "omission_send", phase=phase, src=src, dst=dst,
                    detail=f"send omission at rate {fault.rate}",
                )
                return 0
            if (
                kind == "drop"
                and fault.src == src
                and fault.dst == dst
                and fault.active(phase)
            ):
                self._record(
                    "drop", phase=phase, src=src, dst=dst,
                    detail=f"link {src}->{dst} down",
                )
                return 0
            if kind == "partition" and fault.active(phase) and fault.severs(src, dst):
                self._record(
                    "partition", phase=phase,
                    pid=src if src in fault.group else dst, src=src, dst=dst,
                    detail=f"cut {{{','.join(map(str, fault.group))}}} | rest",
                )
                return 0
            if (
                kind == "delay"
                and fault.src == src
                and fault.dst == dst
                and fault.active(phase)
            ):
                due = phase + 1 + fault.delay
                self._delayed.setdefault(due, []).append(envelope)
                self._record(
                    "delay", phase=phase, src=src, dst=dst, until=due,
                    detail=f"delivery postponed to phase {due}",
                )
                return 0
        copies = 1
        for fault in self.plan.of_kind("duplicate"):
            if fault.src == src and fault.dst == dst and fault.active(phase):
                copies = max(copies, fault.copies)
                self._record(
                    "duplicate", phase=phase, src=src, dst=dst,
                    copies=copies, detail=f"delivered {copies} times",
                )
        return copies

    def _receivable(self, delivery_phase: int, envelope: Envelope) -> bool:
        """Judge receiver-side faults at the delivery phase."""
        dst = envelope.dst
        for fault in self.plan.faults:
            kind = fault.kind
            if kind == "crash" and fault.pid == dst and fault.active(delivery_phase):
                self._record(
                    "crash", phase=delivery_phase, pid=dst,
                    src=envelope.src, dst=dst,
                    detail=f"receiver {dst} crashed at phase {fault.phase}",
                )
                return False
            if (
                kind == "omission_recv"
                and fault.pid == dst
                and fault.active(delivery_phase)
                and self._coin("omission_recv", delivery_phase, envelope) < fault.rate
            ):
                self._record(
                    "omission_recv", phase=delivery_phase,
                    src=envelope.src, dst=dst,
                    detail=f"receive omission at rate {fault.rate}",
                )
                return False
        return True

    def _coin(self, kind: str, phase: int, envelope: Envelope) -> float:
        """An order-independent coin for one (fault kind, envelope) pair."""
        return unit_coin(
            self.plan.seed, kind, phase, envelope.src, envelope.dst, envelope.phase
        )

    def _record(self, kind: str, **data: Any) -> None:
        event: dict[str, Any] = {
            "event": "fault",
            "fault_schema": FAULT_SCHEMA,
            "kind": kind,
        }
        event.update(data)
        self._events.append(event)
