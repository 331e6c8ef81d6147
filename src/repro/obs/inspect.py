"""Trace inspection: summarise a saved ``repro-trace/1`` JSONL file.

The reference consumer of the event stream written by
:class:`~repro.obs.events.JsonlTraceSink`.  A single pass over the events
rebuilds the per-phase message/signature histograms and the
correct/faulty split *from the send events alone*, then cross-checks them
against the ledger snapshot the runner recorded in ``run_end`` — any
mismatch means the trace is corrupt or the producer and consumer disagree
about the schema, and is surfaced as a consistency error.

The summary also reports *adaptive cost*: how much traffic the run cost
against the number of processors that were **actually** faulty (``f``),
not the tolerance ``t`` it was configured for — the per-actual-fault view
of Cohen–Keidar–Spiegelman (2022), which a totals-only ledger cannot
express after the fact.  ``f`` counts the adversary-corrupted processors
and the ones an injected fault touched, as
:func:`repro.core.validation.judge_run` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.events import TRACE_SCHEMA, read_events
from repro.transport.faults import excused_processors


class TraceFormatError(ValueError):
    """The file is not a readable ``repro-trace/1`` stream."""


@dataclass(slots=True)
class TraceSummary:
    """Everything :func:`summarize_trace` recovers from one trace file."""

    path: str
    schema: str
    algorithm: str
    n: int
    t: int
    transmitter: int
    input_value: Any
    faulty: list[int]
    phases_configured: int
    rushing: bool
    events: int = 0
    complete: bool = False
    messages_per_phase: dict[int, int] = field(default_factory=dict)
    signatures_per_phase: dict[int, int] = field(default_factory=dict)
    messages_by_correct: int = 0
    messages_by_faulty: int = 0
    signatures_by_correct: int = 0
    signatures_by_faulty: int = 0
    sent_per_processor: dict[int, int] = field(default_factory=dict)
    #: Injected delivery faults, aggregated by kind (``crash``,
    #: ``omission_send``, ...); empty for a perfect-network trace.
    faults_by_kind: dict[str, int] = field(default_factory=dict)
    #: The raw ``fault`` events, in injection order.
    fault_events: list[dict[str, Any]] = field(default_factory=list)
    decisions: dict[int, Any] = field(default_factory=dict)
    recorded_ledger: dict[str, Any] | None = None
    recorded_messages_per_phase: dict[int, int] | None = None
    recorded_signatures_per_phase: dict[int, int] | None = None
    #: The run's :class:`~repro.core.counters.Counters` as ``run_end``
    #: recorded them (``None`` for a trace written before they were).
    counters: dict[str, Any] | None = None
    telemetry: dict[str, Any] | None = None

    # ---------------------------------------------------------------- derived

    @property
    def actual_faults(self) -> int:
        """``f``: the processors that were faulty or that an injected fault
        touched — ``judge_run``'s count, which may exceed ``t``."""
        return len(set(self.faulty).union(self.fault_excused()))

    @property
    def total_messages(self) -> int:
        """Messages sent by anyone, recomputed from the send events."""
        return self.messages_by_correct + self.messages_by_faulty

    @property
    def total_signatures(self) -> int:
        """Signatures appended by anyone, recomputed from the send events."""
        return self.signatures_by_correct + self.signatures_by_faulty

    @property
    def faults_injected(self) -> int:
        """Total ``fault`` events in the trace."""
        return sum(self.faults_by_kind.values())

    def fault_excused(self) -> list[int]:
        """Processors the crash-tolerant oracle would excuse for these
        faults (see :func:`repro.transport.faults.excused_processors`)."""
        return sorted(excused_processors(self.fault_events))

    def adaptive_cost(self) -> dict[str, float | int | None]:
        """Correct-sender cost per *actual* fault (``None`` if fault-free)."""
        f = self.actual_faults
        return {
            "actual_faults": f,
            "messages_per_fault": round(self.messages_by_correct / f, 2) if f else None,
            "signatures_per_fault": (
                round(self.signatures_by_correct / f, 2) if f else None
            ),
        }

    def consistency_errors(self) -> list[str]:
        """Disagreements between recomputed counts and the recorded ledger.

        An empty list is the invariant the round-trip tests pin: counts
        aggregated from ``send`` events exactly equal the
        :class:`~repro.core.metrics.MetricsLedger` totals the runner
        recorded in ``run_end``.
        """
        errors: list[str] = []
        if not self.complete:
            errors.append("trace is incomplete: no run_end event")
            return errors
        ledger = self.recorded_ledger or {}
        recomputed = {
            "messages_by_correct": self.messages_by_correct,
            "messages_by_faulty": self.messages_by_faulty,
            "signatures_by_correct": self.signatures_by_correct,
            "signatures_by_faulty": self.signatures_by_faulty,
        }
        for key, value in recomputed.items():
            if key in ledger and ledger[key] != value:
                errors.append(
                    f"{key}: recomputed {value} != recorded {ledger[key]}"
                )
        if (
            self.recorded_messages_per_phase is not None
            and self.recorded_messages_per_phase != self.messages_per_phase
        ):
            errors.append(
                f"messages_per_phase: recomputed {self.messages_per_phase} "
                f"!= recorded {self.recorded_messages_per_phase}"
            )
        if (
            self.recorded_signatures_per_phase is not None
            and self.recorded_signatures_per_phase != self.signatures_per_phase
        ):
            errors.append(
                f"signatures_per_phase: recomputed {self.signatures_per_phase} "
                f"!= recorded {self.recorded_signatures_per_phase}"
            )
        return errors

    def to_json_dict(self) -> dict[str, Any]:
        """The summary as one JSON document (``repro inspect --json``)."""
        return {
            "schema": self.schema,
            "path": self.path,
            "algorithm": self.algorithm,
            "n": self.n,
            "t": self.t,
            "transmitter": self.transmitter,
            "input_value": self.input_value,
            "faulty": list(self.faulty),
            "phases_configured": self.phases_configured,
            "rushing": self.rushing,
            "events": self.events,
            "complete": self.complete,
            "messages_per_phase": {str(k): v for k, v in self.messages_per_phase.items()},
            "signatures_per_phase": {
                str(k): v for k, v in self.signatures_per_phase.items()
            },
            "messages_by_correct": self.messages_by_correct,
            "messages_by_faulty": self.messages_by_faulty,
            "signatures_by_correct": self.signatures_by_correct,
            "signatures_by_faulty": self.signatures_by_faulty,
            "sent_per_processor": {
                str(k): v for k, v in sorted(self.sent_per_processor.items())
            },
            "decisions": {str(k): v for k, v in sorted(self.decisions.items())},
            "faults_by_kind": dict(sorted(self.faults_by_kind.items())),
            "fault_excused": self.fault_excused(),
            "adaptive_cost": self.adaptive_cost(),
            "consistency_errors": self.consistency_errors(),
            "counters": self.counters,
            "telemetry": self.telemetry,
        }


def summarize_trace(path: str | Path) -> TraceSummary:
    """Read one JSONL trace and aggregate it into a :class:`TraceSummary`.

    Raises:
        TraceFormatError: when the first event is not a ``run_start`` with
            a supported schema, or the stream is empty.
    """
    summary: TraceSummary | None = None
    for event in read_events(path):
        kind = event.get("event")
        if summary is None:
            if kind != "run_start":
                raise TraceFormatError(
                    f"{path}: first event is {kind!r}, expected 'run_start'"
                )
            schema = str(event.get("schema", ""))
            if schema != TRACE_SCHEMA:
                raise TraceFormatError(
                    f"{path}: unsupported trace schema {schema!r} "
                    f"(expected {TRACE_SCHEMA!r})"
                )
            summary = TraceSummary(
                path=str(path),
                schema=schema,
                algorithm=str(event.get("algorithm", "?")),
                n=int(event["n"]),
                t=int(event["t"]),
                transmitter=int(event.get("transmitter", 0)),
                input_value=event.get("input_value"),
                faulty=[int(pid) for pid in event.get("faulty", [])],
                phases_configured=int(event.get("phases_configured", 0)),
                rushing=bool(event.get("rushing", False)),
            )
            summary.events = 1
            continue
        summary.events += 1
        if kind == "send":
            phase = int(event["phase"])
            signatures = int(event.get("signatures", 0))
            src = int(event["src"])
            summary.messages_per_phase[phase] = (
                summary.messages_per_phase.get(phase, 0) + 1
            )
            summary.signatures_per_phase[phase] = (
                summary.signatures_per_phase.get(phase, 0) + signatures
            )
            summary.sent_per_processor[src] = (
                summary.sent_per_processor.get(src, 0) + 1
            )
            if event.get("sender_correct", True):
                summary.messages_by_correct += 1
                summary.signatures_by_correct += signatures
            else:
                summary.messages_by_faulty += 1
                summary.signatures_by_faulty += signatures
        elif kind == "fault":
            fault_kind = str(event.get("kind", "?"))
            summary.faults_by_kind[fault_kind] = (
                summary.faults_by_kind.get(fault_kind, 0) + 1
            )
            summary.fault_events.append(dict(event))
        elif kind == "decide":
            summary.decisions[int(event["processor"])] = event.get("decision")
        elif kind == "run_end":
            summary.complete = True
            ledger = event.get("ledger")
            summary.recorded_ledger = dict(ledger) if isinstance(ledger, dict) else None
            for source_key, target in (
                ("messages_per_phase", "recorded_messages_per_phase"),
                ("signatures_per_phase", "recorded_signatures_per_phase"),
            ):
                recorded = event.get(source_key)
                if isinstance(recorded, dict):
                    setattr(
                        summary,
                        target,
                        {int(k): int(v) for k, v in recorded.items()},
                    )
            counters = event.get("counters")
            summary.counters = counters if isinstance(counters, dict) else None
            telemetry = event.get("telemetry")
            summary.telemetry = telemetry if isinstance(telemetry, dict) else None
    if summary is None:
        raise TraceFormatError(f"{path}: empty trace")
    return summary


def render_summary(summary: TraceSummary) -> str:
    """The human-readable ``repro inspect`` report."""
    out = [
        f"trace     : {summary.path} ({summary.schema}, {summary.events} events"
        f"{'' if summary.complete else ', INCOMPLETE'})",
        f"run       : {summary.algorithm} n={summary.n} t={summary.t} "
        f"transmitter={summary.transmitter} input={summary.input_value!r}",
        f"faulty    : {summary.faulty or 'none'} (f={summary.actual_faults}, "
        f"{'within' if summary.actual_faults <= summary.t else 'over'} t={summary.t})",
    ]
    out.append("phase  messages  signatures")
    for phase in range(1, summary.phases_configured + 1):
        out.append(
            f"{phase:>5}  {summary.messages_per_phase.get(phase, 0):>8}  "
            f"{summary.signatures_per_phase.get(phase, 0):>10}"
        )
    out.append(
        f"totals    : messages {summary.messages_by_correct} correct "
        f"+ {summary.messages_by_faulty} faulty, "
        f"signatures {summary.signatures_by_correct} correct "
        f"+ {summary.signatures_by_faulty} faulty"
    )
    if summary.faults_by_kind:
        kinds = ", ".join(
            f"{kind}×{count}" for kind, count in sorted(summary.faults_by_kind.items())
        )
        out.append(
            f"injected  : {summary.faults_injected} delivery faults ({kinds}), "
            f"excusing {summary.fault_excused() or 'nobody'}"
        )
    adaptive = summary.adaptive_cost()
    if summary.actual_faults:
        out.append(
            f"adaptive  : f={adaptive['actual_faults']}, "
            f"{adaptive['messages_per_fault']} msgs/fault, "
            f"{adaptive['signatures_per_fault']} sigs/fault (correct senders)"
        )
    else:
        out.append("adaptive  : fault-free run (f=0) — no per-fault cost")
    if summary.decisions:
        values = sorted({repr(v) for v in summary.decisions.values()})
        out.append(
            f"decisions : {len(summary.decisions)} correct processors, "
            f"values {values}"
        )
    if summary.telemetry is not None:
        out.append(
            f"timing    : wall {summary.telemetry.get('wall_s')}s, "
            f"cpu {summary.telemetry.get('cpu_s')}s over "
            f"{len(summary.telemetry.get('per_phase', []))} phases"
        )
    if summary.counters is not None:
        nonzero = [f"{name} {value}" for name, value in summary.counters.items() if value]
        out.append(f"counters  : {', '.join(nonzero) or 'all zero'}")
    errors = summary.consistency_errors()
    if errors:
        out.append("consistency: FAILED")
        out.extend(f"  - {error}" for error in errors)
    else:
        out.append("consistency: ok (send events match the recorded ledger)")
    return "\n".join(out)
