"""Lock-step synchronous execution of an agreement algorithm.

The runner implements the paper's synchronous model directly: a run is a
sequence of phases; in phase ``k`` every processor sends messages computed
from what it received in phases ``< k``; everything sent in phase ``k`` is
delivered at the beginning of phase ``k + 1``.  Correct processors execute
their algorithm's :class:`~repro.core.protocol.Processor`; faulty ones are
driven by an :class:`~repro.adversary.base.Adversary`.

The runner also records the complete :class:`~repro.core.history.History`
(the formal object of Section 2) and a
:class:`~repro.core.metrics.MetricsLedger` with the paper's cost measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.adversary.base import Adversary, AdversaryEnvironment, NullAdversary, PhaseView
from repro.core.counters import Counters
from repro.core.errors import (
    AdversaryError,
    ConfigurationError,
    DisagreementError,
    ProtocolViolationError,
)
from repro.core.history import History
from repro.core.message import Envelope
from repro.core.metrics import MetricsLedger
from repro.core.protocol import AgreementAlgorithm, Processor
from repro.core.types import INPUT_SOURCE, ProcessorId, Value
from repro.crypto.signatures import SignatureService
from repro.obs.events import TRACE_SCHEMA, EventSink, jsonable, safe_digest
from repro.obs.telemetry import SYSTEM_CLOCK, Clock, PhaseTiming, RunTelemetry
from repro.transport.base import LockstepTransport, Transport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.approx.coins import CoinSource

#: The perfect network every run without a transport of its own routes
#: through (stateless, so one instance serves every run).
_LOCKSTEP = LockstepTransport()


@dataclass
class RunResult:
    """Everything observable about one finished execution."""

    algorithm_name: str
    n: int
    t: int
    transmitter: ProcessorId
    input_value: Value
    correct: frozenset[ProcessorId]
    faulty: frozenset[ProcessorId]
    #: Decisions of the *correct* processors only — the BA conditions
    #: constrain nobody else.
    decisions: dict[ProcessorId, Value]
    metrics: MetricsLedger
    history: History
    #: The live protocol instances of correct processors, for postcondition
    #: checks (e.g. Algorithm 2's transferable proof of agreement).
    processors: Mapping[ProcessorId, Processor] = field(default_factory=dict)
    #: The run's signature registry — needed to re-verify recorded payloads
    #: (e.g. by the conformance checker or an external proof auditor).
    service: SignatureService | None = None
    #: The run's work counts: its signature service's :attr:`counters`
    #: as the run ended (payload digests, answered from a shared table or
    #: computed), so later use of :attr:`service` does not change them.
    counters: Counters = field(default_factory=Counters)
    #: Timing profile, recorded only when the run was instrumented (any
    #: sink attached or ``collect_telemetry=True``); ``None`` on the
    #: un-instrumented fast path.
    telemetry: RunTelemetry | None = None
    #: Fault events the transport recorded (``repro-fault/1`` dicts, in
    #: injection order); empty for the default perfect network.
    fault_events: tuple[dict[str, Any], ...] = ()
    #: Seed of the :class:`~repro.approx.coins.CoinSource` the run used,
    #: or ``None`` for deterministic algorithms.  Replay layers rebuild
    #: the identical coin stream from this.
    coin_seed: int | None = None

    def decided_values(self) -> set[Value]:
        """The set of distinct values decided by correct processors."""
        return set(self.decisions.values())

    def unanimous_value(self) -> Value:
        """The single agreed value.

        Raises:
            DisagreementError: (a :class:`ValueError` subclass carrying
                the per-processor decisions) if correct processors
                disagree.
        """
        values = self.decided_values()
        if len(values) != 1:
            raise DisagreementError(self.decisions)
        return next(iter(values))


def _emit(
    sinks: Sequence[EventSink],
    event: dict[str, Any],
    telemetry: RunTelemetry | None = None,
) -> None:
    """Deliver one trace event to every sink.

    Every call site is guarded by ``if sinks:`` — with no sinks attached
    this function is never entered, which is what keeps the fast path free
    of per-message tracing work (``tests/obs`` pins that with a
    raise-on-call guard).
    """
    for sink in sinks:
        sink.emit(event)
    if telemetry is not None:
        telemetry.events_emitted += 1


def run(
    algorithm: AgreementAlgorithm,
    input_value: Value,
    adversary: Adversary | None = None,
    *,
    rushing: bool = False,
    record_history: bool = True,
    transport: Transport | None = None,
    sinks: Sequence[EventSink] = (),
    collect_telemetry: bool = False,
    clock: Clock | None = None,
    service: SignatureService | None = None,
    coins: "CoinSource | None" = None,
) -> RunResult:
    """Execute *algorithm* on *input_value* against *adversary*.

    Args:
        algorithm: a configured algorithm (knows its ``n`` and ``t``).
        input_value: the private value on the transmitter's phase-0 inedge.
        adversary: strategy for the faulty processors; defaults to the
            fault-free :class:`~repro.adversary.base.NullAdversary`.
        rushing: expose the current phase's correct traffic to the
            adversary before it chooses its own sends (off by default to
            match the paper's history model).
        record_history: set ``False`` to skip history recording for large
            parameter sweeps (metrics are always recorded).
        transport: the :class:`~repro.transport.base.Transport` that owns
            phase delivery — e.g.
            :class:`~repro.transport.faulty.FaultyTransport` to inject
            crash/omission/partition faults.  ``None`` (the default)
            routes through the perfect
            :class:`~repro.transport.base.LockstepTransport`.
            Fault events the transport records are forwarded to *sinks*
            and collected on :attr:`RunResult.fault_events`.  Faults
            affect delivery only: the history and the metrics ledger
            record what was *sent*, which is the paper's cost measure.
        sinks: :class:`~repro.obs.events.EventSink` objects receiving the
            ``repro-trace/1`` event stream (``run_start``, ``phase_start``,
            ``send``, ``deliver``, ``decide``, ``run_end``).  The default
            empty tuple is a strict no-op: no event objects are built and
            no per-message work is added.  The runner never closes sinks.
        collect_telemetry: record phase/handler timings into
            :attr:`RunResult.telemetry` even without sinks attached.
        clock: time source for the telemetry (defaults to
            :data:`~repro.obs.telemetry.SYSTEM_CLOCK`); inject a
            :class:`~repro.obs.telemetry.TickClock` for deterministic,
            byte-reproducible traces.
        service: the signature registry for this run; ``None`` (the
            default) mints a fresh one.  Must be unused and unsealed.
            The batch engine injects per-run
            :class:`~repro.crypto.signatures.InternedSignatureService`
            instances so digest computations are shared across a batch
            while the issued-signature sets stay strictly per-run.  The
            service's counters are the run's :attr:`RunResult.counters`.
        coins: seeded :class:`~repro.approx.coins.CoinSource` for
            randomized algorithms; exposed to every correct processor as
            ``Context.coins`` and recorded as
            :attr:`RunResult.coin_seed`.  ``None`` (the default) for the
            deterministic zoo.

    Returns:
        A :class:`RunResult`.

    Raises:
        ConfigurationError: if the adversary corrupts more than ``t``
            processors or names ids outside the system.
        AdversaryError / ProtocolViolationError: on model violations.
    """
    adversary = adversary if adversary is not None else NullAdversary()
    transport = transport if transport is not None else _LOCKSTEP
    n, t = algorithm.n, algorithm.t
    algorithm.check_value(input_value)
    faulty = adversary.faulty
    if len(faulty) > t:
        raise ConfigurationError(
            f"adversary corrupts {len(faulty)} processors but the algorithm "
            f"only claims to tolerate t={t}"
        )
    if any(not 0 <= pid < n for pid in faulty):
        raise ConfigurationError(f"faulty set {sorted(faulty)} not within range({n})")
    correct = frozenset(range(n)) - faulty

    service = service if service is not None else SignatureService()
    processors: dict[ProcessorId, Processor] = {}
    for pid in sorted(correct):
        processors[pid] = algorithm.spawn(pid, service.key_for(pid), service, coins)

    adversary.bind(
        AdversaryEnvironment(
            n=n,
            t=t,
            transmitter=algorithm.transmitter,
            input_value=input_value,
            service=service,
            keys={pid: service.key_for(pid) for pid in sorted(faulty)},
            algorithm=algorithm,
            coins=coins,
        )
    )
    # Key distribution is complete: every correct processor holds its own
    # key, the adversary holds exactly the faulty coalition's.  Sealing the
    # registry makes that allocation final — from here on, key_for() raises,
    # so nothing running inside the phase loop (a protocol, an adversary, a
    # generated fuzz primitive) can acquire a correct processor's signing
    # capability.
    service.seal()

    sinks = tuple(sinks)
    telemetry: RunTelemetry | None = None
    clk = clock if clock is not None else SYSTEM_CLOCK
    run_wall_started = run_cpu_started = 0.0
    if sinks or collect_telemetry:
        telemetry = RunTelemetry()
        run_wall_started, run_cpu_started = clk.wall(), clk.cpu()

    metrics = MetricsLedger(phases_configured=algorithm.num_phases())
    history = History.with_input(algorithm.transmitter, input_value)

    fault_events: list[dict[str, Any]] = []

    if sinks:
        run_start_event = {
            "event": "run_start",
            "schema": TRACE_SCHEMA,
            "algorithm": algorithm.name,
            "n": n,
            "t": t,
            "transmitter": algorithm.transmitter,
            "input_value": jsonable(input_value),
            "faulty": sorted(faulty),
            "phases_configured": algorithm.num_phases(),
            "rushing": rushing,
        }
        if coins is not None:
            # Key added only for randomized runs so that exact-BA traces
            # stay byte-identical to the fixed-round runner's.
            run_start_event["coin_seed"] = coins.seed
        _emit(sinks, run_start_event, telemetry)
        # The phase-0 inedge is delivered at the beginning of phase 1, like
        # every other phase-k message is delivered at phase k + 1.
        _emit(
            sinks,
            {
                "event": "deliver",
                "phase": 1,
                "dst": algorithm.transmitter,
                "messages": 1,
            },
            telemetry,
        )

    input_edge = Envelope(
        src=INPUT_SOURCE, dst=algorithm.transmitter, phase=0, payload=input_value
    )
    pending: dict[ProcessorId, list[Envelope]] = {algorithm.transmitter: [input_edge]}

    # Variable-round algorithms (randomized consensus) terminate by
    # predicate; num_phases() is their cap.  The flag is read once so the
    # fixed-round zoo never pays a has_terminated() call per phase.
    variable = algorithm.variable_rounds

    for phase in range(1, algorithm.num_phases() + 1):
        inboxes = pending
        sent: list[Envelope] = []
        phase_wall_started = phase_cpu_started = 0.0
        if telemetry is not None:
            phase_wall_started, phase_cpu_started = clk.wall(), clk.cpu()
        if sinks:
            _emit(
                sinks,
                {"event": "phase_start", "phase": phase, "ledger": metrics.summary()},
                telemetry,
            )

        for pid in sorted(correct):
            handler_started = clk.wall() if telemetry is not None else 0.0
            outgoing = processors[pid].on_phase(phase, tuple(inboxes.get(pid, ())))
            if telemetry is not None:
                telemetry.add_handler_time(pid, clk.wall() - handler_started)
            for dst, payload in outgoing:
                if not 0 <= dst < n:
                    raise ProtocolViolationError(
                        f"processor {pid} addressed non-existent processor {dst}"
                    )
                if dst == pid:
                    raise ProtocolViolationError(
                        f"processor {pid} sent a message to itself"
                    )
                sent.append(Envelope(src=pid, dst=dst, phase=phase, payload=payload))

        view = PhaseView(
            phase=phase,
            inboxes={pid: tuple(inboxes.get(pid, ())) for pid in sorted(faulty)},
            history=history,
            rushing_outbox=tuple(sent) if rushing else (),
        )
        for src, dst, payload in adversary.on_phase(view):
            if src not in faulty:
                raise AdversaryError(
                    f"adversary tried to send as processor {src}, which it "
                    f"does not control"
                )
            if not 0 <= dst < n or dst == src:
                raise AdversaryError(f"invalid adversary destination {dst}")
            sent.append(Envelope(src=src, dst=dst, phase=phase, payload=payload))

        counts = metrics.record_phase(sent, correct)
        if sinks:
            # Send events carry the ledger's running totals as of each
            # message; every envelope of a phase >= 1 is one message.
            messages_total = metrics.total_messages - len(sent)
            signatures_total = metrics.total_signatures - sum(counts)
            for envelope, n_sigs in zip(sent, counts):
                messages_total += 1
                signatures_total += n_sigs
                _emit(
                    sinks,
                    {
                        "event": "send",
                        "phase": phase,
                        "src": envelope.src,
                        "dst": envelope.dst,
                        "digest": safe_digest(envelope.payload),
                        "signatures": n_sigs,
                        "sender_correct": envelope.src in correct,
                        "messages_total": messages_total,
                        "signatures_total": signatures_total,
                    },
                    telemetry,
                )
        pending = transport.deliver(phase, sent)
        injected = transport.drain_faults()
        if injected:
            fault_events.extend(injected)
            if sinks:
                for fault in injected:
                    _emit(sinks, fault, telemetry)
        if sinks:
            for dst in sorted(pending):
                _emit(
                    sinks,
                    {
                        "event": "deliver",
                        "phase": phase + 1,
                        "dst": dst,
                        "messages": len(pending[dst]),
                    },
                    telemetry,
                )
        if record_history:
            history.append_phase(sent)
        if telemetry is not None:
            telemetry.per_phase.append(
                PhaseTiming(
                    phase=phase,
                    wall_s=clk.wall() - phase_wall_started,
                    cpu_s=clk.cpu() - phase_cpu_started,
                )
            )
        if (
            variable
            and processors
            and all(processors[pid].has_terminated() for pid in processors)
        ):
            break

    leftover = transport.end_run()
    if leftover:
        fault_events.extend(leftover)
        if sinks:
            for fault in leftover:
                _emit(sinks, fault, telemetry)

    for pid in sorted(correct):
        processors[pid].on_final(tuple(pending.get(pid, ())))

    decisions = {pid: processors[pid].decision() for pid in sorted(correct)}
    if telemetry is not None:
        telemetry.wall_s = clk.wall() - run_wall_started
        telemetry.cpu_s = clk.cpu() - run_cpu_started
    if sinks:
        for pid in sorted(correct):
            _emit(
                sinks,
                {"event": "decide", "processor": pid, "decision": jsonable(decisions[pid])},
                telemetry,
            )
        _emit(
            sinks,
            {
                "event": "run_end",
                "ledger": metrics.summary(),
                "messages_per_phase": {
                    str(p): c for p, c in sorted(metrics.messages_per_phase.items())
                },
                "signatures_per_phase": {
                    str(p): c for p, c in sorted(metrics.signatures_per_phase.items())
                },
                "counters": service.counters.to_json_dict(),
                "telemetry": telemetry.to_json_dict() if telemetry is not None else None,
            },
            telemetry,
        )
    return RunResult(
        algorithm_name=algorithm.name,
        n=n,
        t=t,
        transmitter=algorithm.transmitter,
        input_value=input_value,
        correct=correct,
        faulty=faulty,
        decisions=decisions,
        metrics=metrics,
        history=history,
        processors=processors,
        service=service,
        counters=replace(service.counters),
        telemetry=telemetry,
        fault_events=tuple(fault_events),
        coin_seed=coins.seed if coins is not None else None,
    )
