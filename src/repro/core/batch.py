"""Batched execution: thousands of runs of one algorithm in one process.

The scalar runner (:func:`repro.core.runner.run`) pays per run for work
that is identical across a sweep: algorithm construction, signature-digest
computation over payloads whose *values* repeat run after run, and — for
adversary-free runs — the entire execution itself, which is a pure
function of ``(algorithm configuration, input value, fault plan, coin
seed)``.  This module amortises all three:

* **one arena per batch** — a single algorithm instance serves every run
  (processors are still minted fresh per run; they are the only stateful
  parts), and one :class:`~repro.crypto.signatures.SharedDigestTable`
  backs every run's signature registry, so equal payloads are digested
  once per batch instead of once per run;
* **run-class deduplication** — adversary-free cases are grouped by
  ``(input value, fault plan, coin seed)`` (:func:`class_key`) under
  type-tagged :func:`~repro.core.message.intern_key` keys (so ``1`` and
  ``True`` stay distinct classes, and an empty plan keys as no plan);
  each class executes once and its outcome is
  replicated to the other members, which is sound because such runs are
  deterministic pure functions of the class key;
* **closed-form kernels** — an algorithm that states its fault-free
  message schedule
  (:meth:`~repro.core.protocol.AgreementAlgorithm.fault_free_schedule`)
  has every plan-free, coin-free class with an input other than ``None``
  written down instead of executed: every processor decides the class's
  input, and correct processors send the schedule's messages.
  ``oral-messages`` and ``phase-king`` state theirs.

The engine builds each run's
:class:`~repro.transport.faulty.FaultyTransport` and coin source itself,
and judges every class once, before replicating it, with the one verdict
predicate (:func:`repro.core.validation.judge_run`): the algorithm's
conditions on the processors no injected fault excuses, the fault budget
``t``, and the algorithm's declared bounds, which are evaluated once per
call.  A kernel row is built and judged in one step, on its own input
and the counts it carries.  Every sweep, the service and
:func:`~repro.analysis.sweep.measure` (a one-case batch) run through
here.  A case may carry a trace path: its run then streams a
``repro-trace/1`` JSONL file, so a trace records exactly the work this
engine does — the shared table, the per-run interned service and the
same operation counts.

``strict=True`` re-executes every unique class through the scalar runner
and asserts byte-identical decisions, metrics and verdicts — the
equivalence gate the property suites (``tests/properties``) run across
the whole registry.  That reference re-run writes no trace.

The per-run signature registries stay strictly isolated: sharing issued
signatures across runs would let a signature issued in one run validate a
forgery in another.  Only value-pure computations (digests) are shared.
"""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.adversary.base import Adversary
from repro.core.counters import Counters
from repro.core.history import History
from repro.core.message import UninternableError, intern_key
from repro.core.metrics import MetricsLedger
from repro.core.protocol import AgreementAlgorithm
from repro.core.runner import RunResult, run
from repro.core.types import ProcessorId, Value
from repro.core.validation import FAILING, Costs, declared_costs, judge_run
from repro.crypto.signatures import InternedSignatureService, SharedDigestTable
from repro.obs.events import JsonlTraceSink
from repro.transport.faulty import FaultyTransport

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.transport.faults import FaultPlan

#: Builds the adversary for one case; ``None`` means fault-free.
AdversaryFactory = Callable[[AgreementAlgorithm], "Adversary | None"]


class BatchEquivalenceError(AssertionError):
    """Strict mode found a batch outcome differing from the scalar runner."""


@dataclass(frozen=True, slots=True)
class BatchCase:
    """One scenario of a batch: the per-run inputs the engine varies.

    The algorithm itself is batch-wide; a case contributes the input
    value, optionally an adversary factory (which disables deduplication
    for that case — adversaries may close over mutable state), optionally
    a :class:`~repro.transport.faults.FaultPlan` routed through a
    :class:`~repro.transport.faulty.FaultyTransport`, optionally the
    seed of a coin-flipping algorithm's coin stream (see
    :meth:`~repro.core.protocol.AgreementAlgorithm.coin_source`; an
    algorithm that flips no coins ignores it), and optionally the path
    of the ``repro-trace/1`` JSONL file its run writes (a traced case is
    never deduplicated: its own run writes the file).
    """

    value: Value
    adversary_name: str = "fault-free"
    adversary_factory: AdversaryFactory | None = None
    fault_plan: "FaultPlan | None" = None
    coin_seed: int | None = None
    trace: str | None = None

    def run_class(self, uses_coins: bool) -> Any | None:
        """This case's :func:`class_key`; ``None`` for an adversary case
        (factories may close over state and the adversary itself is
        stateful) and for a traced one (each writes its own file)."""
        if self.adversary_factory is not None or self.trace is not None:
            return None
        return class_key(self.value, self.fault_plan, self.coin_seed, uses_coins)


@dataclass(frozen=True, slots=True)
class BatchOutcome:
    """Everything the batch engine reports about one finished run.

    Mirrors the scalar runner's observable surface for a history-free run:
    the correct processors' decisions, the full
    :class:`~repro.core.metrics.MetricsLedger` headline/per-phase counters,
    the number of fault events the transport recorded and the verdict
    (:class:`~repro.core.validation.Verdict`): its ``kind``, its
    ``verdict`` text (``"ok"`` or the violations) and the ``excused``
    processors whose decisions it ignored.  ``replicated`` marks outcomes
    copied from a deduplicated class mate; ``kernel`` marks outcomes
    written down from the algorithm's fault-free schedule.
    """

    decisions: tuple[tuple[ProcessorId, Value], ...]
    messages_by_correct: int
    messages_by_faulty: int
    signatures_by_correct: int
    signatures_by_faulty: int
    phases_used: int
    phases_configured: int
    messages_per_phase: tuple[tuple[int, int], ...]
    signatures_per_phase: tuple[tuple[int, int], ...]
    fault_events: int = 0
    kind: str = ""
    verdict: str = ""
    excused: tuple[ProcessorId, ...] = ()
    replicated: bool = False
    kernel: bool = False

    @property
    def agreement_ok(self) -> bool:
        """Whether the verdict passes: any class but a failing one."""
        return self.kind not in FAILING

    def comparable(self) -> "BatchOutcome":
        """The outcome with provenance flags cleared, for equality checks."""
        return dataclasses.replace(self, replicated=False, kernel=False)


@dataclass(slots=True)
class BatchResult:
    """Outcomes (in case order), the batch's counters and the declared
    bounds every outcome was judged against."""

    outcomes: list[BatchOutcome]
    stats: Counters
    declared: Costs


def class_key(
    value: Value, fault_plan: "FaultPlan | None", coin_seed: int | None, uses_coins: bool
) -> Any | None:
    """The run class of an adversary-free, untraced case of *value*,
    *fault_plan* and *coin_seed*, or ``None`` when it is a class of its own.

    The one run-class key: :func:`run_batch` dedupes by it (through
    :meth:`BatchCase.run_class`), and sweeps and the service keep each
    class in one stripe by it.  Fault plans are frozen value objects, and
    the runner, :class:`~repro.transport.faulty.FaultyTransport` and the
    coin source are deterministic in their inputs, so ``(value, plan,
    coin seed)`` fully determines an adversary-free run.  An empty plan
    injects nothing, so it keys as no plan (and its class may take a
    kernel); the seed is kept only when the algorithm *uses_coins* (a
    class attribute, so no instance is needed), as no other run reads it.
    A value :func:`~repro.core.message.intern_key` cannot key is a class
    of its own.
    """
    plan = None if fault_plan is None or fault_plan.is_empty else fault_plan
    try:
        return (intern_key(value), plan, coin_seed if uses_coins else None)
    except (UninternableError, TypeError):
        return None


def _kernel_rows(
    algorithm: AgreementAlgorithm,
    declared: Costs,
    schedule: Sequence[tuple[int, int]],
    values: Sequence[Value],
) -> list[BatchOutcome]:
    """One judged kernel row per run-class input in *values*.

    A kernel row is the fault-free run *schedule* describes: every
    processor is correct and decides the input, and correct processors
    send the schedule's messages, none signed.  The phases that send
    nothing are dropped, as the runner's ledger never records them.  The
    verdict reads the run's decisions, correct set, transmitter and input,
    and the row's counts, so the runs it reads share one empty ledger and
    history.
    """
    per_phase = tuple((phase, count) for phase, count in schedule if count)
    unsigned = tuple((phase, 0) for phase, _ in per_phase)
    messages = sum(count for _, count in per_phase)
    phases_used = max((phase for phase, _ in per_phase), default=0)
    used = Costs(messages, 0, phases_used)
    phases_configured = algorithm.num_phases()
    correct, faulty = frozenset(range(algorithm.n)), frozenset()
    metrics, history = MetricsLedger(), History()
    rows = []
    for value in values:
        decisions = {pid: value for pid in range(algorithm.n)}
        result = RunResult(
            algorithm_name=algorithm.name,
            n=algorithm.n,
            t=algorithm.t,
            transmitter=algorithm.transmitter,
            input_value=value,
            correct=correct,
            faulty=faulty,
            decisions=decisions,
            metrics=metrics,
            history=history,
        )
        kind, text, excused = judge_run(result, algorithm, declared, used)
        rows.append(
            BatchOutcome(
                decisions=tuple(decisions.items()),
                messages_by_correct=messages,
                messages_by_faulty=0,
                signatures_by_correct=0,
                signatures_by_faulty=0,
                phases_used=phases_used,
                phases_configured=phases_configured,
                messages_per_phase=per_phase,
                signatures_per_phase=unsigned,
                kind=kind,
                verdict=text,
                excused=tuple(sorted(excused)),
                kernel=True,
            )
        )
    return rows


def _execute(
    algorithm: AgreementAlgorithm,
    declared: Costs,
    case: BatchCase,
    table: SharedDigestTable | None,
) -> tuple[BatchOutcome, Counters]:
    """Run one case through the runner; its judged outcome and counters.

    With *table* given, the run's registry shares the batch digest table
    and a traced case streams its trace file; with ``None`` the run is a
    fully independent, untraced scalar reference (used by strict mode).
    """
    adversary = (
        case.adversary_factory(algorithm)
        if case.adversary_factory is not None
        else None
    )
    plan = case.fault_plan
    trace = case.trace if table is not None else None
    with JsonlTraceSink(trace) if trace is not None else nullcontext() as sink:
        result = run(
            algorithm,
            case.value,
            adversary,
            record_history=False,
            transport=FaultyTransport(plan) if plan is not None and not plan.is_empty else None,
            sinks=(sink,) if sink is not None else (),
            service=InternedSignatureService(table) if table is not None else None,
            coins=algorithm.coin_source(case.coin_seed),
        )
    metrics = result.metrics
    kind, text, excused = judge_run(result, algorithm, declared)
    outcome = BatchOutcome(
        decisions=tuple(sorted(result.decisions.items())),
        messages_by_correct=metrics.messages_by_correct,
        messages_by_faulty=metrics.messages_by_faulty,
        signatures_by_correct=metrics.signatures_by_correct,
        signatures_by_faulty=metrics.signatures_by_faulty,
        phases_used=metrics.last_active_phase,
        phases_configured=metrics.phases_configured,
        messages_per_phase=tuple(sorted(metrics.messages_per_phase.items())),
        signatures_per_phase=tuple(sorted(metrics.signatures_per_phase.items())),
        fault_events=len(result.fault_events),
        kind=kind,
        verdict=text,
        excused=tuple(sorted(excused)),
    )
    return outcome, result.counters


def _describe_diff(batch: BatchOutcome, scalar: BatchOutcome) -> str:
    """Field-by-field difference report for :class:`BatchEquivalenceError`."""
    lines = []
    for f in dataclasses.fields(BatchOutcome):
        if f.name in ("replicated", "kernel"):
            continue
        a, b = getattr(batch, f.name), getattr(scalar, f.name)
        if a != b or repr(a) != repr(b):
            lines.append(f"  {f.name}: batch {a!r} != scalar {b!r}")
    return "\n".join(lines) or "  (values equal but reprs differ)"


def _check_strict(
    algorithm: AgreementAlgorithm, declared: Costs, case: BatchCase, outcome: BatchOutcome
) -> None:
    """Assert *outcome* equals an independent scalar-runner execution."""
    reference, _ = _execute(algorithm, declared, case, table=None)
    # repr-compare on top of ==: the decisions must be *byte*-identical,
    # and Python's 1 == True would otherwise let a kernel that decides
    # True where the runner decides 1 slip through.
    if outcome.comparable() != reference or repr(outcome.comparable()) != repr(
        reference
    ):
        raise BatchEquivalenceError(
            f"batch outcome diverged from the scalar runner for "
            f"{algorithm.name} value={case.value!r} "
            f"adversary={case.adversary_name}:\n"
            f"{_describe_diff(outcome, reference)}"
        )


def run_batch(
    algorithm: AgreementAlgorithm,
    cases: Iterable[BatchCase | Value],
    *,
    strict: bool = False,
    table: SharedDigestTable | None = None,
) -> BatchResult:
    """Execute many runs of one algorithm, amortising shared work.

    Args:
        algorithm: the configured algorithm instance that serves the
            whole batch (the arena).
        cases: :class:`BatchCase` objects (bare values are accepted and
            wrapped as fault-free cases).
        strict: re-run every unique class through the scalar runner and
            raise :class:`BatchEquivalenceError` on any difference in
            decisions, metrics or verdict.
        table: the shared digest table (defaults to a fresh one; pass an
            existing table to share digests across several batches).

    Returns:
        A :class:`BatchResult` with one outcome per case, in case order,
        the call's :class:`Counters` (its run-class counts plus the sum of
        the counters of the runs it executed on *table*; strict mode's
        reference re-runs are not counted) and the algorithm's declared
        bounds.
    """
    case_list = [
        case if isinstance(case, BatchCase) else BatchCase(value=case)
        for case in cases
    ]
    for case in case_list:
        algorithm.check_value(case.value)
    table = table if table is not None else SharedDigestTable()
    declared = declared_costs(algorithm)
    outcomes: list[BatchOutcome | None] = [None] * len(case_list)

    # Partition: dedupable classes (key -> case indices) and singletons.
    classes: dict[Any, list[int]] = {}
    singletons: list[list[int]] = []
    for index, case in enumerate(case_list):
        key = case.run_class(algorithm.uses_coins)
        if key is None:
            singletons.append([index])
        else:
            classes.setdefault(key, []).append(index)

    # Closed form: when the algorithm states its fault-free schedule,
    # every plan-free, coin-free class with an input is written down.
    schedule = algorithm.fault_free_schedule()
    kernel_classes: list[list[int]] = []
    scalar_classes: list[list[int]] = []
    for (_, plan, coin_seed), indices in classes.items():
        value = case_list[indices[0]].value
        if schedule is not None and plan is None and coin_seed is None and value is not None:
            kernel_classes.append(indices)
        else:
            scalar_classes.append(indices)
    values = [case_list[indices[0]].value for indices in kernel_classes]
    rows = _kernel_rows(algorithm, declared, schedule, values) if schedule is not None else []

    # Build or execute and judge each class once, then replicate it.
    executed = list(zip(kernel_classes, rows))
    counters = Counters()
    for indices in scalar_classes + singletons:
        outcome, run_counters = _execute(algorithm, declared, case_list[indices[0]], table)
        executed.append((indices, outcome))
        counters += run_counters
    for indices, outcome in executed:
        if strict:
            _check_strict(algorithm, declared, case_list[indices[0]], outcome)
        _fill(outcomes, indices, outcome)

    final = [outcome for outcome in outcomes if outcome is not None]
    assert len(final) == len(case_list), "every case must produce an outcome"
    # Every case sits in exactly one executed class, so whatever was not
    # executed was replicated.
    stats = counters + Counters(
        runs=len(case_list),
        unique_runs=len(executed),
        replicated_runs=len(case_list) - len(executed),
        kernel_runs=len(kernel_classes),
        scalar_runs=len(executed) - len(kernel_classes),
    )
    return BatchResult(outcomes=final, stats=stats, declared=declared)


def _fill(
    outcomes: list[BatchOutcome | None],
    indices: Sequence[int],
    outcome: BatchOutcome,
) -> None:
    """Place *outcome* at the class representative and replicate to mates."""
    outcomes[indices[0]] = outcome
    if len(indices) > 1:
        replica = dataclasses.replace(outcome, replicated=True)
        for index in indices[1:]:
            outcomes[index] = replica
