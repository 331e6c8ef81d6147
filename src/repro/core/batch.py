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
  ``(input value, fault plan, coin seed)`` under type-tagged
  :func:`~repro.core.message.intern_key` keys (so ``1`` and ``True`` stay
  distinct classes); each class executes once and its outcome is
  replicated to the other members, which is sound because such runs are
  deterministic pure functions of the class key;
* **vectorised kernels** — algorithms may register a batch kernel
  (:func:`register_batch_kernel`) that computes the outcomes of *all*
  fault-free classes at once over ``(classes, processors)`` integer
  arrays (numpy majority votes and threshold tests instead of per-run
  Counters); ``oral-messages`` and ``phase-king`` ship kernels.

The engine builds each run's
:class:`~repro.transport.faulty.FaultyTransport` and coin source itself,
and judges every class once, before replicating it, with the one verdict
predicate (:func:`repro.approx.validation.judge_run`): its family's
conditions on the processors no injected fault excuses, the fault budget
``t``, and the algorithm's declared bounds, which are evaluated once per
call.  Kernel rows are judged on the counts they carry.  Every sweep and
the service run through here, so they reach the scalar ``measure()``'s
verdict.

``strict=True`` re-executes every unique class through the scalar runner
and asserts byte-identical decisions, metrics and verdicts — the
equivalence gate the property suites (``tests/properties``) run across
the whole registry.

The per-run signature registries stay strictly isolated: sharing issued
signatures across runs would let a signature issued in one run validate a
forgery in another.  Only value-pure computations (digests) are shared.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.adversary.base import Adversary
from repro.approx.coins import coins_for
from repro.approx.validation import FAILING, Costs, declared_costs, judge_run
from repro.core.history import History
from repro.core.message import UninternableError, intern_key
from repro.core.metrics import MetricsLedger
from repro.core.protocol import AgreementAlgorithm
from repro.core.runner import RunResult, run
from repro.core.types import ProcessorId, Value
from repro.crypto.signatures import InternedSignatureService, SharedDigestTable
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
    :class:`~repro.transport.faulty.FaultyTransport`, and optionally the
    seed of a coin-flipping algorithm's coin stream (see
    :func:`~repro.approx.coins.coins_for`).
    """

    value: Value
    adversary_name: str = "fault-free"
    adversary_factory: AdversaryFactory | None = None
    fault_plan: "FaultPlan | None" = None
    coin_seed: int | None = None


@dataclass(frozen=True, slots=True)
class BatchOutcome:
    """Everything the batch engine reports about one finished run.

    Mirrors the scalar runner's observable surface for a history-free run:
    the correct processors' decisions, the full
    :class:`~repro.core.metrics.MetricsLedger` headline/per-phase counters
    and the number of fault events the transport recorded.  Kernels fill
    in those; the engine adds the verdict
    (:class:`~repro.approx.validation.Verdict`): its ``kind``, its
    ``verdict`` text (``"ok"`` or the violations) and the ``excused``
    processors whose decisions it ignored.  ``replicated`` marks outcomes
    copied from a deduplicated class mate; ``kernel`` marks outcomes
    computed by a vectorised kernel.
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

    def decisions_dict(self) -> dict[ProcessorId, Value]:
        """The decisions as a pid-keyed dict (the runner's shape)."""
        return dict(self.decisions)

    def comparable(self) -> "BatchOutcome":
        """The outcome with provenance flags cleared, for equality checks."""
        return dataclasses.replace(self, replicated=False, kernel=False)


@dataclass(slots=True)
class BatchStats:
    """Amortisation accounting for one :func:`run_batch` call."""

    runs: int = 0
    #: Distinct run classes actually executed (kernel or scalar).
    unique_runs: int = 0
    #: Outcomes replicated from an already-executed class mate.
    replicated_runs: int = 0
    #: Unique classes computed by a vectorised kernel.
    kernel_runs: int = 0
    #: Unique classes (plus non-dedupable cases) run through the runner.
    scalar_runs: int = 0
    #: Digest-table lookups made by this batch's runs.
    digest_hits: int = 0
    digest_misses: int = 0

    @property
    def digest_hit_rate(self) -> float | None:
        """Fraction of digest lookups served by the table (``None``: unused)."""
        total = self.digest_hits + self.digest_misses
        return (self.digest_hits / total) if total else None

    def to_json_dict(self) -> dict[str, Any]:
        """Flat JSON form (used by the ``repro bench`` batch cases)."""
        rate = self.digest_hit_rate
        return {
            "runs": self.runs,
            "unique_runs": self.unique_runs,
            "replicated_runs": self.replicated_runs,
            "kernel_runs": self.kernel_runs,
            "scalar_runs": self.scalar_runs,
            "digest_hits": self.digest_hits,
            "digest_misses": self.digest_misses,
            "digest_hit_rate": round(rate, 4) if rate is not None else None,
        }


@dataclass(slots=True)
class BatchResult:
    """Outcomes (in case order) plus the batch's amortisation stats."""

    outcomes: list[BatchOutcome] = field(default_factory=list)
    stats: BatchStats = field(default_factory=BatchStats)


#: A vectorised fault-free executor: ``(algorithm, values)`` → one outcome
#: per value, or ``None`` to decline (e.g. numpy unavailable).  *values*
#: are the representatives of the batch's fault-free run classes.
BatchKernel = Callable[
    [AgreementAlgorithm, Sequence[Value]], "list[BatchOutcome] | None"
]

_KERNELS: dict[str, BatchKernel] = {}


def register_batch_kernel(name: str) -> Callable[[BatchKernel], BatchKernel]:
    """Register *fn* as the batch kernel for the algorithm named *name*.

    A kernel receives the batch's algorithm instance and the input values
    of every adversary-free, plan-free, coin-free run class, and returns
    one :class:`BatchOutcome` per value — decisions and counts
    byte-identical to what the scalar runner would produce; the engine
    judges them — or ``None`` to decline the whole batch (the engine then
    falls back to scalar execution).  Kernels must
    type-check the instance (``type(algorithm) is …``) so subclasses with
    overridden behaviour fall back to the scalar path.
    """

    def decorate(fn: BatchKernel) -> BatchKernel:
        _KERNELS[name] = fn
        return fn

    return decorate


def batch_kernel_for(name: str) -> BatchKernel | None:
    """The registered kernel for algorithm *name*, if any."""
    return _KERNELS.get(name)


def kernel_value_table(
    values: Sequence[Value], default: Value
) -> tuple[list[Value], list[int], int]:
    """Map run-class values (plus the algorithm default) to small ints.

    Returns ``(table, indices, default_index)``: *table* holds one
    representative per distinct value (distinct under
    :func:`~repro.core.message.intern_key`, so ``1`` and ``True`` get
    separate rows) sorted by ``repr`` — the tie-break order the scalar
    majority votes use — and ``indices[i]`` is the table row of
    ``values[i]``.  Raises
    :class:`~repro.core.message.UninternableError` for values that cannot
    be keyed; kernels decline such batches and the scalar path takes over.
    """
    reps: list[tuple[Any, Value]] = []
    seen: set[Any] = set()
    for value in [*values, default]:
        key = intern_key(value)
        if key not in seen:
            seen.add(key)
            reps.append((key, value))
    reps.sort(key=lambda item: repr(item[1]))
    index_of = {key: row for row, (key, _) in enumerate(reps)}
    table = [value for _, value in reps]
    indices = [index_of[intern_key(value)] for value in values]
    return table, indices, index_of[intern_key(default)]


def _class_key(case: BatchCase) -> Any | None:
    """Deduplication key of *case*, or ``None`` when it must not be deduped.

    Adversary cases never dedupe (factories may close over state and the
    adversary itself is stateful).  Fault plans are frozen value objects,
    and the runner, :class:`~repro.transport.faulty.FaultyTransport` and
    the coin source are deterministic in their inputs, so ``(value, plan,
    coin seed)`` fully determines an adversary-free run.
    """
    if case.adversary_factory is not None:
        return None
    try:
        return (intern_key(case.value), case.fault_plan, case.coin_seed)
    except (UninternableError, TypeError):
        return None


def _judged(
    algorithm: AgreementAlgorithm,
    declared: Costs,
    result: RunResult,
    outcome: BatchOutcome,
    **flags: bool,
) -> BatchOutcome:
    """*outcome* with the verdict on *result*, judged on the outcome's own counts."""
    used = Costs(outcome.messages_by_correct, outcome.signatures_by_correct, outcome.phases_used)
    kind, text, excused = judge_run(result, algorithm, declared, used)
    return dataclasses.replace(
        outcome, kind=kind, verdict=text, excused=tuple(sorted(excused)), **flags
    )


def _judged_rows(
    algorithm: AgreementAlgorithm,
    declared: Costs,
    values: Sequence[Value],
    rows: Sequence[BatchOutcome],
) -> list[BatchOutcome]:
    """Kernel *rows* for inputs *values*, judged like runner executions.

    A kernel row is a fault-free run in which every processor is correct.
    The verdict reads the run's decisions, correct set, transmitter and
    input, and the counts on the row, so the runs it reads share one
    empty ledger and history.
    """
    correct, faulty = frozenset(range(algorithm.n)), frozenset()
    metrics, history = MetricsLedger(), History()
    judged = []
    for value, row in zip(values, rows):
        result = RunResult(
            algorithm_name=algorithm.name,
            n=algorithm.n,
            t=algorithm.t,
            transmitter=algorithm.transmitter,
            input_value=value,
            correct=correct,
            faulty=faulty,
            decisions=row.decisions_dict(),
            metrics=metrics,
            history=history,
        )
        judged.append(_judged(algorithm, declared, result, row, kernel=True))
    return judged


def _execute(
    algorithm: AgreementAlgorithm,
    declared: Costs,
    case: BatchCase,
    table: SharedDigestTable | None,
) -> BatchOutcome:
    """Run one case through the runner and judge it.

    With *table* given, the run's registry shares the batch digest table;
    with ``None`` the run is a fully independent scalar reference (used by
    strict mode).
    """
    adversary = (
        case.adversary_factory(algorithm)
        if case.adversary_factory is not None
        else None
    )
    plan = case.fault_plan
    result = run(
        algorithm,
        case.value,
        adversary,
        record_history=False,
        transport=FaultyTransport(plan) if plan is not None and not plan.is_empty else None,
        service=InternedSignatureService(table) if table is not None else None,
        coins=coins_for(algorithm, case.coin_seed),
    )
    metrics = result.metrics
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
    )
    return _judged(algorithm, declared, result, outcome)


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
    reference = _execute(algorithm, declared, case, table=None)
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
    algorithm_or_factory: AgreementAlgorithm | Callable[[], AgreementAlgorithm],
    cases: Iterable[BatchCase | Value],
    *,
    strict: bool = False,
    table: SharedDigestTable | None = None,
) -> BatchResult:
    """Execute many runs of one algorithm, amortising shared work.

    Args:
        algorithm_or_factory: a configured algorithm instance, or a
            zero-argument factory for one; either way a **single**
            instance serves the whole batch (the arena).
        cases: :class:`BatchCase` objects (bare values are accepted and
            wrapped as fault-free cases).
        strict: re-run every unique class through the scalar runner and
            raise :class:`BatchEquivalenceError` on any difference in
            decisions, metrics or verdict.
        table: the shared digest table (defaults to a fresh one; pass an
            existing table to share digests across several batches).

    Returns:
        A :class:`BatchResult` with one outcome per case, in case order.
    """
    algorithm = (
        algorithm_or_factory
        if isinstance(algorithm_or_factory, AgreementAlgorithm)
        else algorithm_or_factory()
    )
    case_list = [
        case if isinstance(case, BatchCase) else BatchCase(value=case)
        for case in cases
    ]
    for case in case_list:
        algorithm.check_value(case.value)
    table = table if table is not None else SharedDigestTable()
    hits0, misses0 = table.hits, table.misses
    declared = declared_costs(algorithm)
    stats = BatchStats(runs=len(case_list))
    outcomes: list[BatchOutcome | None] = [None] * len(case_list)

    # Partition: dedupable classes (key -> case indices) and singletons.
    classes: dict[Any, list[int]] = {}
    singletons: list[list[int]] = []
    for index, case in enumerate(case_list):
        key = _class_key(case)
        if key is None:
            singletons.append([index])
        else:
            classes.setdefault(key, []).append(index)

    # Kernel dispatch: every plan-free, coin-free class in one shot.
    kernel = _KERNELS.get(algorithm.name)
    kernel_classes: list[list[int]] = []
    scalar_classes: list[list[int]] = []
    for (_, plan, coin_seed), indices in classes.items():
        if kernel is not None and plan is None and coin_seed is None:
            kernel_classes.append(indices)
        else:
            scalar_classes.append(indices)
    values = [case_list[indices[0]].value for indices in kernel_classes]
    rows = kernel(algorithm, values) if kernel is not None and values else None
    if rows is None:
        scalar_classes.extend(kernel_classes)
        kernel_classes, values, rows = [], [], []

    # Execute and judge each class once, then replicate it to its mates.
    executed = list(zip(kernel_classes, _judged_rows(algorithm, declared, values, rows)))
    executed += [
        (indices, _execute(algorithm, declared, case_list[indices[0]], table))
        for indices in scalar_classes + singletons
    ]
    stats.unique_runs = len(executed)
    stats.kernel_runs = len(kernel_classes)
    stats.scalar_runs = stats.unique_runs - stats.kernel_runs
    for indices, outcome in executed:
        if strict:
            _check_strict(algorithm, declared, case_list[indices[0]], outcome)
        _fill(outcomes, indices, outcome, stats)

    stats.digest_hits = table.hits - hits0
    stats.digest_misses = table.misses - misses0
    final = [outcome for outcome in outcomes if outcome is not None]
    assert len(final) == len(case_list), "every case must produce an outcome"
    return BatchResult(outcomes=final, stats=stats)


def _fill(
    outcomes: list[BatchOutcome | None],
    indices: Sequence[int],
    outcome: BatchOutcome,
    stats: BatchStats,
) -> None:
    """Place *outcome* at the class representative and replicate to mates."""
    outcomes[indices[0]] = outcome
    if len(indices) > 1:
        replica = dataclasses.replace(outcome, replicated=True)
        for index in indices[1:]:
            outcomes[index] = replica
        stats.replicated_runs += len(indices) - 1
