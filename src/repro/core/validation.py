"""Checking the Byzantine Agreement conditions on finished runs, and the
one verdict every path gives a run.

The paper's conditions (for a ``t``-faulty history ``H``):

(i)  **Agreement** — if processors ``p`` and ``q`` are correct in ``H``,
     then ``F_p(pH) = F_q(qH)``;
(ii) **Validity** — if the transmitter and processor ``p`` are correct in
     ``H``, then ``F_p(pH) = v``, the transmitter's value.

The validator returns a structured report; ``require_agreement`` raises on
violation for use inside tests and the executable lower-bound proofs.
These are the exact family's conditions; each algorithm states its own
through :meth:`~repro.core.protocol.AgreementAlgorithm.conditions`, and
the approximate and randomized families override it.

:func:`judge_run` is the one verdict every path reaches (``run_batch``,
and so sweeps and the service; ``measure()``, and so the adversary probe;
the fuzz oracle and ``repro run``): the algorithm's conditions, the fault
budget ``t``, then the declared message, signature and phase bounds
(Theorems 3–7, Lemma 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.core.errors import ValidationError
from repro.transport.faults import excused_processors

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.core.protocol import AgreementAlgorithm
    from repro.core.runner import RunResult


@dataclass
class ValidationReport:
    """Outcome of checking the BA conditions on one run."""

    agreement: bool
    validity: bool
    #: True when every correct processor actually decided (no ``None``).
    all_decided: bool
    violations: list[str] = field(default_factory=list)
    #: Processors whose decisions were ignored (fault-excused); empty for
    #: the ordinary full check.
    excused: frozenset[int] = frozenset()

    @property
    def ok(self) -> bool:
        """True iff both BA conditions hold and everyone decided."""
        return self.agreement and self.validity and self.all_decided

    def __str__(self) -> str:
        suffix = (
            f" (excused: {sorted(self.excused)})" if self.excused else ""
        )
        if self.ok:
            return f"Byzantine Agreement holds{suffix}"
        return "; ".join(self.violations) + suffix


def check_byzantine_agreement(
    result: RunResult, *, excused: frozenset[int] = frozenset()
) -> ValidationReport:
    """Evaluate conditions (i) and (ii) on *result*.

    *excused* names correct processors whose decisions are ignored — the
    crash-tolerant reading used when delivery faults were injected: a
    processor whose messages the network tampered with is held to no
    stronger standard than a Byzantine-corrupted one, so only the
    remaining processors' decisions are constrained (and validity only
    applies when the transmitter itself is unexcused).
    """
    violations: list[str] = []
    decisions = {
        pid: value
        for pid, value in result.decisions.items()
        if pid not in excused
    }

    undecided = sorted(pid for pid, v in decisions.items() if v is None)
    all_decided = not undecided
    if undecided:
        violations.append(f"correct processors {undecided} never decided")

    values = set(decisions.values())
    agreement = len(values) <= 1
    if not agreement:
        per_value = {
            repr(v): sorted(p for p, d in decisions.items() if d == v)
            for v in values
        }
        violations.append(f"agreement violated: {per_value}")

    # Validity matches a decision to the input as a set matches a member:
    # by identity first, so a NaN input its processors decided passes.
    validity = True
    value = result.input_value
    if (
        result.transmitter in result.correct
        and result.transmitter not in excused
        and decisions
    ):
        wrong = sorted(
            pid
            for pid, decided in decisions.items()
            if not (decided is value or decided == value)
        )
        if wrong:
            validity = False
            violations.append(
                f"validity violated: transmitter correctly sent "
                f"{result.input_value!r} but {wrong} decided otherwise"
            )

    return ValidationReport(
        agreement=agreement,
        validity=validity,
        all_decided=all_decided,
        violations=violations,
        excused=frozenset(excused) & result.correct,
    )


def require_agreement(result: RunResult) -> None:
    """Raise :class:`~repro.core.errors.ValidationError` unless BA holds."""
    report = check_byzantine_agreement(result)
    if not report.ok:
        raise ValidationError(str(report))


#: Verdict classes (plain strings: JSON-friendly, picklable).  ``benign``
#: is divergence the injected faults account for: confined to the excused,
#: or past the fault budget ``t``, where no guarantee binds.
#: ``eps_violation`` is approximate agreement's ``safety``, kept apart so
#: the shrinker preserves it; ``bound`` is a correct-sender count above its
#: declared bound (the budget, or the theorem it cites, is wrong).
OK = "ok"
BENIGN = "benign"
SAFETY = "safety"
EPS_VIOLATION = "eps_violation"
BOUND = "bound"
#: The classes that fail a finished run.
FAILING = frozenset({SAFETY, EPS_VIOLATION, BOUND})
#: A run that raised instead of finishing: the fuzz oracle's verdict and
#: the class of a service request whose run raised.  It fails too.
CRASH = "crash"


class Costs(NamedTuple):
    """Correct-sender messages and signatures and the last active phase:
    what a run used, or what its algorithm declares (``None``: no bound)."""

    messages: int | None
    signatures: int | None
    phases: int | None


def declared_costs(algorithm: AgreementAlgorithm) -> Costs:
    """*algorithm*'s declared bounds.  Each expression is parsed and
    compiled once per process; a batch evaluates them once, not once per
    run."""
    return Costs(
        algorithm.upper_bound_messages(),
        algorithm.upper_bound_signatures(),
        algorithm.upper_bound_phases(),
    )


class Verdict(NamedTuple):
    """A run's class, its text (``"ok"`` when the unexcused met their
    conditions and the bounds held, else the violations) and the
    processors its faults excuse."""

    kind: str
    text: str
    excused: frozenset[int]

    @property
    def failed(self) -> bool:
        return self.kind in FAILING


#: How an exceeded bound reads, in :class:`Costs` order.
_OVER_BOUND = (
    "correct processors sent {} messages, declared bound {}",
    "correct processors sent {} signatures, declared bound {}",
    "traffic in phase {}, declared phase bound {}",
)


def judge_run(
    result: RunResult, algorithm: AgreementAlgorithm, declared: Costs, used: Costs | None = None
) -> Verdict:
    """Judge one finished run against the *declared* bounds, on the counts
    its correct processors *used* (default: its ledger's; a kernel row
    passes the counts it carries).

    1. The processors an injected fault touched are excused.  If the rest
       fail the algorithm's conditions, the run is ``benign`` when the
       faulty and excused exceed ``t`` or nobody is left, else the
       algorithm's ``violation`` (``safety``; ``eps_violation`` for
       approximate agreement).
    2. Divergence confined to the excused is ``benign``.
    3. A count above its declared bound is ``bound``; else ``ok``.
    """
    excused = excused_processors(result.fault_events) & result.correct
    report = algorithm.conditions(result, excused)
    if not report.ok:
        text = "; ".join(report.violations) or "violation"
        if len(result.faulty | excused) > result.t or not result.correct - excused:
            return Verdict(BENIGN, f"fault budget exceeded: {text}", excused)
        return Verdict(algorithm.violation, text, excused)
    if excused and not algorithm.conditions(result).ok:
        return Verdict(BENIGN, OK, excused)
    if used is None:
        metrics = result.metrics
        used = Costs(
            metrics.messages_by_correct, metrics.signatures_by_correct, metrics.last_active_phase
        )
    for count, bound, text in zip(used, declared, _OVER_BOUND):
        if bound is not None and count is not None and count > bound:
            return Verdict(BOUND, text.format(count, bound), excused)
    return Verdict(OK, OK, excused)
