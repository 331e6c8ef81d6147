"""Correctness conditions for the approximate / randomized workloads.

Exact BA's conditions (agreement = equality, validity = the transmitter's
value) do not apply verbatim to the new family, so each workload gets its
own reading, reported through the same
:class:`~repro.core.validation.ValidationReport` shape:

* **ε-agreement** (:func:`check_epsilon_agreement`) — every pair of
  unexcused correct decisions within ``algorithm.eps`` of each other
  (reported as ``agreement``), and every decision inside the closed range
  of *correct* inputs — ε-validity containment (reported as
  ``validity``).
* **randomized consensus** (:func:`check_randomized_consensus`) —
  decisions that exist must agree on one binary value (``agreement``)
  and, when the correct inputs are unanimous, equal that input
  (``validity``).  Termination is probabilistic, so undecided processors
  at the round cap are *not* a violation — liveness is judged
  statistically by :mod:`repro.approx.stats`, not per run.

:func:`judge_run` is the one verdict every path reaches (``run_batch``,
and so sweeps and the service; ``measure()``, and so the adversary probe;
the fuzz oracle and ``repro run``): these conditions, the fault budget
``t``, then the declared message, signature and phase bounds (Theorems
3–7, Lemma 1).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.approx.base import ApproximateAgreement, RandomizedConsensus
from repro.core.protocol import AgreementAlgorithm
from repro.core.runner import RunResult
from repro.core.validation import ValidationReport, check_byzantine_agreement
from repro.transport.faults import excused_processors

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
#: The classes that fail a run (the fuzz oracle adds ``crash``).
FAILING = frozenset({SAFETY, EPS_VIOLATION, BOUND})


def check_epsilon_agreement(
    result: RunResult,
    algorithm: ApproximateAgreement,
    *,
    excused: frozenset[int] = frozenset(),
) -> ValidationReport:
    """ε-agreement + ε-validity containment on one finished run."""
    violations: list[str] = []
    decisions = {
        pid: value
        for pid, value in sorted(result.decisions.items())
        if pid not in excused
    }

    undecided = sorted(
        pid
        for pid, value in decisions.items()
        if not isinstance(value, float) or value != value
    )
    all_decided = not undecided
    if undecided:
        violations.append(
            f"correct processors {undecided} hold no finite value"
        )
    settled = {
        pid: value
        for pid, value in sorted(decisions.items())
        if pid not in undecided
    }

    agreement = True
    if settled:
        low_pid = min(settled, key=lambda pid: (settled[pid], pid))
        high_pid = max(settled, key=lambda pid: (settled[pid], pid))
        spread = settled[high_pid] - settled[low_pid]
        # A strict float comparison would flag rounding dust; one ulp of
        # slack keeps the check about the protocol, not the FPU.
        if spread > algorithm.eps * (1 + 1e-12):
            agreement = False
            violations.append(
                f"eps-agreement violated: |{settled[high_pid]!r} - "
                f"{settled[low_pid]!r}| = {spread!r} > eps={algorithm.eps!r} "
                f"(processors {high_pid} vs {low_pid})"
            )

    validity = True
    correct_inputs = [
        algorithm.inputs[pid] for pid in sorted(result.correct)
    ]
    if settled and correct_inputs:
        low, high = min(correct_inputs), max(correct_inputs)
        outside = sorted(
            pid
            for pid, value in settled.items()
            if not low - 1e-12 <= value <= high + 1e-12
        )
        if outside:
            validity = False
            violations.append(
                f"eps-validity violated: {outside} decided outside the "
                f"correct-input range [{low!r}, {high!r}]: "
                f"{[settled[pid] for pid in outside]!r}"
            )

    return ValidationReport(
        agreement=agreement,
        validity=validity,
        all_decided=all_decided,
        violations=violations,
        excused=frozenset(excused) & result.correct,
    )


def check_randomized_consensus(
    result: RunResult,
    algorithm: RandomizedConsensus,
    *,
    excused: frozenset[int] = frozenset(),
) -> ValidationReport:
    """Agreement + unanimity-validity; undecided-at-cap is not a failure."""
    violations: list[str] = []
    decisions = {
        pid: value
        for pid, value in sorted(result.decisions.items())
        if pid not in excused
    }
    decided = {
        pid: value
        for pid, value in sorted(decisions.items())
        if value is not None
    }

    values = set(decided.values())
    agreement = len(values) <= 1
    if not agreement:
        per_value = {
            repr(v): sorted(p for p, d in decided.items() if d == v)
            for v in sorted(values)
        }
        violations.append(f"agreement violated: {per_value}")

    validity = True
    correct_inputs = {
        algorithm.inputs[pid] for pid in sorted(result.correct)
    }
    if decided and len(correct_inputs) == 1:
        (unanimous,) = correct_inputs
        wrong = sorted(
            pid for pid, value in decided.items() if value != unanimous
        )
        if wrong:
            validity = False
            violations.append(
                f"validity violated: correct inputs are unanimously "
                f"{unanimous!r} but {wrong} decided otherwise"
            )

    # Probabilistic termination: a processor still undecided when the
    # round cap ran out is a statistics question, not a per-run bug.
    return ValidationReport(
        agreement=agreement,
        validity=validity,
        all_decided=True,
        violations=violations,
        excused=frozenset(excused) & result.correct,
    )


def check_run_conditions(
    result: RunResult,
    algorithm: object,
    *,
    excused: frozenset[int] = frozenset(),
) -> ValidationReport:
    """Dispatch to the right condition set for *algorithm*'s family."""
    if isinstance(algorithm, ApproximateAgreement):
        return check_epsilon_agreement(result, algorithm, excused=excused)
    if isinstance(algorithm, RandomizedConsensus):
        return check_randomized_consensus(result, algorithm, excused=excused)
    return check_byzantine_agreement(result, excused=excused)


class Costs(NamedTuple):
    """Correct-sender messages and signatures and the last active phase:
    what a run used, or what its algorithm declares (``None``: no bound)."""

    messages: int | None
    signatures: int | None
    phases: int | None


def declared_costs(algorithm: AgreementAlgorithm) -> Costs:
    """*algorithm*'s declared bounds.  Each call parses and compiles the
    expressions, so a batch evaluates them once, not once per run."""
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
    result: RunResult, algorithm: object, declared: Costs, used: Costs | None = None
) -> Verdict:
    """Judge one finished run against the *declared* bounds, on the counts
    its correct processors *used* (default: its ledger's; a kernel row
    passes the counts it carries).

    1. The processors an injected fault touched are excused.  If the rest
       fail their family's conditions, the run is ``benign`` when the
       faulty and excused exceed ``t`` or nobody is left, else ``safety``
       (``eps_violation`` for approximate agreement).
    2. Divergence confined to the excused is ``benign``.
    3. A count above its declared bound is ``bound``; else ``ok``.
    """
    excused = excused_processors(result.fault_events) & result.correct
    report = check_run_conditions(result, algorithm, excused=excused)
    if not report.ok:
        text = "; ".join(report.violations) or "violation"
        if len(result.faulty | excused) > result.t or not result.correct - excused:
            return Verdict(BENIGN, f"fault budget exceeded: {text}", excused)
        kind = EPS_VIOLATION if isinstance(algorithm, ApproximateAgreement) else SAFETY
        return Verdict(kind, text, excused)
    if excused and not check_run_conditions(result, algorithm).ok:
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
