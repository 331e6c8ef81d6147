"""The fuzzing oracle: classify one finished (or crashed) run.

Every generated script is judged against two independent contracts:

* the **Byzantine Agreement conditions** (Section 2) via
  :func:`~repro.core.validation.check_byzantine_agreement` — agreement,
  validity, and termination of the correct processors;
* the algorithm's **declared information-exchange budget** (the
  ``phase/message/signature_bound`` ClassVars introduced with the linter) —
  the paper's upper-bound theorems claim these hold for *every* t-faulty
  history, so a generated adversary pushing a correct-processor count above
  its declared bound is a finding even when agreement still holds.

The two failure modes are deliberately distinguished: ``safety`` means the
algorithm is wrong, ``bound`` means the declared budget (or the theorem it
cites) is wrong.  A run that raises is ``crash`` — either a robustness gap
in a protocol's input validation or a harness bug; both deserve a
counterexample.

Runs executed under an injected :class:`~repro.transport.faults.FaultPlan`
get a third, *crash-tolerant* reading: a processor whose messages the
network dropped is excused (it is held to no stronger standard than a
Byzantine-corrupted one — the Byzantine-projection argument in
:mod:`repro.transport.faults`), and the BA conditions are demanded of the
rest.  Divergence confined to excused processors is ``benign``, not a
failure; divergence among the unexcused — while the faulty-plus-excused
budget stays within ``t`` — is a genuine ``safety`` finding.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.approx.base import ApproximateAgreement
from repro.approx.coins import coins_for
from repro.approx.validation import check_run_conditions
from repro.core.protocol import AgreementAlgorithm
from repro.core.runner import RunResult, run
from repro.core.types import Value
from repro.fuzz.script import AdversaryScript
from repro.transport.faults import FaultPlan, excused_processors
from repro.transport.faulty import FaultyTransport

#: Verdict constants (plain strings: JSON-friendly, picklable).
OK = "ok"
SAFETY = "safety"
BOUND = "bound"
CRASH = "crash"
#: Divergence fully attributable to injected benign delivery faults —
#: expected under crash/omission faults, not a finding.
BENIGN = "benign"
#: The ε-agreement conditions failed: correct processors ended more than
#: ``eps`` apart, or outside the correct-input range (ε-validity).  A
#: distinct verdict class so the shrinker preserves it and campaign
#: tables separate "approximately wrong" from exact-BA safety.
EPS_VIOLATION = "eps_violation"


@dataclass(frozen=True)
class FuzzOutcome:
    """The oracle's verdict on one executed script."""

    verdict: str
    detail: str
    messages: int = 0
    signatures: int = 0
    phases_used: int = 0

    @property
    def failed(self) -> bool:
        return self.verdict not in (OK, BENIGN)


def classify_run(algorithm: AgreementAlgorithm, result: RunResult) -> FuzzOutcome:
    """Judge a finished run: BA conditions first, then declared bounds.

    A run carrying :attr:`~repro.core.runner.RunResult.fault_events`
    (i.e. executed under a fault-injecting transport) is judged with the
    crash-tolerant expectations from the module docstring; a clean run
    gets the plain Byzantine reading.

    The conditions checked depend on the algorithm's family
    (:func:`~repro.approx.validation.check_run_conditions`): exact BA for
    the zoo, ε-agreement + ε-validity for approximate agreement (failure
    verdict ``eps_violation``), agreement + unanimity-validity for
    randomized consensus (still ``safety``; probabilistic termination is
    judged statistically, not per run).
    """
    fail_verdict = (
        EPS_VIOLATION if isinstance(algorithm, ApproximateAgreement) else SAFETY
    )
    metrics = result.metrics
    counts = dict(
        messages=metrics.messages_by_correct,
        signatures=metrics.signatures_by_correct,
        phases_used=metrics.last_active_phase,
    )
    if result.fault_events:
        excused = excused_processors(result.fault_events) & result.correct
        survivors_report = check_run_conditions(result, algorithm, excused=excused)
        if not survivors_report.ok:
            # Guarantees only bind while faulty ∪ excused fits the
            # tolerance t; past the budget any divergence is benign.
            if len(result.faulty | excused) > result.t or not (
                result.correct - excused
            ):
                return FuzzOutcome(
                    verdict=BENIGN,
                    detail=f"fault budget exceeded: {survivors_report}",
                    **counts,
                )
            return FuzzOutcome(
                verdict=fail_verdict, detail=str(survivors_report), **counts
            )
        full_report = check_run_conditions(result, algorithm)
        if not full_report.ok:
            return FuzzOutcome(
                verdict=BENIGN,
                detail=f"divergence confined to excused {sorted(excused)}: "
                f"{full_report}",
                **counts,
            )
        # Survivors and excused all agree: fall through to the declared
        # bounds (faults never add sends, but the budgets must still hold).
    else:
        report = check_run_conditions(result, algorithm)
        if not report.ok:
            return FuzzOutcome(verdict=fail_verdict, detail=str(report), **counts)

    message_bound = algorithm.upper_bound_messages()
    if message_bound is not None and metrics.messages_by_correct > message_bound:
        return FuzzOutcome(
            verdict=BOUND,
            detail=(
                f"correct processors sent {metrics.messages_by_correct} "
                f"messages, declared bound {message_bound}"
            ),
            **counts,
        )
    signature_bound = algorithm.upper_bound_signatures()
    if (
        signature_bound is not None
        and metrics.signatures_by_correct > signature_bound
    ):
        return FuzzOutcome(
            verdict=BOUND,
            detail=(
                f"correct processors sent {metrics.signatures_by_correct} "
                f"signatures, declared bound {signature_bound}"
            ),
            **counts,
        )
    phase_bound = algorithm.upper_bound_phases()
    if phase_bound is not None and metrics.last_active_phase > phase_bound:
        return FuzzOutcome(
            verdict=BOUND,
            detail=(
                f"traffic in phase {metrics.last_active_phase}, declared "
                f"phase bound {phase_bound}"
            ),
            **counts,
        )
    return FuzzOutcome(verdict=OK, detail="", **counts)


def execute_script(
    algorithm: AgreementAlgorithm,
    value: Value,
    script: AdversaryScript,
    *,
    record_history: bool = False,
    sinks: tuple = (),
    fault_plan: FaultPlan | None = None,
    coin_seed: int | None = None,
) -> FuzzOutcome:
    """Run *script* against *algorithm* and classify the outcome.

    Exceptions escaping the runner become a ``crash`` verdict rather than
    propagating: a fuzz campaign must survive its own findings.  *sinks*
    (``repro.obs`` event sinks) receive the run's trace stream; a crashed
    run leaves a truncated trace (no ``run_end``), which is itself useful
    evidence.  A non-empty *fault_plan* routes delivery through a
    :class:`~repro.transport.faulty.FaultyTransport`, switching
    :func:`classify_run` into its crash-tolerant reading.

    *coin_seed* feeds coin-flipping algorithms (``uses_coins``): the run
    gets ``algorithm.make_coin_source(coin_seed)``, so a persisted case
    replays the exact coin stream that produced its verdict.  Ignored —
    and irrelevant — for deterministic algorithms.
    """
    transport = (
        FaultyTransport(fault_plan)
        if fault_plan is not None and not fault_plan.is_empty
        else None
    )
    coins = coins_for(algorithm, coin_seed)
    try:
        result = run(
            algorithm,
            value,
            script.build(),
            record_history=record_history,
            sinks=sinks,
            transport=transport,
            coins=coins,
        )
    except Exception as error:
        return FuzzOutcome(
            verdict=CRASH, detail=f"{type(error).__name__}: {error}"
        )
    return classify_run(algorithm, result)
