"""The fuzzing oracle: classify one finished (or crashed) run.

A finished run gets the verdict every path shares,
:func:`~repro.approx.validation.judge_run`'s: its family's conditions on
the processors no injected fault excuses, the fault budget ``t``, then
the declared ``phase/message/signature_bound``.  The paper's upper-bound
theorems claim those hold for *every* t-faulty history, so a generated
adversary pushing a count above one is a finding even when agreement
holds.  A run that raises is ``crash``: a robustness gap in a protocol's
input validation or a harness bug; both deserve a counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.approx.coins import coins_for
from repro.approx.validation import FAILING, declared_costs, judge_run
from repro.core.protocol import AgreementAlgorithm
from repro.core.runner import RunResult, run
from repro.core.types import Value
from repro.fuzz.script import AdversaryScript
from repro.transport.faults import FaultPlan
from repro.transport.faulty import FaultyTransport

#: The run raised instead of finishing.
CRASH = "crash"


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
        return self.verdict in FAILING or self.verdict == CRASH


def classify_run(algorithm: AgreementAlgorithm, result: RunResult) -> FuzzOutcome:
    """:func:`~repro.approx.validation.judge_run`'s verdict on a finished
    run, with the counts it judged, as a :class:`FuzzOutcome`."""
    verdict = judge_run(result, algorithm, declared_costs(algorithm))
    metrics = result.metrics
    return FuzzOutcome(
        verdict=verdict.kind,
        detail=verdict.text,
        messages=metrics.messages_by_correct,
        signatures=metrics.signatures_by_correct,
        phases_used=metrics.last_active_phase,
    )


def execute_script(
    algorithm: AgreementAlgorithm,
    value: Value,
    script: AdversaryScript,
    *,
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
    :class:`~repro.transport.faulty.FaultyTransport`, whose fault events
    excuse the processors they touched.

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
            record_history=False,
            sinks=sinks,
            transport=transport,
            coins=coins,
        )
    except Exception as error:
        return FuzzOutcome(
            verdict=CRASH, detail=f"{type(error).__name__}: {error}"
        )
    return classify_run(algorithm, result)
