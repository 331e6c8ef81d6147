"""The fuzzing oracle: run one script on the batch engine and classify it.

A script runs as a one-case :func:`~repro.core.batch.run_batch`, the
engine every sweep and service request runs on, so its forgeries,
replays and equivocations meet the same interned signature service and
shared digest table.  A finished run gets the verdict every path shares,
:func:`~repro.core.validation.judge_run`'s: its algorithm's conditions on
the processors no injected fault excuses, the fault budget ``t``, then
the declared ``phase/message/signature_bound``.  The paper's upper-bound
theorems claim those hold for *every* t-faulty history, so a generated
adversary pushing a count above one is a finding even when agreement
holds.  A run that raises is ``crash``: a robustness gap in a protocol's
input validation or a harness bug; both deserve a counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.batch import BatchCase, run_batch
from repro.core.protocol import AgreementAlgorithm
from repro.core.types import Value
from repro.core.validation import CRASH, FAILING
from repro.fuzz.script import AdversaryScript, ScriptAdversary
from repro.transport.faults import FaultPlan


@dataclass(frozen=True)
class FuzzOutcome:
    """The oracle's verdict on one executed script."""

    verdict: str
    detail: str
    messages: int = 0
    signatures: int = 0
    phases_used: int = 0
    #: Simulated faulty instances the script retired because they raised
    #: (:attr:`ScriptAdversary.retired`); a corpus entry does not save it.
    retired: int = 0

    @property
    def failed(self) -> bool:
        return self.verdict in FAILING or self.verdict == CRASH


def execute_script(
    algorithm: AgreementAlgorithm,
    value: Value,
    script: AdversaryScript,
    *,
    fault_plan: FaultPlan | None = None,
    coin_seed: int | None = None,
    trace: str | None = None,
) -> FuzzOutcome:
    """Run *script* against *algorithm* as a one-case batch and classify it.

    The case carries the script's adversary, *fault_plan* (delivery
    faults whose events excuse the processors they touched) and
    *coin_seed* (the coin stream of a ``uses_coins`` algorithm, so a
    persisted case replays the exact coins that produced its verdict).
    With *trace*, the run streams a ``repro-trace/1`` JSONL file there; a
    crashed run leaves it truncated (no ``run_end``), which is itself
    useful evidence.  An exception becomes a ``crash`` verdict rather
    than propagating: a fuzz campaign must survive its own findings.
    """
    built: list[ScriptAdversary] = []

    def build(_: AgreementAlgorithm) -> ScriptAdversary:
        # The engine's run builds the first; strict mode's reference
        # re-run would build a second.
        built.append(script.build())
        return built[-1]

    case = BatchCase(
        value=value,
        adversary_name="script",
        adversary_factory=build,
        fault_plan=fault_plan,
        coin_seed=coin_seed,
        trace=trace,
    )
    try:
        (outcome,) = run_batch(algorithm, [case]).outcomes
    except Exception as error:
        return FuzzOutcome(
            verdict=CRASH, detail=f"{type(error).__name__}: {error}"
        )
    return FuzzOutcome(
        verdict=outcome.kind,
        detail=outcome.verdict,
        messages=outcome.messages_by_correct,
        signatures=outcome.signatures_by_correct,
        phases_used=outcome.phases_used,
        retired=built[0].retired,
    )
